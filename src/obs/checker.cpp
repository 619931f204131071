#include "obs/checker.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace shadow::obs {

namespace {

using TxnKey = std::pair<std::uint32_t, RequestSeq>;  // (client, seq)

std::string txn_name(const TxnKey& k) {
  std::string s = "c";
  s += std::to_string(k.first);
  s += '#';
  s += std::to_string(k.second);
  return s;
}

struct TxnTimes {
  net::Time begin = 0;        // first submission by the client
  net::Time ack = 0;          // first committed acknowledgment
  bool begun = false;
  bool acked = false;
};

std::string slot_name(std::uint32_t group, Slot slot) {
  return "g" + std::to_string(group) + " slot " + std::to_string(slot);
}

std::string ballot_name(std::uint64_t key) {
  return "(" + std::to_string(key >> 32) + ",n" + std::to_string(key & 0xffffffffu) + ")";
}

/// An accept event's (ballot, acceptor, digest), ordered by ballot.
using Accepted = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t>;

/// What the trace says about one consensus slot of one group.
struct SlotRecord {
  std::vector<std::uint64_t> proposed;  // digests proposed for the slot
  std::vector<std::uint32_t> deciders;  // incarnations that decided it
  std::uint64_t decided = 0;            // the first decided digest
  std::vector<Accepted> accepts;
};

/// Consensus agreement, validity and integrity over the propose/decide
/// digests, and the Paxos acceptor invariants over the promise/accept
/// events, per replication group.
template <typename GroupOf, typename Report>
void check_consensus(const Trace& trace, const GroupOf& group_of, const Report& report,
                     CheckResult& result) {
  // node -> (incarnation, trace generation) of its current incarnation,
  // which ends at a crash, a new restart epoch, or another generation.
  std::unordered_map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>> lives;
  std::unordered_map<std::uint32_t, std::uint64_t> epochs;
  std::vector<std::uint64_t> promised;  // per incarnation: its current promise
  const auto incarnation = [&](const TraceEvent& e) {
    const auto [it, fresh] = lives.try_emplace(e.node.value);
    if (fresh || it->second.second != e.gen) {
      it->second = {static_cast<std::uint32_t>(promised.size()), e.gen};
      promised.push_back(0);
    }
    return it->second.first;
  };
  std::map<std::pair<std::uint32_t, Slot>, SlotRecord> slots;
  std::map<std::uint32_t, std::uint64_t> acceptors;  // group -> configured synod size

  for (const TraceEvent& e : trace.events) {
    const auto node = [&e] { return "n" + std::to_string(e.node.value); };
    const auto at = [&] { return slot_name(group_of(e.node.value), e.a); };
    switch (e.kind) {
      case EventKind::kCrash:
        lives.erase(e.node.value);
        break;
      case EventKind::kGroupInfo:
        if (const auto [it, fresh] = epochs.try_emplace(e.node.value, e.b); it->second != e.b) {
          it->second = e.b;
          lives.erase(e.node.value);
        }
        break;
      case EventKind::kTobPropose:
        slots[{group_of(e.node.value), e.a}].proposed.push_back(e.c);
        break;
      case EventKind::kTobDecide: {
        SlotRecord& rec = slots[{group_of(e.node.value), e.a}];
        const std::uint32_t inc = incarnation(e);
        if (rec.deciders.empty()) {
          rec.decided = e.c;
        } else if (rec.decided != e.c) {
          report("consensus-agreement", at() + " decided " + std::to_string(rec.decided) +
                                            " elsewhere but " + std::to_string(e.c) + " on " +
                                            node());
        }
        if (std::find(rec.deciders.begin(), rec.deciders.end(), inc) != rec.deciders.end()) {
          report("consensus-integrity", node() + " decided " + at() + " twice in one incarnation");
        }
        rec.deciders.push_back(inc);
        break;
      }
      case EventKind::kPromise: {
        std::uint64_t& current = promised[incarnation(e)];
        if (e.a < current) {
          report("promise-monotonic",
                 node() + " promised " + ballot_name(current) + " then " + ballot_name(e.a));
        }
        current = std::max(current, e.a);
        std::uint64_t& synod = acceptors[group_of(e.node.value)];
        synod = std::max(synod, e.b);
        break;
      }
      case EventKind::kAccept:
        if (const std::uint64_t current = promised[incarnation(e)]; e.b < current) {
          report("accept-above-promise", node() + " accepted " + ballot_name(e.b) + " for " +
                                             at() + " below its promise " + ballot_name(current));
        }
        slots[{group_of(e.node.value), e.a}].accepts.emplace_back(e.b, e.node.value, e.c);
        break;
      default:
        break;
    }
  }

  for (auto& [key, rec] : slots) {
    const std::string name = slot_name(key.first, key.second);
    if (!rec.deciders.empty()) {
      ++result.slots_checked;
      if (!rec.proposed.empty() &&
          std::find(rec.proposed.begin(), rec.proposed.end(), rec.decided) == rec.proposed.end()) {
        report("consensus-validity", name + " decided " + std::to_string(rec.decided) +
                                         ", which no node proposed for it");
      }
    }
    // Chosen stability: the first ballot a quorum of distinct acceptors
    // accepted fixes the value every higher accepted ballot must carry.
    const auto synod = acceptors.find(key.first);
    if (synod == acceptors.end()) continue;
    std::sort(rec.accepts.begin(), rec.accepts.end());
    std::size_t voters = 0;
    const Accepted* chosen = nullptr;
    for (std::size_t i = 0; i < rec.accepts.size(); ++i) {
      const auto& [ballot, acceptor, digest] = rec.accepts[i];
      if (chosen == nullptr) {
        const bool new_ballot = i == 0 || std::get<0>(rec.accepts[i - 1]) != ballot;
        if (new_ballot) voters = 0;
        if (new_ballot || std::get<1>(rec.accepts[i - 1]) != acceptor) ++voters;
        if (voters > synod->second / 2) chosen = &rec.accepts[i];
      } else if (ballot > std::get<0>(*chosen) && digest != std::get<2>(*chosen)) {
        report("chosen-stability", name + ": n" + std::to_string(acceptor) + " accepted " +
                                       std::to_string(digest) + " at " + ballot_name(ballot) +
                                       " after " + std::to_string(std::get<2>(*chosen)) +
                                       " was chosen at " + ballot_name(std::get<0>(*chosen)));
      }
    }
  }
}

}  // namespace

std::string CheckResult::summary() const {
  std::string s = ok() ? "trace check PASSED" : "trace check FAILED";
  s += " (" + std::to_string(replicas_checked) + " replicas, " +
       std::to_string(executions_checked) + " executions, " +
       std::to_string(committed_txns_checked) + " committed txns, " +
       std::to_string(ro_cuts_checked) + " ro cuts, " + std::to_string(slots_checked) +
       " consensus slots)";
  for (const Violation& v : violations) {
    s += "\n  [" + v.invariant + "] " + v.detail;
  }
  return s;
}

CheckResult check_trace(const Trace& trace, const CheckOptions& options) {
  CheckResult result;
  const auto report = [&](const char* invariant, std::string detail) {
    if (result.violations.size() < options.max_violations) {
      result.violations.push_back(Violation{invariant, std::move(detail)});
    }
  };

  // ---- pass 0: node → replication group (sharded traces stamp every node
  // with a group_info event; absent events put the node in group 0, which
  // makes every classic trace a one-group trace).
  std::unordered_map<std::uint32_t, std::uint32_t> node_group;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == EventKind::kGroupInfo) {
      node_group[e.node.value] = static_cast<std::uint32_t>(e.a);
    }
  }
  const auto group_of = [&](std::uint32_t node) {
    const auto it = node_group.find(node);
    return it == node_group.end() ? 0u : it->second;
  };

  // ---- pass 1: gather per-node execution logs, delivery logs, crashes, and
  // client-side transaction intervals. Events are time-ordered per node by
  // construction (the simulator is sequential and virtual time is monotone).
  std::unordered_set<std::uint32_t> crashed;
  // node -> order -> txn (non-duplicate user executions)
  std::map<std::uint32_t, std::map<std::uint64_t, TxnKey>> exec_by_node;
  // node -> set of executed txns, to detect double execution
  std::map<std::uint32_t, std::set<TxnKey>> executed_keys;
  // node -> delivery index -> command (TOB delivery logs)
  std::map<std::uint32_t, std::map<std::uint64_t, TxnKey>> deliver_by_node;
  std::map<TxnKey, TxnTimes> txns;
  // cross-shard txn -> participant group -> applied 2PC decision
  std::map<TxnKey, std::map<std::uint64_t, XsPhase>> xs_decisions;
  // committed cross-shard txn -> group -> engine state version at apply
  // (0/unrecorded positions are skipped; replicas of one group apply the
  // decision at the same deterministic position, so first-recorded wins)
  std::map<TxnKey, std::map<std::uint64_t, std::uint64_t>> xs_commit_pos;
  // read-only txn -> group -> pinned read version (the snapshot cut)
  std::map<TxnKey, std::map<std::uint64_t, std::uint64_t>> ro_cuts;

  for (const TraceEvent& e : trace.events) {
    switch (e.kind) {
      case EventKind::kCrash:
        crashed.insert(e.node.value);
        break;
      case EventKind::kTxnExecute: {
        if (e.b != 0) break;  // duplicate: suppressed by the dedup table
        const std::string& proc = trace.label_of(e);
        if (proc.rfind("::", 0) == 0) break;  // internal (reconfiguration)
        const TxnKey key{e.client.value, e.seq};
        ++result.executions_checked;
        if (!executed_keys[e.node.value].insert(key).second) {
          report("at-most-once", "replica n" + std::to_string(e.node.value) +
                                     " executed " + txn_name(key) + " twice");
        }
        if (e.a == kUnordered) break;  // e.g. chain-tail reads: no position
        const auto [it, inserted] = exec_by_node[e.node.value].try_emplace(e.a, key);
        if (!inserted && it->second != key) {
          report("at-most-once", "replica n" + std::to_string(e.node.value) +
                                     " executed order " + std::to_string(e.a) +
                                     " twice (" + txn_name(it->second) + " then " +
                                     txn_name(key) + ")");
        }
        break;
      }
      case EventKind::kTobDeliver: {
        const TxnKey key{e.client.value, e.seq};
        const auto [it, inserted] = deliver_by_node[e.node.value].try_emplace(e.b, key);
        if (!inserted && it->second != key) {
          report("total-order", "TOB node n" + std::to_string(e.node.value) +
                                    " delivered two commands at index " + std::to_string(e.b));
        }
        break;
      }
      case EventKind::kTxnBegin: {
        TxnTimes& t = txns[{e.client.value, e.seq}];
        if (!t.begun) {
          t.begun = true;
          t.begin = e.time;
        }
        break;
      }
      case EventKind::kTxnAck: {
        if (e.a == 0) break;  // aborted answers carry no ordering obligation
        TxnTimes& t = txns[{e.client.value, e.seq}];
        if (!t.acked) {
          t.acked = true;
          t.ack = e.time;
        }
        break;
      }
      case EventKind::kXsPhase: {
        const auto phase = static_cast<XsPhase>(e.a);
        if (phase == XsPhase::kPrepare) break;
        const TxnKey key{e.client.value, e.seq};
        const auto [it, inserted] = xs_decisions[key].emplace(e.b, phase);
        if (!inserted && it->second != phase) {
          report("cross-shard-atomicity", "group g" + std::to_string(e.b) +
                                              " applied both commit and abort for " +
                                              txn_name(key));
        }
        if (phase == XsPhase::kCommit && e.c != 0) {
          xs_commit_pos[key].emplace(e.b, e.c);
        }
        break;
      }
      case EventKind::kRoCut: {
        ro_cuts[{e.client.value, e.seq}][e.a] = e.b;
        break;
      }
      default:
        break;
    }
  }

  // ---- cross-shard atomicity: every participant group applied the same
  // 2PC decision (a commit on one shard with an abort on another would leave
  // the transfer half-applied).
  for (const auto& [key, decisions] : xs_decisions) {
    std::string committed_on;
    std::string aborted_on;
    for (const auto& [group, phase] : decisions) {
      std::string& list = phase == XsPhase::kCommit ? committed_on : aborted_on;
      if (!list.empty()) list += ",";
      list += "g" + std::to_string(group);
    }
    if (!committed_on.empty() && !aborted_on.empty()) {
      report("cross-shard-atomicity", "cross-shard " + txn_name(key) + " committed on " +
                                          committed_on + " but aborted on " + aborted_on);
    }
  }

  // ---- total order: TOB nodes of the same group must agree on every common
  // delivery index (each group is its own TOB instance; comparing across
  // groups would be meaningless). Crashed TOB nodes stay included: consensus
  // safety guarantees a crashed learner's delivery log is a consistent prefix.
  {
    // group -> (reference node, its log); every later node of the group is
    // compared against the group's first.
    std::map<std::uint32_t, std::pair<std::uint32_t, const std::map<std::uint64_t, TxnKey>*>>
        ref_by_group;
    for (const auto& [node, log] : deliver_by_node) {
      const auto [rit, first] = ref_by_group.try_emplace(group_of(node), node, &log);
      if (first) continue;
      const auto& [ref_node, ref_log] = rit->second;
      for (const auto& [index, key] : log) {
        const auto it = ref_log->find(index);
        if (it != ref_log->end() && it->second != key) {
          report("total-order", "TOB delivery index " + std::to_string(index) + " is " +
                                    txn_name(it->second) + " on n" + std::to_string(ref_node) +
                                    " but " + txn_name(key) + " on n" + std::to_string(node));
        }
      }
    }
  }

  // ---- total order: surviving replicas of the same group must agree on
  // every common execution-order index (pairwise against the group's union
  // keeps it O(n log n)).
  std::map<std::uint32_t, std::map<std::uint64_t, std::pair<TxnKey, std::uint32_t>>>
      agreed_by_group;
  for (const auto& [node, log] : exec_by_node) {
    const bool node_crashed = crashed.count(node) > 0;
    if (node_crashed && !options.include_crashed_in_order_check) continue;
    ++result.replicas_checked;
    auto& agreed_order = agreed_by_group[group_of(node)];
    for (const auto& [order, key] : log) {
      const auto [it, inserted] = agreed_order.try_emplace(order, key, node);
      if (!inserted && it->second.first != key) {
        report("total-order", "execution order " + std::to_string(order) + " is " +
                                  txn_name(it->second.first) + " on n" +
                                  std::to_string(it->second.second) + " but " + txn_name(key) +
                                  " on n" + std::to_string(node));
      }
    }
  }

  // ---- durability + strict serializability over committed transactions.
  // Position = the agreed execution-order index within a group (a
  // cross-shard transaction has one per participant group: its prepare's
  // delivery index, the point its locks serialize it at). Strict
  // serializability on sequentially-executed identical state machines
  // reduces to: each group's agreed total order exists (checked above) and
  // respects real time — checked per group below, which for sharded traces
  // covers every real-time precedence each group can observe.
  std::map<std::uint32_t, std::map<TxnKey, std::uint64_t>> position_by_group;
  for (const auto& [group, agreed_order] : agreed_by_group) {
    auto& position = position_by_group[group];
    for (const auto& [order, entry] : agreed_order) position.emplace(entry.first, order);
  }

  // Durable = executed (in any position, or unordered) on a never-crashed
  // replica. Unordered executions (chain-tail reads) satisfy durability but
  // carry no serialization position.
  std::set<TxnKey> durable;
  for (const auto& [node, keys] : executed_keys) {
    if (crashed.count(node) > 0) continue;
    durable.insert(keys.begin(), keys.end());
  }

  struct Committed {
    TxnKey key;
    net::Time begin;
    net::Time ack;
  };
  std::vector<Committed> committed;
  for (const auto& [key, t] : txns) {
    if (!t.acked) continue;
    ++result.committed_txns_checked;
    if (durable.count(key) == 0 && ro_cuts.count(key) == 0) {
      // Read-only snapshot transactions (identified by their ro_cut events)
      // never enter a TOB log or execute as state-machine commands, so
      // durability does not apply to them.
      report("durability", "committed " + txn_name(key) +
                               " was never executed on a surviving replica");
      continue;
    }
    committed.push_back(Committed{key, t.begun ? t.begin : 0, t.ack});
  }

  // Per-group real-time check. Violation iff some T1, T2 in the group have
  // ack(T1) < begin(T2) yet pos(T2) < pos(T1): T2 started after T1's answer
  // was on the wire, but serialized before T1. Scanning in position order
  // with the running maximum of begin times, T1 is the current element and
  // T2 any earlier-positioned one, so the test is ack(current) < max(begin
  // of predecessors).
  for (const auto& [group, position] : position_by_group) {
    struct Ordered {
      TxnKey key;
      std::uint64_t pos;
      net::Time begin;
      net::Time ack;
    };
    std::vector<Ordered> ordered;
    for (const Committed& t : committed) {
      const auto it = position.find(t.key);
      if (it == position.end()) continue;  // other group, or unordered (a read)
      ordered.push_back(Ordered{t.key, it->second, t.begin, t.ack});
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Ordered& x, const Ordered& y) { return x.pos < y.pos; });
    net::Time max_begin_so_far = 0;
    TxnKey max_begin_key{};
    for (const Ordered& t : ordered) {
      if (max_begin_so_far != 0 && t.ack < max_begin_so_far) {
        report("strict-serializability",
               txn_name(t.key) + " (order " + std::to_string(t.pos) + ", acked at " +
                   std::to_string(t.ack) + "us) is serialized after " + txn_name(max_begin_key) +
                   " which was submitted at " + std::to_string(max_begin_so_far) +
                   "us, after that acknowledgment");
      }
      if (t.begin > max_begin_so_far) {
        max_begin_so_far = t.begin;
        max_begin_key = t.key;
      }
    }
  }

  // ---- snapshot-read consistency: a cross-shard read-only cut must be a
  // consistent prefix of every committed cross-shard transaction it shares
  // at least two groups with — the transaction is visible at a group g iff
  // its decision applied at a position <= the cut's pinned version S_g, and
  // that visibility must be uniform across the shared groups. A torn cut
  // (included on one group, excluded on another) is exactly the anomaly the
  // client's ro-snap exchange exists to prevent. One shared group is never a
  // violation: atomic visibility is trivially satisfied per group.
  for (const auto& [rkey, cut] : ro_cuts) {
    if (cut.size() >= 2) ++result.ro_cuts_checked;
    for (const auto& [xkey, positions] : xs_commit_pos) {
      std::string included_on;
      std::string excluded_on;
      for (const auto& [group, pos] : positions) {
        const auto it = cut.find(group);
        if (it == cut.end()) continue;
        std::string& list = pos <= it->second ? included_on : excluded_on;
        if (!list.empty()) list += ",";
        list += "g" + std::to_string(group);
      }
      if (!included_on.empty() && !excluded_on.empty()) {
        report("snapshot-read", "read-only " + txn_name(rkey) + " observes " +
                                    txn_name(xkey) + " on " + included_on +
                                    " but not on " + excluded_on);
      }
    }
  }

  check_consensus(trace, group_of, report, result);

  // ---- cross-group note: there is deliberately NO cycle check over the
  // union of the per-group position orders. Such a check would assert that
  // every pair of transactions is ordered the same way by every common
  // group, which is stronger than strict serializability: non-conflicting
  // transactions commute, so two groups may legitimately serialize them in
  // opposite orders (TOB proposal racing does exactly that to concurrent
  // cross-shard prepares). The trace does not record key sets, so conflicts
  // are unobservable here — and the no-wait 2PC rule makes the full-chain
  // check redundant anyway: concurrently-prepared transactions only both
  // commit when their lock sets were disjoint (a conflict votes NO), while
  // non-concurrent pairs are covered by the per-group real-time scans above.
  // What IS checked across groups: per-group total order + real time (both
  // above) and uniform 2PC decisions (cross-shard-atomicity, earlier).
  return result;
}

Trace merge_traces(const std::vector<Trace>& traces) {
  Trace out;
  std::unordered_map<std::string, std::uint32_t> ids{{"", 0}};
  for (const Trace& trace : traces) {
    out.dropped += trace.dropped;
    for (const TraceEvent& event : trace.events) {
      TraceEvent copy = event;
      copy.gen = static_cast<std::uint32_t>(&trace - traces.data());
      const std::string& label = trace.strings[event.label];
      auto [it, inserted] = ids.emplace(label, static_cast<std::uint32_t>(out.strings.size()));
      if (inserted) out.strings.push_back(label);
      copy.label = it->second;
      out.events.push_back(copy);
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) { return x.time < y.time; });
  return out;
}

}  // namespace shadow::obs
