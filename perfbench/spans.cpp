#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "core/twopc.hpp"

namespace shadow::perfbench {

const char* const kStageNames[kStageCount] = {"client.hop",       "tob.queue",
                                              "consensus.decide", "tob.deliver",
                                              "core.exec_queue",  "core.reply"};

namespace {

using obs::EventKind;

/// (a, b) → one 64-bit key; b is a seq or slot, far below 2^44 in practice.
struct Key2 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Key2&) const = default;
};
struct Key3 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  bool operator==(const Key3&) const = default;
};
struct KeyHash {
  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
  std::size_t operator()(const Key2& k) const { return mix(mix(0, k.a), k.b); }
  std::size_t operator()(const Key3& k) const { return mix(mix(mix(0, k.a), k.b), k.c); }
};

template <typename K, typename V>
using Map = std::unordered_map<K, V, KeyHash>;

struct Ack {
  net::Time t = 0;
  bool committed = false;
};
struct Delivery {
  net::Time t = 0;
  std::uint64_t slot = 0;
};

template <typename K, typename V>
const V* find(const Map<K, V>& m, const K& k) {
  const auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}

double us(net::Time from, net::Time to) {
  return static_cast<double>(static_cast<std::int64_t>(to - from));
}

}  // namespace

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double quantile_us(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  // The run of samples equal to the value holding `rank`: cf below it, f in it.
  const auto at = std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const auto lo = std::lower_bound(v.begin(), v.end(), v[at]);
  const auto hi = std::upper_bound(v.begin(), v.end(), v[at]);
  const auto cf = static_cast<double>(lo - v.begin());
  const auto f = static_cast<double>(hi - lo);
  return v[at] - 0.5 + (rank - cf) / f;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

LatencyMatch match_latencies(const SpanReport& report, const std::vector<ClientLatency>& client) {
  Map<Key2, double> timed;
  for (const ClientLatency& c : client) timed.emplace(Key2{c.client, c.seq}, c.us);
  LatencyMatch m;
  for (const SpanReport::Covered& s : report.covered_spans) {
    const double* us = find(timed, Key2{s.client, s.seq});
    if (us == nullptr) continue;
    ++m.matched;
    m.stage_sum_mean_us += s.stage_sum_us;
    m.client_mean_us += *us;
  }
  if (m.matched > 0) {
    m.stage_sum_mean_us /= static_cast<double>(m.matched);
    m.client_mean_us /= static_cast<double>(m.matched);
  }
  return m;
}

SpanReport join_spans(const obs::Trace& trace, const std::vector<NodePair>& pairs,
                      std::ostream* spans_out) {
  Map<Key2, net::Time> begin;
  Map<Key2, Ack> ack;
  Map<Key2, net::Time> bcast;
  Map<Key2, net::Time> propose;  // (group, slot)
  Map<Key2, net::Time> decide;   // (tob node, slot)
  Map<Key3, Delivery> deliver;   // (tob node, wire client, seq)
  Map<Key3, net::Time> exec;     // (replica, client, seq)
  Map<Key3, net::Time> xs_prepare;
  Map<Key3, net::Time> xs_commit;
  std::unordered_set<Key2, KeyHash> ro;
  std::unordered_map<std::uint32_t, std::uint32_t> group_of;
  std::vector<std::pair<net::Time, const obs::TraceEvent*>> st_begins;

  SpanReport report;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind == EventKind::kGroupInfo) group_of[e.node.value] = static_cast<std::uint32_t>(e.a);
  }
  const auto group = [&group_of](NodeId n) {
    const auto it = group_of.find(n.value);
    return it == group_of.end() ? 0u : it->second;
  };

  for (const obs::TraceEvent& e : trace.events) {
    const Key2 cs{e.client.value, e.seq};
    switch (e.kind) {
      case EventKind::kTxnBegin: begin.try_emplace(cs, e.time); break;
      case EventKind::kTxnAck: ack.try_emplace(cs, Ack{e.time, e.a != 0}); break;
      case EventKind::kTobBroadcast: bcast.try_emplace(cs, e.time); break;
      case EventKind::kTobPropose:
        if (propose.try_emplace(Key2{group(e.node), e.a}, e.time).second) {
          report.batch_sizes.push_back(static_cast<double>(e.b));
        }
        break;
      case EventKind::kTobDecide: decide.try_emplace(Key2{e.node.value, e.a}, e.time); break;
      case EventKind::kTobDeliver:
        deliver.try_emplace(Key3{e.node.value, e.client.value, e.seq}, Delivery{e.time, e.a});
        break;
      case EventKind::kTxnExecute:
        if (e.b == 0) exec.try_emplace(Key3{e.node.value, e.client.value, e.seq}, e.time);
        break;
      case EventKind::kXsPhase: {
        const Key3 k{e.node.value, e.client.value, e.seq};
        if (e.a == static_cast<std::uint64_t>(obs::XsPhase::kPrepare)) {
          xs_prepare.try_emplace(k, e.time);
        } else if (e.a == static_cast<std::uint64_t>(obs::XsPhase::kCommit)) {
          xs_commit.try_emplace(k, e.time);
        }
        break;
      }
      case EventKind::kRoCut: ro.insert(cs); break;
      case EventKind::kBallot: ++report.ballots; break;
      case EventKind::kStateTransfer:
        if (e.a == static_cast<std::uint64_t>(obs::StatePhase::kBegin)) {
          st_begins.emplace_back(e.time, &e);
        } else if (e.a == static_cast<std::uint64_t>(obs::StatePhase::kDone)) {
          // The joiner records done; the sender recorded begin toward it.
          const obs::TraceEvent* start = nullptr;
          for (const auto& [t, b] : st_begins) {
            if (b->c == e.node.value && t <= e.time) start = b;
          }
          if (start != nullptr) report.stream_ms.push_back(us(start->time, e.time) / 1000.0);
        }
        break;
      default: break;
    }
  }

  for (const auto& [cs, a] : ack) {
    if (!a.committed) continue;
    if (ro.count(cs) != 0) {
      ++report.ro_committed;
      continue;
    }
    ++report.committed;
    const net::Time* b = find(begin, cs);

    // Cross-shard transactions enter the coordinator group's log under the
    // kXsBeginBit wire id; everything else under the client's own id.
    const auto client = static_cast<std::uint32_t>(cs.a);
    std::uint32_t wire = client;
    bool cross = false;
    const net::Time* bc = find(bcast, cs);
    if (bc == nullptr) {
      wire = core::kXsBeginBit | (client & core::kXsClientMask);
      bc = find(bcast, Key2{wire, cs.b});
      cross = bc != nullptr;
    }

    const NodePair* chosen = nullptr;
    const Delivery* dl = nullptr;
    net::Time applied = std::numeric_limits<net::Time>::max();
    for (const NodePair& p : pairs) {
      const Delivery* d = find(deliver, Key3{p.tob.value, wire, cs.b});
      if (d == nullptr) continue;
      const net::Time* t =
          find(cross ? xs_commit : exec, Key3{p.db.value, client, cs.b});
      if (t == nullptr || *t >= applied) continue;
      applied = *t;
      chosen = &p;
      dl = d;
    }
    const net::Time* prop = chosen ? find(propose, Key2{chosen->group, dl->slot}) : nullptr;
    const net::Time* dec = chosen ? find(decide, Key2{chosen->tob.value, dl->slot}) : nullptr;
    const bool covered = b != nullptr && bc != nullptr && prop != nullptr && dec != nullptr;

    if (covered) {
      ++report.covered;
      const net::Time marks[kStageCount + 1] = {*b, *bc, *prop, *dec, dl->t, applied, a.t};
      double stage_sum = 0;
      for (std::size_t i = 0; i < kStageCount; ++i) {
        report.stages[i].push_back(us(marks[i], marks[i + 1]));
        stage_sum += report.stages[i].back();
      }
      report.covered_spans.push_back({cs.a, cs.b, stage_sum});
      if (cross) {
        ++report.cross_shard;
        if (const net::Time* prep = find(xs_prepare, Key3{chosen->db.value, client, cs.b})) {
          report.xs_us.push_back(us(*prep, applied));
        }
      } else {
        report.exec_queue_us.push_back(us(dl->t, applied));
      }
      if (spans_out != nullptr) {
        *spans_out << "{\"client\":" << cs.a << ",\"seq\":" << cs.b << ",\"start\":" << *b
                   << ",\"end\":" << a.t << ",\"self_us\":" << us(*b, a.t) - stage_sum
                   << ",\"children\":[";
        for (std::size_t i = 0; i < kStageCount; ++i) {
          const char* name = i == kApplyStage && cross ? "core.xs" : kStageNames[i];
          *spans_out << (i ? "," : "") << "{\"name\":\"" << name << "\",\"start\":" << marks[i]
                     << ",\"end\":" << marks[i + 1] << "}";
        }
        *spans_out << "]}\n";
      }
    } else if (spans_out != nullptr) {
      *spans_out << "{\"client\":" << cs.a << ",\"seq\":" << cs.b
                 << ",\"start\":" << (b ? *b : 0) << ",\"end\":" << a.t
                 << ",\"missing\":true,\"children\":[]}\n";
    }
  }
  return report;
}

}  // namespace shadow::perfbench
