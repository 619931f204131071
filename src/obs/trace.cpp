#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/check.hpp"

namespace shadow::obs {

namespace {

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kMsgSend, "msg_send"},
    {EventKind::kMsgDeliver, "msg_deliver"},
    {EventKind::kMsgDrop, "msg_drop"},
    {EventKind::kTobBroadcast, "tob_broadcast"},
    {EventKind::kTobPropose, "tob_propose"},
    {EventKind::kTobDecide, "tob_decide"},
    {EventKind::kTobDeliver, "tob_deliver"},
    {EventKind::kBallot, "ballot"},
    {EventKind::kRound, "round"},
    {EventKind::kTxnBegin, "txn_begin"},
    {EventKind::kTxnExecute, "txn_execute"},
    {EventKind::kTxnAck, "txn_ack"},
    {EventKind::kCrash, "crash"},
    {EventKind::kRecover, "recover"},
    {EventKind::kStateTransfer, "state_transfer"},
    {EventKind::kGroupInfo, "group_info"},
    {EventKind::kXsPhase, "xs_phase"},
    {EventKind::kRoCut, "ro_cut"},
    {EventKind::kPromise, "promise"},
    {EventKind::kAccept, "accept"},
};

bool kind_from_string(const std::string& s, EventKind& out) {
  for (const KindName& kn : kKindNames) {
    if (s == kn.name) {
      out = kn.kind;
      return true;
    }
  }
  return false;
}

/// JSON string escaping for labels (headers and procedure names are plain
/// identifiers in practice, but the exporter must stay well-formed anyway).
void append_escaped(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        default: out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

/// Minimal field accessors for the exporter's own fixed JSON shape.
bool find_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  out = std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

bool find_string(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t start = line.find(needle);
  if (start == std::string::npos) return false;
  std::size_t i = start + needle.size();
  std::string raw;
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\' && i + 1 < line.size()) {
      raw += line[i];
      ++i;
    }
    raw += line[i];
    ++i;
  }
  out = unescape(raw);
  return true;
}

}  // namespace

const char* to_string(EventKind kind) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

// ----------------------------------------------------------------- Tracer --

Tracer::Tracer(TracerOptions options)
    : options_(options), batch_stats_baseline_(splice_stats()) {
  SHADOW_REQUIRE(options_.capacity > 0);
  ring_.reserve(std::min<std::size_t>(options_.capacity, 4096));
}

void Tracer::sync_batch_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  const SpliceStats& now = splice_stats();
  metrics_.counter("net.batch_encode_count")
      .add(now.batch_encodes - batch_stats_baseline_.batch_encodes);
  metrics_.counter("net.batch_bytes_copied")
      .add(now.batch_bytes_copied - batch_stats_baseline_.batch_bytes_copied);
  batch_stats_baseline_ = now;
}

void Tracer::append(TraceEvent e) {
  ++recorded_;
  if (ring_.size() < options_.capacity) {
    ring_.push_back(e);
    return;
  }
  // Full: overwrite the oldest event (head_ is the oldest slot).
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
}

std::uint32_t Tracer::intern(const std::string& s) {
  const auto [it, inserted] = string_ids_.try_emplace(s, static_cast<std::uint32_t>(strings_.size()));
  if (inserted) strings_.push_back(s);
  return it->second;
}

Trace Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Trace trace;
  trace.strings = strings_;
  trace.dropped = unlocked_dropped();
  trace.events.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    trace.events.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return trace;
}

void Tracer::on_send(net::Time t, NodeId from, NodeId to, const net::Message& m) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("net.messages").add();
  metrics_.counter("net.bytes").add(m.wire_size);
  metrics_.counter("net.bytes." + m.header).add(m.wire_size);
  if (!options_.record_messages) return;
  append({.time = t, .kind = EventKind::kMsgSend, .node = from, .a = to.value, .b = m.wire_size,
          .label = intern(m.header)});
}

void Tracer::on_deliver(net::Time t, NodeId to, const net::Message& m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.record_messages) return;
  append({.time = t, .kind = EventKind::kMsgDeliver, .node = to, .a = m.from.value,
          .label = intern(m.header)});
}

void Tracer::on_wire_drop(net::Time t, NodeId from, NodeId to, const std::string& header,
                          std::size_t wire_size, wire::FrameStatus reason) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("net.wire_drops").add();
  metrics_.counter("net.wire_drop_bytes").add(wire_size);
  append({.time = t, .kind = EventKind::kMsgDrop, .node = from, .a = to.value, .b = wire_size,
          .c = static_cast<std::uint64_t>(reason), .label = intern(header)});
}

void Tracer::on_frame_sent(net::Time /*t*/, const net::Message& m) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("net.encode_count").add();
  metrics_.counter("net.encode_bytes").add(m.wire_size);
}

void Tracer::on_peer_down(net::Time /*t*/, net::HostId /*peer*/) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("net.peer_down_total").add();
}

void Tracer::on_peer_up(net::Time /*t*/, net::HostId /*peer*/, net::Time downtime) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("net.peer_up_total").add();
  if (downtime > 0) metrics_.histogram("net.peer_downtime_us").observe(downtime);
}

void Tracer::on_reconnect_attempt(net::Time /*t*/, net::HostId /*peer*/,
                                  std::uint64_t /*attempt*/, net::Time /*backoff*/) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("net.reconnect_attempts").add();
}

void Tracer::on_crash(net::Time t, NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("replica.crashes").add();
  append({.time = t, .kind = EventKind::kCrash, .node = node});
}

void Tracer::tob_broadcast(net::Time t, NodeId node, ClientId client, RequestSeq seq) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("tob.broadcasts").add();
  append({.time = t, .kind = EventKind::kTobBroadcast, .node = node, .client = client, .seq = seq});
}

void Tracer::tob_propose(net::Time t, NodeId node, Slot slot, std::size_t batch_size,
                         std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("tob.proposals").add();
  slot_proposed_at_.try_emplace(slot, t);
  append({.time = t, .kind = EventKind::kTobPropose, .node = node, .a = slot, .b = batch_size,
          .c = digest});
}

void Tracer::tob_decide(net::Time t, NodeId node, Slot slot, std::size_t batch_size,
                        std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  // Decide latency and batch size are per-slot metrics: count the first
  // node's decide only (every node learns every slot).
  if (slot_decided_at_.try_emplace(slot, t).second) {
    metrics_.counter("tob.decisions").add();
    metrics_.histogram("tob.batch_size").observe(batch_size);
    if (const auto it = slot_proposed_at_.find(slot); it != slot_proposed_at_.end()) {
      metrics_.histogram("tob.decide_latency_us").observe(t - it->second);
    }
  }
  append({.time = t, .kind = EventKind::kTobDecide, .node = node, .a = slot, .b = batch_size,
          .c = digest});
}

void Tracer::tob_deliver(net::Time t, NodeId node, Slot slot, std::uint64_t index,
                         ClientId client, RequestSeq seq) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("tob.deliveries").add();
  append({.time = t, .kind = EventKind::kTobDeliver, .node = node, .client = client, .seq = seq,
          .a = slot, .b = index});
}

void Tracer::ballot(net::Time t, NodeId node, std::uint64_t round, NodeId leader,
                    BallotPhase phase) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (phase) {
    case BallotPhase::kScout: metrics_.counter("paxos.scouts").add(); break;
    case BallotPhase::kAdopted: metrics_.counter("paxos.adoptions").add(); break;
    case BallotPhase::kPreempted: metrics_.counter("paxos.preemptions").add(); break;
  }
  append({.time = t, .kind = EventKind::kBallot, .node = node, .a = round, .b = leader.value,
          .c = static_cast<std::uint64_t>(phase)});
}

void Tracer::round(net::Time t, NodeId node, Slot slot, std::uint64_t round) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("two_third.round_advances").add();
  append({.time = t, .kind = EventKind::kRound, .node = node, .a = slot, .b = round});
}

void Tracer::promise(net::Time t, NodeId acceptor, std::uint64_t round, NodeId leader,
                     std::size_t acceptors) {
  std::lock_guard<std::mutex> lock(mu_);
  append({.time = t, .kind = EventKind::kPromise, .node = acceptor, .a = ballot_key(round, leader),
          .b = acceptors});
}

void Tracer::accept(net::Time t, NodeId acceptor, Slot slot, std::uint64_t round, NodeId leader,
                    std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  append({.time = t, .kind = EventKind::kAccept, .node = acceptor, .a = slot,
          .b = ballot_key(round, leader), .c = digest});
}

void Tracer::txn_begin(net::Time t, NodeId node, ClientId client, RequestSeq seq,
                       const std::string& proc) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("txn.begun").add();
  txn_begun_at_.try_emplace({client.value, seq}, t);
  append({.time = t, .kind = EventKind::kTxnBegin, .node = node, .client = client, .seq = seq,
          .label = intern(proc)});
}

void Tracer::txn_execute(net::Time t, NodeId node, ClientId client, RequestSeq seq,
                         std::uint64_t order, bool duplicate, bool committed,
                         const std::string& proc) {
  std::lock_guard<std::mutex> lock(mu_);
  if (duplicate) {
    metrics_.counter("txn.duplicates_suppressed").add();
  } else {
    metrics_.counter("txn.executed").add();
    if (!committed) metrics_.counter("txn.aborted").add();
  }
  append({.time = t, .kind = EventKind::kTxnExecute, .node = node, .client = client, .seq = seq,
          .a = order, .b = duplicate, .c = committed, .label = intern(proc)});
}

void Tracer::txn_ack(net::Time t, NodeId node, ClientId client, RequestSeq seq,
                     bool committed) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter(committed ? "txn.committed" : "txn.aborts_answered").add();
  if (const auto it = txn_begun_at_.find({client.value, seq}); it != txn_begun_at_.end()) {
    metrics_.histogram("txn.latency_us").observe(t - it->second);
  }
  append({.time = t, .kind = EventKind::kTxnAck, .node = node, .client = client, .seq = seq,
          .a = committed});
}

void Tracer::recover(net::Time t, NodeId node, std::uint64_t up_to_order) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("replica.recoveries").add();
  append({.time = t, .kind = EventKind::kRecover, .node = node, .a = up_to_order});
}

void Tracer::state_transfer(net::Time t, NodeId node, StatePhase phase, std::uint64_t bytes,
                            NodeId peer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase == StatePhase::kBatch) {
    metrics_.counter("state_transfer.batches").add();
    metrics_.counter("state_transfer.bytes").add(bytes);
  } else if (phase == StatePhase::kBegin) {
    metrics_.counter("state_transfer.sessions").add();
  }
  append({.time = t, .kind = EventKind::kStateTransfer, .node = node,
          .a = static_cast<std::uint64_t>(phase), .b = bytes, .c = peer.value});
}

void Tracer::group_info(net::Time t, NodeId node, std::uint64_t group, std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  append({.time = t, .kind = EventKind::kGroupInfo, .node = node, .a = group, .b = epoch});
}

void Tracer::xs_phase(net::Time t, NodeId node, ClientId client, RequestSeq seq, XsPhase phase,
                      std::uint64_t group, const std::string& proc, std::uint64_t pos) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter(phase == XsPhase::kPrepare  ? "xs.prepares"
                   : phase == XsPhase::kCommit ? "xs.commits"
                                               : "xs.aborts")
      .add();
  append({.time = t, .kind = EventKind::kXsPhase, .node = node, .client = client, .seq = seq,
          .a = static_cast<std::uint64_t>(phase), .b = group, .c = pos, .label = intern(proc)});
}

void Tracer::ro_cut(net::Time t, NodeId node, ClientId client, RequestSeq seq,
                    std::uint64_t group, std::uint64_t version, std::uint64_t parts) {
  std::lock_guard<std::mutex> lock(mu_);
  append({.time = t, .kind = EventKind::kRoCut, .node = node, .client = client, .seq = seq,
          .a = group, .b = version, .c = parts});
}

void Tracer::observe(const std::string& name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.histogram(name).observe(value);
}

void Tracer::count(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter(name).add(delta);
}

// ----------------------------------------------------------- JSONL export --

void export_jsonl(const Trace& trace, std::ostream& out) {
  std::string line;
  char buf[256];
  for (const TraceEvent& e : trace.events) {
    line.clear();
    std::snprintf(buf, sizeof(buf),
                  "{\"t\":%llu,\"kind\":\"%s\",\"node\":%u,\"client\":%u,\"seq\":%llu,"
                  "\"a\":%llu,\"b\":%llu,\"c\":%llu",
                  static_cast<unsigned long long>(e.time), to_string(e.kind), e.node.value,
                  e.client.value, static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.a), static_cast<unsigned long long>(e.b),
                  static_cast<unsigned long long>(e.c));
    line += buf;
    if (e.label != 0) {
      line += ",\"label\":\"";
      append_escaped(line, trace.strings[e.label]);
      line += '"';
    }
    line += "}\n";
    out << line;
  }
}

void export_jsonl_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  SHADOW_CHECK_MSG(out.good(), "cannot open trace file for writing: " + path);
  export_jsonl(trace, out);
}

Trace parse_jsonl(std::istream& in) {
  Trace trace;
  std::unordered_map<std::string, std::uint32_t> ids{{"", 0}};
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceEvent e;
    std::string kind_str;
    std::uint64_t v = 0;
    if (!find_string(line, "kind", kind_str) || !kind_from_string(kind_str, e.kind)) {
      throw std::runtime_error("trace line " + std::to_string(lineno) +
                               ": missing or unknown kind");
    }
    if (!find_u64(line, "t", e.time)) {
      throw std::runtime_error("trace line " + std::to_string(lineno) + ": missing time");
    }
    if (find_u64(line, "node", v)) e.node = NodeId{static_cast<std::uint32_t>(v)};
    if (find_u64(line, "client", v)) e.client = ClientId{static_cast<std::uint32_t>(v)};
    find_u64(line, "seq", e.seq);
    find_u64(line, "a", e.a);
    find_u64(line, "b", e.b);
    find_u64(line, "c", e.c);
    if (std::string label; find_string(line, "label", label)) {
      const auto [it, inserted] =
          ids.try_emplace(label, static_cast<std::uint32_t>(trace.strings.size()));
      if (inserted) trace.strings.push_back(label);
      e.label = it->second;
    }
    trace.events.push_back(e);
  }
  return trace;
}

Trace parse_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  SHADOW_CHECK_MSG(in.good(), "cannot open trace file for reading: " + path);
  return parse_jsonl(in);
}

}  // namespace shadow::obs
