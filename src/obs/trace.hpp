// Structured execution tracing for ShadowDB runs.
//
// A Tracer records a single deterministic execution as a bounded ring buffer
// of typed events — message send/deliver, TOB broadcast/propose/decide/
// deliver, consensus ballot/round transitions, transaction begin/execute/ack,
// replica crash/recover, and state-transfer traffic — and derives per-
// component metrics (counters + latency histograms) from the same stream.
// The trace exports to JSON lines; src/obs/checker.* replays an exported (or
// in-memory) trace and verifies total order, at-most-once, and strict
// serializability offline, and the consensus safety properties (agreement,
// validity, integrity, and the Paxos acceptor invariants) from the propose,
// decide, promise and accept events. The event schema and the field meaning
// per kind are documented in src/obs/README.md.
//
// Layering: obs depends only on common + net (it observes any
// net::Transport — the simulator or the TCP backend). Protocol components receive an
// optional `Tracer*` through their config structs and record through the
// typed hooks below; a null tracer costs one branch per hook site.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "net/transport.hpp"

namespace shadow::obs {

enum class EventKind : std::uint8_t {
  kMsgSend,        // node=from, a=to, b=wire bytes, label=header
  kMsgDeliver,     // node=to, a=from, label=header
  kMsgDrop,        // node=from, a=to, b=wire bytes, c=wire::FrameStatus, label=header
  kTobBroadcast,   // node=frontend, client/seq of the command
  kTobPropose,     // node, a=slot, b=batch size, c=batch digest
  kTobDecide,      // node, a=slot, b=batch size, c=batch digest
  kTobDeliver,     // node, client/seq, a=slot, b=global delivery index
  kBallot,         // node, a=round, b=leader node, c=phase (BallotPhase)
  kRound,          // node, a=slot, b=round reached
  kTxnBegin,       // node=client node, client/seq, label=procedure
  kTxnExecute,     // node=replica, client/seq, a=order, b=duplicate, c=committed, label=proc
  kTxnAck,         // node=client node, client/seq, a=committed, b=latency µs
  kCrash,          // node
  kRecover,        // node, a=order/index recovered up to
  kStateTransfer,  // node, a=phase (StatePhase), b=bytes, c=peer node
  kGroupInfo,      // node, a=replication group id, b=restart epoch
  kXsPhase,        // node, client/seq, a=phase (XsPhase), b=group id,
                   // c=apply position (engine state version; 0 = unrecorded),
                   // label=proc
  kRoCut,          // node=client node, client/seq, a=group id, b=read version
                   // chosen for that group, c=cut size (participant groups)
  kPromise,        // node=acceptor, a=ballot (ballot_key), b=acceptor count
  kAccept,         // node=acceptor, a=slot, b=ballot (ballot_key), c=batch digest
};

enum class BallotPhase : std::uint8_t { kScout = 0, kAdopted = 1, kPreempted = 2 };
enum class StatePhase : std::uint8_t { kBegin = 0, kBatch = 1, kDone = 2 };
/// Cross-shard two-phase-commit lifecycle as observed by a participant
/// replica (core/twopc.hpp): prepared (locks held, vote cast), then the
/// coordinator's decision applied as commit or abort.
enum class XsPhase : std::uint8_t { kPrepare = 0, kCommit = 1, kAbort = 2 };

/// Order value for kTxnExecute events that carry no position in the replica's
/// execution order (chain-replication tail reads, answers served straight
/// from the dedup table). The checker counts them for at-most-once and
/// durability but not for order agreement or serializability positions.
inline constexpr std::uint64_t kUnordered = ~std::uint64_t{0};

const char* to_string(EventKind kind);

/// A Paxos ballot (round, leader) as one integer whose order is the ballot
/// order: round * 2^32 + leader node. Rounds grow by one per scout, far
/// below 2^32.
inline std::uint64_t ballot_key(std::uint64_t round, NodeId leader) {
  return round << 32 | leader.value;
}

struct TraceEvent {
  net::Time time = 0;
  EventKind kind = EventKind::kMsgSend;
  NodeId node{};
  ClientId client{};
  RequestSeq seq = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t label = 0;  // index into Trace::strings (0 = empty)
  /// Which input of merge_traces the event came from (0 otherwise; not
  /// exported): one trace generation is one process incarnation.
  std::uint32_t gen = 0;
};

/// A self-contained recorded execution: the event stream plus the interned
/// string table the events' `label` fields index into.
struct Trace {
  std::vector<TraceEvent> events;
  std::vector<std::string> strings{""};  // strings[0] is the empty label
  std::uint64_t dropped = 0;             // events lost to the ring buffer cap

  const std::string& label_of(const TraceEvent& e) const { return strings[e.label]; }
};

/// Serializes one event per line as JSON ({"t":..,"kind":"..",...}).
void export_jsonl(const Trace& trace, std::ostream& out);
void export_jsonl_file(const Trace& trace, const std::string& path);

/// Parses a trace produced by export_jsonl. Unknown keys are ignored;
/// malformed lines throw std::runtime_error with the line number.
Trace parse_jsonl(std::istream& in);
Trace parse_jsonl_file(const std::string& path);

struct TracerOptions {
  std::size_t capacity = 1 << 20;  // ring buffer size, events
  /// Record raw network send/deliver events. They dominate trace volume;
  /// protocol- and transaction-level events alone suffice for the checker.
  bool record_messages = true;
};

/// Records events and derives metrics. Attach to a net::Transport to capture
/// network-level send/deliver/crash automatically; protocol components call
/// the typed hooks through the `Tracer*` in their configs.
///
/// Thread safety: every recording hook (the TransportObserver overrides, the
/// typed tob_*/txn_*/ballot/... methods, observe()/count()), snapshot() and
/// sync_batch_stats() lock an internal mutex, so one Tracer may be fed from
/// a pipelined node's I/O, consensus, and executor threads concurrently.
/// The unsynchronized escape hatch is metrics(): it hands out references
/// into the registry, so call it only after the run has quiesced (threads
/// joined or known idle), or use the locked observe()/count() helpers while
/// stages are live.
class Tracer final : public net::TransportObserver {
 public:
  explicit Tracer(TracerOptions options = {});

  /// Subscribes to the transport's send/deliver/crash observer hooks.
  void attach(net::Transport& transport) { transport.add_observer(this); }

  // -- TransportObserver ----------------------------------------------------
  void on_send(net::Time t, NodeId from, NodeId to, const net::Message& m) override;
  void on_deliver(net::Time t, NodeId to, const net::Message& m) override;
  void on_crash(net::Time t, NodeId node) override;
  void on_wire_drop(net::Time t, NodeId from, NodeId to, const std::string& header,
                    std::size_t wire_size, wire::FrameStatus reason) override;
  /// Counts outgoing frames as `net.encode_count`: one per send, one per
  /// multicast fan-out (whose destinations share the one frame buffer).
  void on_frame_sent(net::Time t, const net::Message& m) override;
  /// TCP peer lifecycle → net.peer_down_total / net.peer_up_total (with a
  /// net.peer_downtime_us histogram) / net.reconnect_attempts.
  void on_peer_down(net::Time t, net::HostId peer) override;
  void on_peer_up(net::Time t, net::HostId peer, net::Time downtime) override;
  void on_reconnect_attempt(net::Time t, net::HostId peer, std::uint64_t attempt,
                            net::Time backoff) override;

  // -- broadcast service ----------------------------------------------------
  void tob_broadcast(net::Time t, NodeId node, ClientId client, RequestSeq seq);
  /// `digest` identifies the batch's encoded bytes (EncodedBatch::digest).
  void tob_propose(net::Time t, NodeId node, Slot slot, std::size_t batch_size,
                   std::uint64_t digest);
  void tob_decide(net::Time t, NodeId node, Slot slot, std::size_t batch_size,
                  std::uint64_t digest);
  void tob_deliver(net::Time t, NodeId node, Slot slot, std::uint64_t index, ClientId client,
                   RequestSeq seq);

  // -- consensus ------------------------------------------------------------
  void ballot(net::Time t, NodeId node, std::uint64_t round, NodeId leader, BallotPhase phase);
  void round(net::Time t, NodeId node, Slot slot, std::uint64_t round);
  /// A Paxos acceptor raised its promise to ballot (round, leader);
  /// `acceptors` is the synod size its configuration names (the quorum the
  /// checker uses comes from it, never from the nodes a trace contains).
  void promise(net::Time t, NodeId acceptor, std::uint64_t round, NodeId leader,
               std::size_t acceptors);
  /// A Paxos acceptor accepted a pvalue: ballot (round, leader) for `slot`.
  void accept(net::Time t, NodeId acceptor, Slot slot, std::uint64_t round, NodeId leader,
              std::uint64_t digest);

  // -- transactions ---------------------------------------------------------
  void txn_begin(net::Time t, NodeId node, ClientId client, RequestSeq seq,
                 const std::string& proc);
  void txn_execute(net::Time t, NodeId node, ClientId client, RequestSeq seq,
                   std::uint64_t order, bool duplicate, bool committed,
                   const std::string& proc);
  void txn_ack(net::Time t, NodeId node, ClientId client, RequestSeq seq, bool committed);

  // -- replica lifecycle / state transfer -----------------------------------
  void recover(net::Time t, NodeId node, std::uint64_t up_to_order);
  void state_transfer(net::Time t, NodeId node, StatePhase phase, std::uint64_t bytes,
                      NodeId peer);

  // -- sharded deployments ---------------------------------------------------
  /// Declares a node's replication group (and restart epoch) so the offline
  /// checker can split merged multi-group traces per group. Emitted once per
  /// node by the sharded assembly; traces without group_info events are
  /// treated as one group (id 0).
  void group_info(net::Time t, NodeId node, std::uint64_t group, std::uint64_t epoch);
  /// Cross-shard 2PC lifecycle: a participant replica prepared / committed /
  /// aborted the transaction in its own group's log. `pos` is the replica's
  /// engine state version when the decision applied (0 for prepares and for
  /// callers that predate versioned storage) — the snapshot-read check uses
  /// it to decide whether a read-only cut includes this transaction.
  void xs_phase(net::Time t, NodeId node, ClientId client, RequestSeq seq, XsPhase phase,
                std::uint64_t group, const std::string& proc, std::uint64_t pos = 0);
  /// The per-group read-version vector a read-only transaction executed at
  /// (one event per participant group). Emitted by the client once the
  /// snapshot read succeeds; the offline checker verifies the cut is
  /// prefix-consistent against every committed cross-shard transaction.
  void ro_cut(net::Time t, NodeId node, ClientId client, RequestSeq seq, std::uint64_t group,
              std::uint64_t version, std::uint64_t parts);

  // -- thread-safe metric helpers --------------------------------------------
  /// Locked histogram observation / counter bump for callers on pipeline
  /// stage threads (metrics() itself is reference-returning and therefore
  /// only safe on a quiesced tracer).
  void observe(const std::string& name, std::uint64_t value);
  void count(const std::string& name, std::uint64_t delta = 1);

  /// Folds the process-wide batch counters (splice_stats()) into this
  /// tracer's metrics as net.batch_encode_count / net.batch_bytes_copied,
  /// counting only the deltas accrued since this tracer was constructed (or
  /// last synced). Call before reading/printing metrics; idempotent between
  /// accruals.
  void sync_batch_stats();

  /// Events recorded so far, oldest first (materializes the ring buffer).
  Trace snapshot() const;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return unlocked_dropped();
  }

 private:
  void append(TraceEvent e);  // caller holds mu_
  std::uint32_t intern(const std::string& s);  // caller holds mu_
  std::uint64_t unlocked_dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  /// One lock for everything: the ring, the string table, the metrics
  /// registry, and the derived-metric maps. Recording is a few map lookups
  /// and a vector write — contention is negligible next to a socket hop.
  mutable std::mutex mu_;
  TracerOptions options_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;          // next write position once the ring is full
  std::uint64_t recorded_ = 0;    // total appended (>= ring_.size() on overflow)
  std::vector<std::string> strings_{""};
  std::unordered_map<std::string, std::uint32_t> string_ids_{{"", 0}};

  MetricsRegistry metrics_;
  // Snapshot of the process-wide batch counters at construction / last
  // sync, so concurrent tracers each report only their own window.
  SpliceStats batch_stats_baseline_;
  // Derived-metric state: first propose / first decide per slot, and the
  // first submission time per (client, seq) for end-to-end ack latency.
  std::unordered_map<std::uint64_t, net::Time> slot_proposed_at_;
  std::unordered_map<std::uint64_t, net::Time> slot_decided_at_;
  std::map<std::pair<std::uint32_t, RequestSeq>, net::Time> txn_begun_at_;
};

}  // namespace shadow::obs
