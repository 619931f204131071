// The total order broadcast service.
//
// The paper's TOB service is the formally generated core of ShadowDB: it
// guarantees that all participating processes deliver the same messages in
// the same order (Défago et al.'s total order broadcast), builds on a
// pluggable consensus module (TwoThird or the Paxos Synod), and batches —
// "multiple messages can be bundled in one Paxos proposal".
//
// Protocol per node:
//   * clients (or replicas) send `tob-broadcast{Command}` to any service node;
//   * the receiving node buffers the command and proposes a batch of pending
//     commands for the next free slot once the batching window closes;
//   * on a slot decision, commands are delivered in slot order: pushed to
//     local subscribers, and the origin node sends a `tob-ack` to the
//     command's original sender; the slot's decision is then forgotten and
//     the new delivery frontier is reported to the consensus module, which
//     forgets what every peer has delivered (consensus/paxos.hpp);
//   * commands whose proposal lost a slot race stay pending and are proposed
//     again for a later slot (no loss); delivered commands are deduplicated
//     (no duplication).
//
// Deduplication keeps one window per client: the runs of that client's
// delivered sequence numbers (or those a rejoin snapshot covers). A client
// numbers its requests consecutively, so its window is one run whose end
// advances with each delivery; an out-of-order delivery or a sparse control
// seq (a rejoin request is numbered by wall-clock µs) adds a run, and runs
// merge as the gaps between them close. A command is a duplicate if and
// only if its seq lies in its client's window. Nothing else is kept per
// delivered command, so the node's memory follows what is in flight, not
// the length of its history.
//
// Total order, no-creation, no-duplication and agreement on the log prefix
// are machine-checked by tests that record deliveries through
// subscribe_local() and run loe::check_prefix_consistency.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "consensus/module.hpp"
#include "consensus/paxos.hpp"
#include "consensus/two_third.hpp"

namespace shadow::obs {
class Tracer;
}  // namespace shadow::obs

namespace shadow::tob {

using consensus::Batch;
using consensus::BatchBuilder;
using consensus::Command;
using consensus::EncodedBatch;

/// Message headers of the service's external interface.
inline constexpr const char* kBroadcastHeader = "tob-broadcast";
inline constexpr const char* kAckHeader = "tob-ack";
/// Internal: commands forwarded from a frontend to the preferred proposer.
inline constexpr const char* kRelayHeader = "tob-relay";

/// Body of tob-broadcast messages.
struct BroadcastBody {
  Command command;
};

/// Body of tob-ack (delivery notification to the broadcaster).
struct AckBody {
  ClientId client{};
  RequestSeq seq = 0;
  Slot slot = 0;
};

/// Body of tob-relay: commands relayed from a non-proposing service node to
/// the protocol's preferred proposer (the Paxos leader). The commands travel
/// as one encoded sub-frame — this is THE encode of their batch lifetime;
/// the leader copies the same bytes into its proposal — with the original
/// senders alongside (origins[i] broadcast batch commands()[i] to us) so the
/// delivery notification still reaches them.
struct RelayBody {
  EncodedBatch batch;
  std::vector<NodeId> origins;
};

enum class Protocol : std::uint8_t { kPaxos, kTwoThird };

struct TobConfig {
  std::vector<NodeId> nodes;  // the broadcast service replicas
  Protocol protocol = Protocol::kPaxos;
  consensus::ExecProfile profile{.program_work = consensus::kBroadcastProgramWork};
  consensus::PaxosConfig paxos;        // peers filled from `nodes` if empty
  consensus::TwoThirdConfig two_third; // peers filled from `nodes` if empty
  std::size_t batch_max = 64;       // commands per proposal
  net::Time batch_delay = 0;        // optional extra linger for batching, µs
  /// Load-adaptive batch sizing: the proposal cap starts at one command and
  /// doubles (up to `batch_max`) while the backlog — pending commands,
  /// queued relayed units, and whatever set_backlog_probe() reports (the
  /// executor pipeline's queue depth) — exceeds it, then halves back toward
  /// one when the backlog drains below a quarter of the cap. Grows batches
  /// under load, shrinks toward single-command latency when idle. The live
  /// cap is exported as the `net.batch_size_adaptive` histogram.
  bool adaptive_batching = false;
  net::Time tick_period = 5000;     // µs driver for consensus timeouts
  net::Time relay_timeout = 500000; // relayed commands not delivered by then
                                    // are proposed locally (leader may be dead)
  obs::Tracer* tracer = nullptr;    // optional structured trace recorder
  /// Prefix for this service's metric names ("group.<id>." in sharded
  /// deployments, so N groups in one process don't collapse into one
  /// counter; empty — the classic names — otherwise).
  std::string metric_scope;
};

/// One node of the broadcast service. Construct one per NodeId in
/// TobConfig::nodes, all sharing the same config.
class TobNode {
 public:
  using LocalDeliverFn = std::function<void(net::NodeContext&, Slot, std::uint64_t, const Command&)>;
  /// Whole-slot local delivery: (ctx, slot, base_index, batch) where the
  /// i-th command of `batch` has global delivery index `base_index + i`.
  using LocalDeliverBatchFn =
      std::function<void(net::NodeContext&, Slot, std::uint64_t, const EncodedBatch&)>;

  TobNode(net::Transport& world, NodeId self, TobConfig config);

  /// Local subscriber (e.g. a co-located SMR database replica).
  void subscribe_local(LocalDeliverFn fn) { local_subscriber_ = std::move(fn); }

  /// Whole-slot local subscriber: one call per decided slot, carrying the
  /// decided `EncodedBatch` by reference (no re-encode) so a pipelined
  /// replica can hand it across its executor thread boundary by reference.
  /// Per-command dedup/ack/log bookkeeping still happens here first.
  void subscribe_local_batch(LocalDeliverBatchFn fn) { batch_subscriber_ = std::move(fn); }

  /// Adaptive batching's view of downstream congestion: called (on the
  /// consensus thread) each time a proposal is sized; typically wired to the
  /// local replica's executor-pipeline queue depth.
  void set_backlog_probe(std::function<std::size_t()> probe) {
    backlog_probe_ = std::move(probe);
  }

  /// The live adaptive proposal cap (== batch_max when adaptation is off).
  std::size_t batch_limit() const { return batch_limit_; }

  /// Commands delivered since the last rejoin (since construction if none).
  std::uint64_t delivered_count() const { return delivered_count_; }
  /// Retained-state gauges: decided slots not yet delivered, and the runs
  /// held by all clients' dedup windows.
  std::size_t retained_decisions() const { return decisions_.size(); }
  std::size_t dedup_runs() const;
  NodeId node() const { return self_; }
  consensus::ConsensusModule& module() { return *module_; }

  // -- crash-restart rejoin ---------------------------------------------------
  //
  // A freshly restarted process reconstructs an empty TobNode, but the
  // cluster's delivery log has moved on. The co-located replica fetches a
  // database snapshot from a live peer, then resumes this node at the
  // snapshot's position: delivery (and proposing) stay paused until the
  // snapshot arrives, so the replica never observes commands the snapshot
  // already covers.

  /// Where a snapshot leaves off: the first slot still to deliver, the
  /// global delivery index that slot's first fresh command gets, the
  /// per-client delivered-sequence floor (every (client, seq<=floor[client])
  /// is already covered by the snapshot), and the exact keys of delivered
  /// control commands (reconfig/rejoin), which use fresh client ids per
  /// incarnation and therefore cannot be floored. Both feed the dedup
  /// windows.
  struct ResumePoint {
    Slot slot = 0;
    std::uint64_t index_base = 0;
    std::vector<std::pair<std::uint32_t, RequestSeq>> floor;
    std::vector<std::pair<std::uint32_t, RequestSeq>> control_keys;
  };

  /// Suspends delivery until resume_from; call before requesting the
  /// snapshot. Consensus keeps answering (acceptor state must stay live for
  /// quorums). With `keep_ordering` (a resync: the log is live) the node
  /// also keeps ticking its consensus module and proposing, so a Paxos
  /// leader does not stall its group; without it (a restarted process, an
  /// empty log) both wait for resume_from too.
  void pause_for_rejoin(bool keep_ordering);

  /// Installs the snapshot's resume point and un-pauses. Decided slots below
  /// `rp.slot` are discarded (the snapshot covers them; their commands still
  /// pending here retire with an ack); delivery restarts at `rp.slot` with
  /// indices continuing from `rp.index_base`.
  void resume_from(const ResumePoint& rp);

 private:
  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_broadcast(net::NodeContext& ctx, const Command& cmd, NodeId from);
  void on_relay(net::NodeContext& ctx, const RelayBody& body);
  void on_decide(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch);
  void maybe_propose(net::NodeContext& ctx);
  void deliver_ready(net::NodeContext& ctx);
  void arm_tick(net::NodeContext& ctx);

  /// One client's delivered seqs as disjoint, non-touching runs
  /// [first, end), keyed by first.
  struct DedupWindow {
    std::map<RequestSeq, RequestSeq> runs;
    bool contains(RequestSeq seq) const;
    /// Adds [first, end), merging every run it touches.
    void add(RequestSeq first, RequestSeq end);
  };
  /// Delivered here, or covered by the snapshot we rejoined from.
  bool already_delivered(const std::pair<std::uint32_t, RequestSeq>& key) const;
  /// Ack (unless relayed away) and drop the pending entry for a command that
  /// turned out to be already delivered elsewhere.
  void ack_and_retire_pending(net::NodeContext& ctx,
                              const std::pair<std::uint32_t, RequestSeq>& key, Slot slot);

  net::Transport& world_;
  NodeId self_;
  TobConfig config_;
  std::unique_ptr<consensus::ConsensusModule> module_;

  struct PendingCommand {
    Command command;
    NodeId origin{};       // who sent the broadcast to us (gets the ack)
    bool in_flight = false;
    net::Time relayed_at = 0;   // 0 = not currently relayed to the leader
    bool relay_expired = false; // relay timed out: propose locally instead
  };
  std::deque<PendingCommand> pending_;

  /// A relayed sub-frame waiting to be folded into a proposal. The unit's
  /// commands also sit in pending_ (marked in_flight) for dedup/ack
  /// bookkeeping; the unit itself preserves the received bytes so the
  /// proposal re-uses them instead of re-encoding.
  struct RelayedUnit {
    EncodedBatch batch;
    std::vector<NodeId> origins;
  };
  std::deque<RelayedUnit> relayed_units_;

  std::map<Slot, EncodedBatch> outstanding_;  // our proposals awaiting decision
  std::map<Slot, EncodedBatch> decisions_;    // decided, possibly not yet delivered
  Slot next_deliver_slot_ = 0;
  Slot next_propose_slot_ = 0;
  net::Time oldest_pending_since_ = 0;

  std::unordered_map<std::uint32_t, DedupWindow> dedup_;  // per client
  std::uint64_t delivered_count_ = 0;  // since index_base_
  // -- rejoin state (see pause_for_rejoin/resume_from) -----------------------
  bool paused_ = false;            // delivery suspended
  bool hold_proposals_ = false;    // proposing and consensus ticks suspended too
  std::uint64_t index_base_ = 0;   // global index of the first command delivered since rejoin
  LocalDeliverFn local_subscriber_;
  LocalDeliverBatchFn batch_subscriber_;
  std::function<std::size_t()> backlog_probe_;
  std::size_t batch_limit_ = 0;  // live adaptive cap, set in the constructor
  std::string adaptive_metric_;  // metric_scope + "net.batch_size_adaptive"
  std::string encode_metric_;    // metric_scope + "net.batch_encode_count"
  bool tick_armed_ = false;
};

/// Convenience: builds the service on `machines.size()` nodes, one per
/// machine (co-location with databases is done by passing shared machines).
struct TobService {
  std::vector<std::unique_ptr<TobNode>> nodes;

  TobNode& operator[](std::size_t i) { return *nodes[i]; }
  std::size_t size() const { return nodes.size(); }
};

TobService make_service(net::Transport& world, const TobConfig& config);

}  // namespace shadow::tob

namespace shadow::wire {

template <>
struct Codec<tob::BroadcastBody> : Fields<&tob::BroadcastBody::command> {};

template <>
struct Codec<tob::AckBody>
    : Fields<&tob::AckBody::client, &tob::AckBody::seq, &tob::AckBody::slot> {};

template <>
struct Codec<tob::RelayBody> : Fields<&tob::RelayBody::batch, &tob::RelayBody::origins> {};

}  // namespace shadow::wire
