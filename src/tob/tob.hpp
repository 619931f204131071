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
//   * on a slot decision, commands are delivered in slot order: appended to
//     the local delivery log, pushed to local/remote subscribers, and the
//     origin node sends a `tob-ack` to the command's original sender;
//   * commands whose proposal lost a slot race stay pending and are proposed
//     again for a later slot (no loss); delivered commands are deduplicated
//     (no duplication).
//
// Total order, no-creation, no-duplication and agreement on the log prefix
// are machine-checked by tests via delivery_log() + loe::check_prefix_consistency.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
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
inline constexpr const char* kDeliverHeader = "tob-deliver";
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

/// Body of tob-deliver (push to remote subscribers): one message per decided
/// slot, carrying the delivered commands as the original encoded sub-frame
/// (the i-th command in `batch` has global delivery index `base_index + i`).
struct DeliverBody {
  Slot slot = 0;
  std::uint64_t base_index = 0;  // global delivery index of batch[0]
  EncodedBatch batch;
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
  std::size_t batch_max = 64;
  std::size_t max_outstanding = 1;  // proposals in flight per node (natural batching)
  net::Time batch_delay = 0;        // optional extra linger for batching, µs
  /// Load-adaptive batch sizing: the proposal cap starts at `batch_min` and
  /// doubles (up to `batch_max`) while the backlog — pending commands,
  /// queued relayed units, and whatever set_backlog_probe() reports (the
  /// executor pipeline's queue depth) — exceeds it, then halves back toward
  /// `batch_min` when the backlog drains below a quarter of the cap. Grows
  /// batches under load, shrinks toward single-command latency when idle.
  /// The live cap is exported as the `net.batch_size_adaptive` histogram.
  bool adaptive_batching = false;
  std::size_t batch_min = 1;
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
/// TobConfig::nodes, all sharing the same config and SafetyRecorder.
class TobNode {
 public:
  using LocalDeliverFn = std::function<void(net::NodeContext&, Slot, std::uint64_t, const Command&)>;
  /// Whole-slot local delivery: (ctx, slot, base_index, batch) where the
  /// i-th command of `batch` has global delivery index `base_index + i`.
  using LocalDeliverBatchFn =
      std::function<void(net::NodeContext&, Slot, std::uint64_t, const EncodedBatch&)>;

  TobNode(net::Transport& world, NodeId self, TobConfig config,
          consensus::SafetyRecorder* safety = nullptr);

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

  /// Remote subscriber: receives tob-deliver messages for every delivery.
  void add_remote_subscriber(NodeId node) { remote_subscribers_.push_back(node); }

  const std::vector<Command>& delivery_log() const { return delivery_log_; }
  std::uint64_t delivered_count() const { return delivery_log_.size(); }
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
  /// incarnation and therefore cannot be floored.
  struct ResumePoint {
    Slot slot = 0;
    std::uint64_t index_base = 0;
    std::vector<std::pair<std::uint32_t, RequestSeq>> floor;
    std::vector<std::pair<std::uint32_t, RequestSeq>> control_keys;
  };

  /// Suspends delivery and proposing (consensus keeps answering — acceptor
  /// state must stay live for quorums). Call before requesting the snapshot.
  void pause_for_rejoin();

  /// Installs the snapshot's resume point and un-pauses. Decided slots below
  /// `rp.slot` are discarded (the snapshot covers them); delivery restarts
  /// at `rp.slot` with indices continuing from `rp.index_base`.
  void resume_from(const ResumePoint& rp);

 private:
  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_broadcast(net::NodeContext& ctx, const Command& cmd, NodeId from);
  void on_relay(net::NodeContext& ctx, const RelayBody& body);
  void on_decide(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch);
  void maybe_propose(net::NodeContext& ctx);
  void deliver_ready(net::NodeContext& ctx);
  void arm_tick(net::NodeContext& ctx);

  /// Whether the snapshot we rejoined from already covers this command.
  bool floored(const std::pair<std::uint32_t, RequestSeq>& key) const {
    auto it = delivered_floor_.find(key.first);
    return it != delivered_floor_.end() && key.second <= it->second;
  }
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

  std::set<std::pair<std::uint32_t, RequestSeq>> delivered_keys_;  // dedup guard
  std::vector<Command> delivery_log_;
  // -- rejoin state (see pause_for_rejoin/resume_from) -----------------------
  bool paused_ = false;            // delivery + proposing suspended
  std::uint64_t index_base_ = 0;   // global index of delivery_log_[0]
  std::map<std::uint32_t, RequestSeq> delivered_floor_;  // snapshot dedup floor
  LocalDeliverFn local_subscriber_;
  LocalDeliverBatchFn batch_subscriber_;
  std::function<std::size_t()> backlog_probe_;
  std::size_t batch_limit_ = 0;  // live adaptive cap, set in the constructor
  std::string adaptive_metric_;  // metric_scope + "net.batch_size_adaptive"
  std::string encode_metric_;    // metric_scope + "net.batch_encode_count"
  std::vector<NodeId> remote_subscribers_;
  bool tick_armed_ = false;
};

/// Convenience: builds the service on `machines.size()` nodes, one per
/// machine (co-location with databases is done by passing shared machines).
struct TobService {
  std::vector<std::unique_ptr<TobNode>> nodes;

  TobNode& operator[](std::size_t i) { return *nodes[i]; }
  std::size_t size() const { return nodes.size(); }
};

TobService make_service(net::Transport& world, const TobConfig& config,
                        consensus::SafetyRecorder* safety = nullptr);

}  // namespace shadow::tob

namespace shadow::wire {

template <>
struct Codec<tob::BroadcastBody> {
  static void encode(BytesWriter& w, const tob::BroadcastBody& v) {
    Codec<tob::Command>::encode(w, v.command);
  }
  static tob::BroadcastBody decode(BytesReader& r) {
    return {Codec<tob::Command>::decode(r)};
  }
};

template <>
struct Codec<tob::AckBody> {
  static void encode(BytesWriter& w, const tob::AckBody& v) {
    w.u32(v.client.value);
    w.u64(v.seq);
    w.u64(v.slot);
  }
  static tob::AckBody decode(BytesReader& r) {
    tob::AckBody v;
    v.client = ClientId{r.u32()};
    v.seq = r.u64();
    v.slot = r.u64();
    return v;
  }
};

template <>
struct Codec<tob::DeliverBody> {
  static void encode(BytesWriter& w, const tob::DeliverBody& v) {
    w.u64(v.slot);
    w.u64(v.base_index);
    Codec<tob::EncodedBatch>::encode(w, v.batch);
  }
  static tob::DeliverBody decode(BytesReader& r) {
    tob::DeliverBody v;
    v.slot = r.u64();
    v.base_index = r.u64();
    v.batch = Codec<tob::EncodedBatch>::decode(r);
    return v;
  }
};

template <>
struct Codec<tob::RelayBody> {
  static void encode(BytesWriter& w, const tob::RelayBody& v) {
    Codec<tob::EncodedBatch>::encode(w, v.batch);
    Codec<std::vector<NodeId>>::encode(w, v.origins);
  }
  static tob::RelayBody decode(BytesReader& r) {
    tob::RelayBody v;
    v.batch = Codec<tob::EncodedBatch>::decode(r);
    v.origins = Codec<std::vector<NodeId>>::decode(r);
    return v;
  }
};

}  // namespace shadow::wire
