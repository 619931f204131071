// ShadowDB — state machine replication (Sec. III-B).
//
// All transactions are ordered by the total order broadcast service: the
// client broadcasts T, every database replica executes T in delivery order
// and answers, and the client keeps the first answer. A replica crash is
// transparent while at least one replica survives. On suspicion, a replica
// snapshots its database and broadcasts a reconfiguration request (carrying
// the last ordered sequence number, not the snapshot); the replacement
// replica fetches the snapshot from the proposer and buffers deliveries that
// arrive while the transfer is in progress. Spare promotion, crash-restart
// rejoin and a migration laggard's resync all receive through one
// repl::FetchSession, and one HeartbeatDetector is the replica's view of its
// peers' liveness.
//
// Replicas are co-located with the broadcast service processes (same
// simulated machine), so transaction execution competes with Paxos for CPU —
// the effect that bounds ShadowDB-SMR's micro-benchmark throughput in
// Fig. 9(a).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/client_ids.hpp"
#include "core/heartbeat.hpp"
#include "core/pipeline.hpp"
#include "core/replica_common.hpp"
#include "core/router.hpp"
#include "repl/state_transfer.hpp"
#include "tob/tob.hpp"

namespace shadow::core {

class XsCoordinator;  // core/twopc.hpp
class RangeMigrator;  // core/migrate.hpp
class RoServer;       // core/rosnap.hpp
class RoutingView;    // core/router.hpp

inline constexpr const char* kSmrReconfigProc = "::smr-reconfig";
/// Crash-restart rejoin request: params = [joiner node, snapshot proposer,
/// joiner's engine state version (0: no usable base)].
inline constexpr const char* kSmrRejoinProc = "::smr-rejoin";
/// Spare promotion: the replacement pulls the snapshot stream
/// (core/replica_common.hpp) from the reconfiguration's proposer.
inline constexpr const char* kSnapRequestHeader = "smr-snap-req";
inline constexpr const char* kSmrDeliverHeader = "smr-deliver";
inline constexpr const char* kSmrDeliverBatchHeader = "smr-deliver-batch";

/// Control commands (reconfigurations, rejoins) are broadcast under the
/// synthetic client-id spaces of core/client_ids.hpp, all at or above
/// kControlClientBit.

struct SmrConfig {
  net::Time hb_period = 1000000;        // 1 s heartbeats between replicas
  net::Time suspect_timeout = 10000000; // 10 s detection (paper's Fig. 10 setting)
  std::size_t snapshot_batch_bytes = 50 * 1024;
  /// Execute transactions on a dedicated DB executor thread, fed decided
  /// batches through a bounded SPSC ring (see core/pipeline.hpp). Only
  /// meaningful on a transport whose event loop may run concurrently with
  /// other threads (TcpTransport in pipelined mode); the simulator stays
  /// single-threaded and must leave this off.
  bool pipelined_execution = false;
  /// Block-compress snapshot frames (rejoin, spare promotion, migration).
  /// Off by default: compression trades sender/receiver CPU for wire volume.
  bool transfer_compression = false;
  obs::Tracer* tracer = nullptr;        // optional structured trace recorder

  /// Sharded deployments (core/group.hpp): which replication group this
  /// replica belongs to and the shared router. A router with more than one
  /// shard arms the replica's cross-shard 2PC engine (core/twopc.hpp);
  /// classic single-group clusters leave it null and behave exactly as
  /// before.
  const ShardRouter* router = nullptr;
  GroupId group = 0;
  /// Prefix for this replica's pipeline metrics ("group.<id>." when sharded,
  /// empty — the classic names — otherwise).
  std::string metric_scope;
};

/// One SMR database replica. `tob` must be the co-located broadcast-service
/// node (same machine); the replica subscribes to its local deliveries.
/// `group_tobs` lists the group's TOB nodes (one per machine): a rejoin
/// broadcasts through the one co-located with the replica serving it.
class SmrReplica {
 public:
  SmrReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
             std::shared_ptr<db::Engine> engine,
             std::shared_ptr<const workload::ProcedureRegistry> registry,
             std::vector<NodeId> replica_group, std::vector<NodeId> spares,
             std::vector<NodeId> group_tobs, SmrConfig config = {}, ServerCosts costs = {});
  ~SmrReplica();  // out of line: XsCoordinator/RangeMigrator are incomplete here

  NodeId node() const { return self_; }
  bool active() const { return active_; }
  std::uint64_t executed() const { return executor_.executed_count(); }
  std::uint64_t state_digest() const { return executor_.engine().state_digest(); }
  const std::vector<NodeId>& group() const { return group_; }
  db::Engine& engine() { return executor_.engine(); }

  /// Pre-provisioned spare: knows the group but is passive until a
  /// reconfiguration names it. Spares watch deliveries through their
  /// co-located TOB node from the start (they discard transaction commands
  /// until activated).
  void make_spare() { active_ = false; }

  /// Pipelined mode only: decided batches handed to the executor thread but
  /// not yet executed (what adaptive batching probes as backlog).
  std::size_t pipeline_depth() const { return pipeline_ ? pipeline_->queue_depth() : 0; }

  /// Pipelined mode only: block until the executor thread has applied every
  /// delivered batch and all responses are posted. Benchmarks and tests call
  /// this before reading executed()/state_digest() while the loop is paused.
  void quiesce() {
    if (pipeline_) pipeline_->flush();
  }

  /// Crash-restart recovery: a freshly restarted process calls this on its
  /// own (reconstructed, empty) replica. The replica pauses its co-located
  /// TOB node and broadcasts a ::smr-rejoin request naming `proposer` as the
  /// serving replica through `via_tob` (a live peer's TOB node — never its
  /// own, which is paused and would not propose it). While no stream
  /// arrives, every retry takes a fresh seq and rotates the serving replica
  /// and its co-located TOB frontend over the group's live members, so a
  /// dead `proposer` or `via_tob` only costs a retry. On the snapshot stream
  /// the replica restores the database, resumes the TOB node at the
  /// snapshot's slot/index, and goes active. `seq` must be unique across
  /// this node's restart incarnations (the cluster deduplicates rejoin
  /// requests by exact (client, seq) key).
  void start_rejoin(NodeId via_tob, NodeId proposer, RequestSeq seq);

  /// Full self-resync of an active replica (the migration laggard path,
  /// core/migrate.hpp): a rejoin served by a live group peer.
  void resync();

  /// The replica's view of its peers' liveness (SMR heartbeats).
  const HeartbeatDetector& detector() const { return hb_; }

 private:
  /// start_rejoin and resync: `live_log` (a resync) keeps the TOB node
  /// ordering while its delivery is paused.
  void begin_rejoin(NodeId via_tob, NodeId proposer, RequestSeq seq, bool live_log);
  void on_deliver(net::NodeContext& ctx, Slot slot, std::uint64_t index,
                  const tob::Command& cmd);
  void on_deliver_batch(net::NodeContext& ctx, Slot slot, std::uint64_t base_index,
                        const consensus::EncodedBatch& batch);
  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_heartbeat_tick(net::NodeContext& ctx);
  /// Proposes replacing `suspect` with the first spare outside the group.
  void propose_replacement(net::NodeContext& ctx, NodeId suspect);
  void handle_reconfig(net::NodeContext& ctx, const workload::TxnRequest& req);
  void handle_rejoin(net::NodeContext& ctx, const workload::TxnRequest& req, Slot slot,
                     std::uint64_t index);
  /// Rejoin retry timer: the first request, then a refetch whenever the
  /// stream falls silent for a retry interval.
  void rejoin_tick(net::NodeContext& ctx);
  void send_rejoin_request(net::NodeContext& ctx);
  /// The TOB node co-located with `replica`.
  NodeId tob_of(NodeId replica) const;
  /// Post-dispatch delivery: through the 2PC engine when armed, else (or for
  /// uninvolved transactions) the normal execution path.
  void apply_delivered(net::NodeContext& ctx, std::uint64_t index,
                       const workload::TxnRequest& req);
  void execute_txn(net::NodeContext& ctx, std::uint64_t index, const workload::TxnRequest& req);
  /// Streams the database to `to` (rejoin or spare promotion): optionally
  /// compressed, a delta when `delta_since` is a version our dirty tracking
  /// still covers, a full copy otherwise.
  void send_snapshot_stream(net::NodeContext& ctx, NodeId to, const repl::SnapDone2Body& done,
                            std::optional<std::uint64_t> delta_since = std::nullopt);
  /// Epilogue of a complete (already restored) stream: resume, go active.
  void finish_join(net::NodeContext& ctx, const repl::SnapDone2Body& done, NodeId from);
  /// Stamps the engine's state version for the command at `index`,
  /// monotonically (parked 2PC transactions drain at a later delivery and
  /// must not move the version backwards).
  void stamp_state_version(std::uint64_t index);

  net::Transport& world_;
  NodeId self_;
  tob::TobNode& tob_;
  TxnExecutor executor_;
  SmrConfig config_;
  std::vector<NodeId> group_;       // current active replicas
  std::vector<NodeId> spares_;      // pre-provisioned replacements
  std::vector<NodeId> group_tobs_;  // the group's TOB nodes, one per machine
  bool active_ = true;
  std::uint64_t delivered_index_ = 0;  // last applied global delivery index

  // Failure detection: SMR heartbeats are the liveness signal.
  HeartbeatDetector hb_;
  ClientId reconfig_client_id_;
  RequestSeq reconfig_seq_ = 0;

  // Joining state (promoted spare or rejoiner). The fetch session is armed
  // while joining; the promotion refetch asks the proposer again, the rejoin
  // refetch sends a fresh request.
  bool joining_ = false;
  repl::FetchSession fetch_;
  std::deque<std::pair<std::uint64_t, workload::TxnRequest>> buffered_;  // (index, request)

  // Crash-restart rejoin state (see start_rejoin). `seen_control_keys_` is
  // maintained by every replica: the exact (client, seq) keys of delivered
  // control commands, shipped with rejoin snapshots so the joiner's TOB node
  // deduplicates them (control clients get fresh ids per incarnation, so the
  // per-client floor cannot cover them).
  bool rejoining_ = false;
  NodeId rejoin_via_{};
  NodeId rejoin_proposer_{};
  RequestSeq rejoin_seq_ = 0;
  std::uint64_t rejoin_base_version_ = 0;  // engine version presented for a delta
  std::uint32_t rejoin_attempts_ = 0;      // requests sent this rejoin
  std::vector<std::pair<std::uint32_t, RequestSeq>> rejoin_floor_;
  std::optional<net::TimerId> rejoin_timer_;
  std::vector<std::pair<std::uint32_t, RequestSeq>> seen_control_keys_;

  // Sharded-mode engines, armed only when config_.router names more than
  // one shard. All their state transitions happen on the consensus thread
  // inside the serial delivery path. view_ is this replica's own picture of
  // the partition (base router + overrides committed by its delivery order);
  // mig_ drives range migrations and declares before xs_ so the 2PC engine's
  // range-block hook outlives nothing it points at.
  std::unique_ptr<RoutingView> view_;
  std::unique_ptr<RangeMigrator> mig_;
  std::unique_ptr<XsCoordinator> xs_;
  std::unique_ptr<RoServer> ro_;  // lock-free snapshot reads (core/rosnap.hpp)

  // Pipelined mode: the DB executor stage. Declared last so its destructor
  // (which flushes and joins the executor thread) runs while every member
  // it references is still alive.
  std::unique_ptr<ExecutorPipeline> pipeline_;
};

}  // namespace shadow::core
