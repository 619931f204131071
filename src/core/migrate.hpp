// Dynamic shard rebalancing: TOB-ordered range migration between groups.
//
// A migration moves ownership of `table` keys in [lo, hi) from group `from`
// to group `to`, without stopping either group and without any step that is
// not a deterministic function of some group's delivery order:
//
//   split    an administrator broadcasts `::mig-split` into EVERY group's
//            log (redundant rebroadcasts collapse under TOB dedup). At its
//            delivery each group freezes the range: transactions touching it
//            are answered with a retryable "range-frozen" abort (single-
//            shard) or a NO vote (2PC prepares, via XsCoordinator's range-
//            block hook), so the donor's copy of the range stops changing;
//   stream   each replica of `to` pulls the frozen range from any replica of
//            `from` (they all hold the identical frozen state — no donor
//            takeover protocol is needed when the donor dies) as a filtered
//            state-transfer stream, received by a buffering
//            repl::FetchSession that keeps the row batches without applying
//            them and re-pulls from the next donor when the stream breaks or
//            falls silent;
//   ready    a `to` replica whose buffer is complete broadcasts `::mig-
//            ready` into its OWN group's log; a replica broadcasts `::mig-
//            commit` into every group's log once the delivered ready set
//            covers every member the replica's HeartbeatDetector calls live,
//            OR covers a majority of the membership (re-checked on
//            reconfigurations and every tick). The laggards a majority
//            commit leaves behind — crashed members, or live ones whose
//            delivery stream stalled — cannot apply the flip from their own
//            buffer, so they recover through a full resync (below) instead of
//            blocking the commit forever;
//   commit   at its own `::mig-commit` delivery each group atomically flips
//            routing by installing a RangeOverride in its RoutingView: the
//            `from` group first deletes its (still pre-override-owned) rows
//            of the range, the `to` group applies its buffered upserts, and
//            the range unfreezes everywhere.
//
// Clients keep routing by the base partition function; the `from` group
// forwards transactions it no longer owns to the current owner (one extra
// hop, answered from the owner). A forwarded retry is answered from the
// donor's dedup table so nothing executes twice, and 2PC prepares carry the
// coordinator's routing epoch so a participant with a different partition
// picture refuses to stage ("xs-epoch-retry") instead of misplanning.
//
// Pipelined executors: while a migration is live — and, on the `from` group,
// forever after (its deliveries may need forwarding) — decided batches take
// the serial delivery path (see needs_serial), trading the donor group's
// pipelining for correctness of the diversion checks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/client_ids.hpp"
#include "core/replica_common.hpp"
#include "core/router.hpp"
#include "core/twopc.hpp"
#include "db/wire.hpp"
#include "net/transport.hpp"
#include "repl/state_transfer.hpp"

namespace shadow::core {

class SmrReplica;  // core/smr.hpp

inline constexpr const char* kMigSplitProc = "::mig-split";
inline constexpr const char* kMigReadyProc = "::mig-ready";
inline constexpr const char* kMigCommitProc = "::mig-commit";

/// Node-addressed pull + filtered snapshot stream headers (the stream's
/// `tag` carries the migration id, so concurrent migrations never mix).
inline constexpr const char* kMigPullHeader = "mig-pull";
inline constexpr const char* kMigSnapBeginHeader = "mig-snap-begin";
inline constexpr const char* kMigSnapBatchHeader = "mig-snap-batch";
inline constexpr const char* kMigSnapDeleteHeader = "mig-snap-del";
inline constexpr const char* kMigSnapDoneHeader = "mig-snap-done";
/// Rejoin/promotion snapshot rider carrying MigSnapBody. Sent BEFORE the 2PC
/// rider: XsCoordinator::restore recomputes key ownership through the
/// RoutingView, which this rider's overrides must have rebuilt first.
inline constexpr const char* kMigSnapRiderHeader = "smr-snap-mig";

/// One range migration's immutable parameters.
struct RangeSpec {
  std::uint64_t mid = 0;  // migration id, unique per deployment
  std::string table;
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // exclusive
  GroupId from = 0;
  GroupId to = 0;
  NodeId donor{0};  // preferred serving replica (pull rotation start)
};

/// The `::mig-split` command an administrator broadcasts into every group's
/// TOB (wire client kMigAdminClientBit | mid, seq 1 — rebroadcasts collapse).
/// The caller fills reply_to.
workload::TxnRequest make_split_request(const RangeSpec& spec);

/// A `to` replica's pull request for one migration's frozen range.
struct MigPullBody {
  std::uint64_t mid = 0;
};

/// Migration state shipped with rejoin/promotion snapshots: the committed
/// overrides (rebuilds the RoutingView) and, per in-flight migration, the
/// spec, the delivered ready set, and the joiner's would-be buffer so a
/// promoted spare can complete the handshake itself.
struct MigSnapBody {
  struct Inflight {
    RangeSpec spec;
    std::vector<std::uint32_t> ready;
    std::uint8_t buffered = 0;
    std::vector<db::Engine::SnapshotBatch> batches;
  };
  std::vector<RangeOverride> overrides;
  std::vector<Inflight> inflight;
};

/// Per-replica migration engine, owned by an SmrReplica in a sharded
/// deployment. All delivery-driven transitions run on the consensus thread;
/// like the 2PC engine, state is a pure function of the group's delivery
/// order (plus the pull buffer, which only ever feeds a delivery-ordered
/// commit).
///
/// Liveness comes from the owning replica's HeartbeatDetector: ready
/// coverage counts only members it calls live. A crashed member can stay in
/// the group forever — replacement needs a free spare AND the one-shot
/// reconfig proposal surviving the wire — and a commit must not wait for a
/// ready broadcast that will never come. A replica that delivers a
/// `::mig-commit` it has no buffer for (its group committed without it: dead
/// by heartbeat, or alive with a stalled delivery stream) cannot pull any
/// more, since the donor's copy of the range is gone; it resyncs through
/// SmrReplica::resync, a rejoin served by a live peer whose snapshot rider
/// carries the post-commit rows and the override.
class RangeMigrator {
 public:
  struct Config {
    obs::Tracer* tracer = nullptr;
    std::size_t batch_bytes = 50 * 1024;
    bool compress = false;
    /// Drains the owning replica's executor pipeline before the engine is
    /// read for a stream (the engine belongs to the executor thread until
    /// the pipeline is quiescent).
    std::function<void()> flush;
  };

  RangeMigrator(net::Transport& world, SmrReplica& replica, GroupId group, RoutingView& view,
                TxnExecutor& executor, XsCoordinator* xs, Config cfg);

  /// Delivery interception for the `::mig-*` control commands. Returns true
  /// if consumed.
  bool on_deliver(net::NodeContext& ctx, std::uint64_t index, const workload::TxnRequest& req);

  /// Post-2PC delivery check for ordinary transactions: answers a retryable
  /// "range-frozen" abort for frozen keys, forwards (or answers from the
  /// dedup table) transactions this group no longer owns. Returns true if
  /// consumed; false means the caller executes normally.
  bool divert(net::NodeContext& ctx, const workload::TxnRequest& req);

  /// True when any key of `keys` lies in a live (uncommitted) migration's
  /// range — mounted as the 2PC engine's range-block hook.
  bool frozen(const std::string& table, const std::vector<std::int64_t>& keys) const;

  /// Routing decision for a versioned read of (table, key) at `version`
  /// (0 = current). nullopt: serve locally. A key owned here serves here; a
  /// frozen (pre-flip) range also serves here — its rows are immutable and
  /// still ours. A donated key serves here only when the read is pinned
  /// BELOW the committed flip's version: the flip captured the donated
  /// rows' pre-images into the version chains when it deleted them. Reads at
  /// or above the flip (and "current" reads) return the owner to forward to.
  std::optional<GroupId> ro_forward_target(const std::string& table, std::int64_t key,
                                           std::uint64_t version) const;

  /// Node-addressed traffic: pull requests (donor side) and the filtered
  /// snapshot stream (receiver side). Returns true if consumed.
  bool on_message(net::NodeContext& ctx, const net::Message& msg);

  /// Re-evaluates ready coverage after a reconfiguration changed the group.
  void on_membership_change(net::NodeContext& ctx);

  /// True while decided batches must take the serial delivery path: a live
  /// migration (frozen-range checks), or this group donated a range at some
  /// point (its deliveries may need forwarding forever).
  bool needs_serial() const;

  MigSnapBody snapshot() const;
  void restore(net::NodeContext& ctx, const MigSnapBody& body);

 private:
  struct Migration {
    RangeSpec spec;
    std::set<std::uint32_t> ready;
    bool committed = false;
    // Receiver (to-group) pull/buffer state: the session buffers a stream's
    // batches, which move to `batches` once it completes.
    repl::FetchSession fetch;
    bool buffered = false;
    std::uint32_t pull_attempts = 0;
    std::uint32_t commit_resends = 0;
    std::vector<db::Engine::SnapshotBatch> batches;
  };

  /// Records a migration and mounts its fetch session (tagged by its id).
  Migration& add_migration(const RangeSpec& spec);
  void handle_split(net::NodeContext& ctx, const workload::TxnRequest& req);
  void handle_ready(net::NodeContext& ctx, const workload::TxnRequest& req);
  void handle_commit(net::NodeContext& ctx, const workload::TxnRequest& req);
  void serve_pull(net::NodeContext& ctx, std::uint64_t mid, NodeId to);
  void send_pull(net::NodeContext& ctx, Migration& m);
  void broadcast_ready(net::NodeContext& ctx, const Migration& m);
  void broadcast_commit(net::NodeContext& ctx, const Migration& m);
  void maybe_commit(net::NodeContext& ctx, Migration& m);
  void broadcast_into(net::NodeContext& ctx, GroupId g, ClientId client, RequestSeq seq,
                      const workload::TxnRequest& req);
  void on_tick(net::NodeContext& ctx);
  void count(const char* metric, std::uint64_t n = 1) const;

  net::Transport& world_;
  SmrReplica& replica_;  // owner: membership, active flag, liveness, resync
  NodeId self_;
  GroupId group_;
  RoutingView& view_;
  TxnExecutor& executor_;
  XsCoordinator* xs_;
  Config cfg_;

  std::map<std::uint64_t, Migration> migrations_;
  std::uint32_t bcast_attempts_ = 0;  // rotates the TOB frontend per broadcast
  /// Committed routing flips with the engine state version each applied at
  /// (this group's own delivery order), for ro_forward_target. Cleared on
  /// restore: a resynced replica's version chains don't reach below its
  /// snapshot anyway, so forwarding everything donated stays correct.
  std::vector<std::pair<RangeOverride, std::uint64_t>> committed_flips_;
};

}  // namespace shadow::core

namespace shadow::wire {

template <>
struct Codec<core::RangeSpec>
    : Fields<&core::RangeSpec::mid, &core::RangeSpec::table, &core::RangeSpec::lo,
             &core::RangeSpec::hi, &core::RangeSpec::from, &core::RangeSpec::to,
             &core::RangeSpec::donor> {};

template <>
struct Codec<core::MigPullBody> : Fields<&core::MigPullBody::mid> {};

template <>
struct Codec<core::RangeOverride>
    : Fields<&core::RangeOverride::table, &core::RangeOverride::lo, &core::RangeOverride::hi,
             &core::RangeOverride::from, &core::RangeOverride::to> {};

template <>
struct Codec<core::MigSnapBody::Inflight>
    : Fields<&core::MigSnapBody::Inflight::spec, &core::MigSnapBody::Inflight::ready,
             &core::MigSnapBody::Inflight::buffered, &core::MigSnapBody::Inflight::batches> {};

template <>
struct Codec<core::MigSnapBody>
    : Fields<&core::MigSnapBody::overrides, &core::MigSnapBody::inflight> {};

}  // namespace shadow::wire
