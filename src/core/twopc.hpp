// Cross-shard transactions: TOB-ordered two-phase commit.
//
// A cross-shard transaction is broadcast into its *coordinator* group's log
// (the first participant group, see ShardRouter::coordinator_of). Every
// replica of that group delivers it at the same log position and — because
// coordinator state is thereby replicated — each one deterministically
// drives the same protocol:
//
//   begin    the coordinator group delivers the original request, records a
//            coordinator entry, runs its OWN local prepare inline (the begin
//            is already a totally-ordered point in this group's log, so the
//            co-located participant's vote needs no extra round trip) and
//            broadcasts a `::xs-prepare` control command into every OTHER
//            participant group's TOB log — two ordered entries saved per
//            transaction in the coordinator group;
//   prepare  each participant delivers the prepare in its own log, runs the
//            procedure's local plan (reads + staged writes for the keys this
//            group owns), takes exclusive row locks through db::LockManager
//            — any lock conflict votes NO immediately, which is what makes
//            distributed deadlock impossible — and broadcasts a `::xs-vote`
//            back into the coordinator group's log;
//   decide   once the coordinator group has delivered every group's vote in
//            its own log, the all-yes verdict is broadcast as `::xs-decide`
//            into every OTHER participant log; remote participants apply
//            their staged writes (or drop them) and release the locks at
//            the decide's delivery, while the coordinator group applies its
//            own share — and answers the client — directly at the final
//            vote's delivery position (that position is itself a
//            deterministic decide point, so no `::xs-decide` round-trips
//            through the coordinator's own log).
//
// A 2-group transaction therefore costs four ordered entries: begin + the
// remote vote in the coordinator log, prepare + decide in the other log.
//
// Prepare/vote/decide travel as ordinary TOB commands under synthetic client
// ids (core/client_ids.hpp: all above kControlClientBit, so the pipelined delivery path
// spots them without decoding) and are deduplicated by the normal TOB
// (client, seq) key — retransmissions are free to be aggressive.
//
// Between prepare and decide the group keeps executing: single-shard
// transactions that touch a locked key (or a key behind one in the parked
// queue) are *parked* and drained in delivery order when locks release —
// a deterministic function of the delivery prefix, so every replica parks
// and resumes identically. Everything here runs on the consensus thread;
// the executor pipeline is flushed before any of it touches the engine.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/client_ids.hpp"
#include "core/replica_common.hpp"
#include "core/router.hpp"
#include "db/lock_manager.hpp"
#include "net/transport.hpp"

namespace shadow::core {

inline constexpr const char* kXsPrepareProc = "::xs-prepare";
inline constexpr const char* kXsVoteProc = "::xs-vote";
inline constexpr const char* kXsDecideProc = "::xs-decide";
/// Snapshot stream piece carrying in-flight 2PC state (sent between the row
/// batches and the done message, only by sharded deployments).
inline constexpr const char* kXsSnapHeader = "smr-snap-xs";


/// A participant's local share of a cross-shard transaction: the vote (reads
/// evaluated against the group's own keys), the writes staged for apply at
/// commit, and the plan's virtual CPU cost. Recomputable: the exclusive row
/// locks freeze every key the plan read, so re-running the plan against a
/// later snapshot of the same group yields the identical result (which is
/// how rejoin snapshots avoid shipping statements).
struct XsLocalPlan {
  bool vote_yes = true;
  std::string error;
  std::vector<db::Statement> staged;
  std::uint64_t cost_us = 0;
};

/// The local planner for a cross-shard procedure: given the engine and the
/// partition keys this group owns, produce vote + staged writes. Null for
/// procedures that can never cross shards.
using XsPlanFn = XsLocalPlan (*)(db::Engine& engine, const workload::TxnRequest& req,
                                 const std::vector<std::int64_t>& local_keys);
XsPlanFn xs_plan_for(const std::string& proc);

/// In-flight 2PC state shipped with rejoin/promotion snapshots. Prepared
/// entries carry only the original request + vote — staged writes and locks
/// are recomputed at restore (see XsLocalPlan).
struct XsSnapBody {
  struct PrepEntry {
    std::string orig;  // encoded original TxnRequest
    std::uint64_t prepare_index = 0;
    std::uint32_t coordinator = 0;
    std::uint8_t vote_yes = 0;
    std::string error;
  };
  struct ParkEntry {
    std::uint64_t index = 0;
    std::string orig;
  };
  struct CoordEntry {
    std::string orig;
    std::vector<std::uint32_t> participants;
    std::vector<std::pair<std::uint32_t, std::uint8_t>> votes;
    std::string abort_error;
    std::uint8_t decided = 0;
    std::uint8_t commit = 0;
    std::uint8_t responded = 0;
    std::uint32_t decide_resends = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<PrepEntry> prepared;
  std::vector<ParkEntry> parked;
  std::vector<CoordEntry> coords;
  /// Per-client decided high-water marks: a rejoined replica must answer RO
  /// snap exchanges without claiming every old decide is still "future".
  std::vector<std::pair<std::uint32_t, std::uint64_t>> last_decided;
};

/// Per-replica 2PC engine, owned by an SmrReplica in a sharded deployment.
/// All methods run on the consensus thread with the executor pipeline
/// flushed; state transitions are driven purely by the group's delivery
/// order, so every replica of the group holds identical state.
class XsCoordinator {
 public:
  /// Re-enters the owning replica's normal execution path for a parked
  /// single-shard transaction (delivery index, request).
  using ExecuteFn =
      std::function<void(net::NodeContext&, std::uint64_t, const workload::TxnRequest&)>;

  XsCoordinator(net::Transport& world, NodeId self, GroupId group, const RoutingView& view,
                TxnExecutor& executor, ExecuteFn execute, obs::Tracer* tracer);

  /// Shard-rebalancing freeze hook (core/migrate.hpp): when set and true for
  /// a transaction's keys, prepare_local votes NO "range-frozen" instead of
  /// planning — the range is mid-migration and retryable once it lands.
  using RangeBlockFn =
      std::function<bool(const std::string& table, const std::vector<std::int64_t>& keys)>;
  void set_range_block(RangeBlockFn fn) { range_block_ = std::move(fn); }

  /// Delivery interception, called for every non-reconfig/rejoin delivery.
  /// Returns true if consumed (an xs control command, a cross-shard
  /// original, or a single-shard transaction that had to be parked); false
  /// means the caller executes it normally.
  bool on_deliver(net::NodeContext& ctx, std::uint64_t index, const workload::TxnRequest& req);

  /// True while any lock is held or any transaction is parked: decided
  /// batches must take the serial delivery path so parking stays a
  /// deterministic function of the delivery prefix.
  bool busy() const { return !locked_keys_.empty() || !parked_.empty(); }

  /// True when no prepared lock and no parked transaction touches `table`
  /// keys in [lo, hi) — the migration donor's drain condition: new prepares
  /// against a frozen range vote NO, so once clear the range stays clear.
  bool range_clear(const std::string& table, std::int64_t lo, std::int64_t hi) const;

  /// One applied 2PC decision, kept in a bounded recent-decide ring for the
  /// read-only snapshot protocol: an RO coordinator that sees this txn's
  /// writes included at one group (decide_pos <= the group's snap position)
  /// uses `participants` to check the other groups' cuts include it too.
  struct DecideRecord {
    std::uint32_t client = 0;
    std::uint64_t seq = 0;
    std::uint64_t decide_pos = 0;  // engine state version when the share applied
    bool committed = false;
    std::vector<GroupId> participants;
  };
  /// The ring, newest last. Bounded (kDecideRingCap); eviction is safe for
  /// the RO protocol because `last_decided` disambiguates: a decide missing
  /// from the ring was either applied before every ring entry (its client's
  /// high-water covers the seq) or has not arrived at this group at all.
  const std::deque<DecideRecord>& recent_decides() const { return decides_; }
  /// Per xs client, the highest seq whose decision this group has APPLIED.
  /// Client seqs are monotone (closed-loop), and a prepare always precedes
  /// its decide in the group's log, so `last_decided[c] >= s` proves txn
  /// (c, s) applied at or below the current engine position — even after
  /// its DecideRecord fell off the bounded ring.
  const std::map<std::uint32_t, std::uint64_t>& last_decided() const { return last_decided_; }
  /// (client, seq) of every prepared-but-undecided cross-shard transaction
  /// at this group — the RO snapshot response's in-doubt set.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> prepared_txns() const;

  XsSnapBody snapshot() const;
  void restore(const XsSnapBody& snap);

 private:
  using TxnKey = std::pair<std::uint32_t, std::uint64_t>;  // (client, seq)
  using PartKey = std::pair<std::string, std::int64_t>;    // (table, partition key)

  struct Prepared {
    workload::TxnRequest orig;
    std::uint64_t prepare_index = 0;
    GroupId coordinator = 0;
    bool vote_yes = false;
    std::string error;
    std::vector<db::Statement> staged;
    std::vector<std::int64_t> local_keys;
  };
  struct Coord {
    workload::TxnRequest orig;
    std::vector<GroupId> participants;
    std::map<GroupId, bool> votes;
    std::string abort_error;  // first NO vote's reason, relayed to the client
    bool decided = false;
    bool commit = false;
    bool responded = false;
    std::uint32_t decide_resends = 0;
    std::uint64_t epoch = 0;  // routing-view epoch the participant set was computed at
  };
  struct ParkedTxn {
    std::uint64_t index = 0;
    workload::TxnRequest req;
    std::vector<std::int64_t> keys;
    bool keyless = false;
  };

  void handle_begin(net::NodeContext& ctx, std::uint64_t index,
                    const workload::TxnRequest& orig);
  void handle_prepare(net::NodeContext& ctx, std::uint64_t index,
                      const workload::TxnRequest& req);
  /// Runs this group's local prepare (plan + no-wait locks) for `orig` at
  /// log position `index` and records it in `prepared_`. Idempotent. A
  /// non-null `veto` skips planning and records an immediate NO vote with
  /// that error (epoch mismatch, frozen range).
  void prepare_local(net::NodeContext& ctx, std::uint64_t index, GroupId coordinator,
                     const workload::TxnRequest& orig, const char* veto = nullptr);
  void handle_vote(net::NodeContext& ctx, const workload::TxnRequest& req);
  void handle_decide(net::NodeContext& ctx, const workload::TxnRequest& req);
  /// Applies (or drops) this group's staged share of the transaction and
  /// releases its locks. No-op if the transaction is not prepared here.
  void apply_decision(net::NodeContext& ctx, const TxnKey& key, bool commit);

  void send_prepare(net::NodeContext& ctx, GroupId g, const Coord& co, RequestSeq seq,
                    std::uint32_t orig_client);
  void send_decide(net::NodeContext& ctx, GroupId g, const Coord& co, RequestSeq seq,
                   std::uint32_t orig_client);
  void broadcast_into(net::NodeContext& ctx, GroupId g, ClientId client, RequestSeq seq,
                      const workload::TxnRequest& req);
  void maybe_decide(net::NodeContext& ctx, const TxnKey& key, Coord& co);
  void release_and_drain(net::NodeContext& ctx, const Prepared& pr, db::TxnId lock_txn);
  void drain_parked(net::NodeContext& ctx);
  bool conflicts(const std::vector<std::int64_t>& keys, bool keyless,
                 const std::string& table) const;
  void on_tick(net::NodeContext& ctx);

  static db::TxnId lock_txn_of(const TxnKey& key) {
    return (std::uint64_t{1} << 63) | (std::uint64_t{key.first & kXsClientMask} << 42) |
           (key.second & ((std::uint64_t{1} << 42) - 1));
  }

  net::Transport& world_;
  NodeId self_;
  GroupId group_;
  const RoutingView& view_;
  TxnExecutor& executor_;
  ExecuteFn execute_;
  obs::Tracer* tracer_;
  RangeBlockFn range_block_;
  db::LockManager locks_;

  static constexpr std::size_t kDecideRingCap = 64;

  std::map<TxnKey, Prepared> prepared_;
  std::map<TxnKey, Coord> coord_;
  std::deque<ParkedTxn> parked_;
  std::deque<DecideRecord> decides_;
  std::map<std::uint32_t, std::uint64_t> last_decided_;
  // Multisets backing the O(log n) conflict test: keys exclusively locked by
  // yes-voted prepares, and keys of parked transactions (plus a count of
  // parked key-less scans, which conflict with everything).
  std::map<PartKey, int> locked_keys_;
  std::map<PartKey, int> parked_keys_;
  std::size_t parked_keyless_ = 0;
};

}  // namespace shadow::core

namespace shadow::wire {

template <>
struct Codec<core::XsSnapBody::PrepEntry>
    : Fields<&core::XsSnapBody::PrepEntry::orig, &core::XsSnapBody::PrepEntry::prepare_index,
             &core::XsSnapBody::PrepEntry::coordinator, &core::XsSnapBody::PrepEntry::vote_yes,
             &core::XsSnapBody::PrepEntry::error> {};

template <>
struct Codec<core::XsSnapBody::ParkEntry>
    : Fields<&core::XsSnapBody::ParkEntry::index, &core::XsSnapBody::ParkEntry::orig> {};

template <>
struct Codec<core::XsSnapBody::CoordEntry>
    : Fields<&core::XsSnapBody::CoordEntry::orig, &core::XsSnapBody::CoordEntry::participants,
             &core::XsSnapBody::CoordEntry::votes, &core::XsSnapBody::CoordEntry::abort_error,
             &core::XsSnapBody::CoordEntry::decided, &core::XsSnapBody::CoordEntry::commit,
             &core::XsSnapBody::CoordEntry::responded,
             &core::XsSnapBody::CoordEntry::decide_resends,
             &core::XsSnapBody::CoordEntry::epoch> {};

template <>
struct Codec<core::XsSnapBody>
    : Fields<&core::XsSnapBody::prepared, &core::XsSnapBody::parked, &core::XsSnapBody::coords,
             &core::XsSnapBody::last_decided> {};

}  // namespace shadow::wire
