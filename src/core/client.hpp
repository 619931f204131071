// The ShadowDB client library.
//
// Closed-loop client: submits one transaction at a time (type + parameters),
// waits for the answer, and retries on timeout — "In case of failures,
// clients may timeout and resend transactions to the replicas"; replicas
// deduplicate by (client, seq). Two submission modes:
//
//   kDirect — send the request to a server node (PBR primary, standalone or
//             baseline servers). Handles pbr-redirect responses (new primary
//             after a reconfiguration, or busy during recovery).
//   kTob    — broadcast the request through the total order broadcast
//             service (SMR); the client "waits to receive the first answer".
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "common/stats.hpp"
#include "core/rosnap.hpp"
#include "core/router.hpp"
#include "tob/tob.hpp"
#include "workload/messages.hpp"

namespace shadow::core {

class DbClient {
 public:
  enum class Mode : std::uint8_t { kDirect, kTob };

  struct Options {
    Mode mode = Mode::kDirect;
    std::vector<NodeId> targets;        // servers (direct) or TOB nodes (tob)
    net::Time retry_timeout = 2000000;  // 2 s resend timeout
    net::Time busy_backoff = 100000;    // retry delay on a busy redirect
    std::size_t txn_limit = 1000;       // closed-loop transaction count
    std::uint64_t client_cpu_us = 4;    // per send/receive on the client machine
    obs::Tracer* tracer = nullptr;      // optional structured trace recorder
    /// Sharded deployments (kTob mode): route each request to its
    /// coordinator group's TOB nodes instead of `targets`, and flag
    /// cross-shard requests on the wire (kXsBeginBit) so replicas classify
    /// them without decoding payloads. Null for classic clusters.
    const ShardRouter* router = nullptr;
    /// Resubmit (with a fresh sequence number) transactions aborted by the
    /// no-wait 2PC conflict rule ("xs-lock-conflict") — those aborts are
    /// transient serialization failures, not transaction outcomes. Semantic
    /// aborts (overdraft, missing account) are never retried.
    /// A retry waits out a jittered exponential backoff (see client.cpp).
    bool retry_conflict_aborts = false;
  };

  /// Supplies the next transaction (procedure name + parameters).
  using NextTxnFn = std::function<std::pair<std::string, workload::Params>()>;
  /// Optional per-commit hook (virtual completion time) for timelines.
  using CommitHook = std::function<void(net::Time)>;
  /// Optional hook fired on every FINAL answer (after conflict-retry
  /// filtering), committed or aborted — tests use it to assert on rows.
  using ResponseHook = std::function<void(const workload::TxnResponse&)>;

  DbClient(net::Transport& world, NodeId self, ClientId id, Options options, NextTxnFn next_txn);

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_response_hook(ResponseHook hook) { response_hook_ = std::move(hook); }

  /// Begins the closed loop (schedules the first submission).
  void start(net::Time initial_delay = 0);

  bool done() const { return done_; }
  const LatencyStats& latencies() const { return latencies_; }
  std::uint64_t committed() const { return committed_; }
  std::uint64_t aborted() const { return aborted_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t conflict_retries() const { return conflict_retries_; }
  /// Read-only transactions completed through the lock-free snapshot path
  /// (these never acquire 2PC locks, so they cannot produce
  /// "xs-lock-conflict" aborts).
  std::uint64_t ro_committed() const { return ro_committed_; }
  /// RO attempts restarted end-to-end (ro-stale/ro-moved/ro-split/timeouts).
  std::uint64_t ro_restarts() const { return ro_restarts_; }
  ClientId id() const { return id_; }

 private:
  void submit_next(net::NodeContext& ctx);
  void send_current(net::NodeContext& ctx);
  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_timeout(net::NodeContext& ctx);
  void finish_current(net::NodeContext& ctx, const workload::TxnResponse& resp);

  // -- read-only snapshot path (core/rosnap.hpp; the client coordinates) ------
  /// Eligible: sharded kTob deployment and a procedure registered read-only.
  bool ro_eligible(const workload::TxnRequest& req) const;
  void start_ro_attempt(net::NodeContext& ctx);
  void restart_ro_attempt(net::NodeContext& ctx);
  void send_ro_snap(net::NodeContext& ctx, GroupId g);
  void send_ro_read(net::NodeContext& ctx, GroupId g, std::uint64_t version,
                    std::uint64_t floor);
  void on_ro_snap_resp(net::NodeContext& ctx, const RoSnapRespBody& body);
  void on_ro_read_resp(net::NodeContext& ctx, const RoReadRespBody& body);
  /// All snaps in: torn-cut detection (re-snap lagging groups) or fan out
  /// the pinned reads.
  void resolve_ro_cut(net::NodeContext& ctx);
  void finish_ro(net::NodeContext& ctx);
  NodeId ro_replica_of(GroupId g) const;

  net::Transport& world_;
  NodeId self_;
  ClientId id_;
  Options options_;
  NextTxnFn next_txn_;
  CommitHook commit_hook_;
  ResponseHook response_hook_;

  RequestSeq seq_ = 0;
  std::optional<workload::TxnRequest> in_flight_;
  net::Time sent_at_ = 0;
  std::size_t target_idx_ = 0;
  net::TimerId timeout_timer_ = 0;
  std::size_t consecutive_busy_ = 0;
  std::uint32_t conflict_streak_ = 0;
  std::uint64_t backoff_state_ = 0;  // per-client deterministic jitter LCG
  bool done_ = false;

  /// One in-flight read-only attempt. Phase 0 collects one RoSnapResp per
  /// participant group (cross-shard only); phase 1 collects the versioned
  /// reads. Every replica answer is matched against the current in-flight
  /// seq, the awaiting set, and (cross-shard) the pinned cut version, so
  /// answers from an abandoned attempt cannot tear the cut.
  struct RoAttempt {
    std::vector<GroupId> participants;
    bool cross = false;
    int phase = 0;
    std::uint32_t rounds = 0;  // re-snap rounds this attempt
    std::set<GroupId> awaiting;
    std::map<GroupId, RoSnapRespBody> snaps;
    std::map<GroupId, std::uint64_t> cut;  // group → pinned version (0 = current)
    std::map<GroupId, std::vector<db::Row>> rows;
  };
  std::optional<RoAttempt> ro_;
  /// Session floors: per group, the apply position this client's own commits
  /// (and completed RO cuts) are visible at — read-your-writes + monotonic
  /// reads across the session.
  std::map<std::uint32_t, std::uint64_t> ro_floors_;
  /// Per-group replica rotation for snaps/reads. Independent per group on
  /// purpose: the groups' replica lists are machine-aligned, so a shared
  /// offset could never address, say, the sole surviving replica index in
  /// every group at once — the snap phase (which needs ALL groups to
  /// answer) would then starve forever after a multi-replica crash.
  std::map<std::uint32_t, std::size_t> ro_rot_;

  LatencyStats latencies_;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t conflict_retries_ = 0;
  std::uint64_t ro_committed_ = 0;
  std::uint64_t ro_restarts_ = 0;
  std::size_t submitted_ = 0;
};

}  // namespace shadow::core
