// Baseline database servers the paper compares against (Sec. IV-B).
//
// One server class covers the three deployments via `Replication`:
//
//   kNone      — a standalone database (the "H2-stdalone" curve);
//   kEager     — H2-style built-in replication: statements execute on the
//                primary while the transaction's locks are held, and at
//                commit the statement log is shipped synchronously to the
//                replica, which applies it before the primary commits and
//                answers. Locks are held across the replication round trip,
//                which with H2's table-level locks is why "transactions
//                timeout when trying to lock the database table";
//   kSemiSync  — MySQL-style semi-synchronous replication: the primary
//                commits (releasing locks), ships the transaction to the
//                slave, and answers the client once the slave acknowledges.
//
// Unlike ShadowDB replicas (stored procedures in the same JVM), baseline
// clients talk JDBC: each statement beyond the first costs a client round
// trip (`per_statement_delay`) during which the transaction's locks stay
// held — the mechanism behind H2-repl's TPC-C collapse (62 tps) and the
// co-location advantage the paper measures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "db/engine.hpp"
#include "net/transport.hpp"
#include "workload/messages.hpp"
#include "workload/procedures.hpp"

namespace shadow::baselines {

enum class Replication : std::uint8_t { kNone, kEager, kSemiSync };

struct BaselineConfig {
  Replication replication = Replication::kNone;
  net::Time per_statement_delay = 10;   // µs: client JDBC round trip (LAN, pipelined)
  net::Time engine_tick_period = 5000;  // drives lock-wait timeouts
  std::uint64_t per_txn_server_us = 80; // request/reply handling
  std::uint64_t per_stmt_server_us = 8; // SQL dispatch per statement
  // Thundering-herd overhead: CPU burned per waiting transaction when a
  // lock is released (contention collapse of the MySQL-memory engine).
  std::uint64_t herd_wake_us = 8;
  // Binlog/group-commit window: semi-sync primaries hold statement locks
  // until the log write completes; concurrent writers queue on the table
  // lock during the window (MySQL-memory's peak-then-decline shape).
  net::Time commit_delay_us = 0;
};

/// Applies replicated transactions on the secondary (no client protocol).
class ReplicaApplier {
 public:
  ReplicaApplier(net::Transport& world, NodeId self, std::shared_ptr<db::Engine> engine);
  NodeId node() const { return self_; }
  db::Engine& engine() { return *engine_; }

 private:
  void on_message(net::NodeContext& ctx, const net::Message& msg);

  net::Transport& world_;
  NodeId self_;
  std::shared_ptr<db::Engine> engine_;
};

/// Statement log shipped to the replica (eager) or slave (semi-sync).
struct ReplicateBody {
  std::uint64_t session = 0;
  std::vector<db::Statement> statements;
};
struct ReplicateAckBody {
  std::uint64_t session = 0;
};

inline constexpr const char* kReplicateHeader = "bl-replicate";
inline constexpr const char* kReplicateAckHeader = "bl-replicate-ack";

class BaselineServer {
 public:
  BaselineServer(net::Transport& world, NodeId self, std::shared_ptr<db::Engine> engine,
                 std::shared_ptr<const workload::ProcedureRegistry> registry,
                 BaselineConfig config = {}, std::optional<NodeId> replica = std::nullopt);

  NodeId node() const { return self_; }
  db::Engine& engine() { return *engine_; }
  std::uint64_t committed() const { return committed_; }
  std::uint64_t aborted() const { return aborted_; }

 private:
  struct Session {
    std::uint64_t id = 0;
    workload::TxnRequest request;
    db::TxnId txn = 0;
    std::size_t step = 0;
    std::vector<db::ExecResult> results;
    std::vector<db::Statement> statement_log;  // writes only, for replication
    std::vector<db::Row> answer_rows;
    bool awaiting_wake = false;
    bool awaiting_replica = false;
    // The statement parked on a lock; logged for replication when the wake
    // path completes it successfully.
    std::optional<db::Statement> pending_stmt;
  };

  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_request(net::NodeContext& ctx, const workload::TxnRequest& req);
  void advance(net::NodeContext& ctx, Session& session);
  void handle_result(net::NodeContext& ctx, Session& session, const db::ExecResult& result);
  void reach_commit(net::NodeContext& ctx, Session& session);
  void ship_to_replica(net::NodeContext& ctx, Session& session);
  void finish(net::NodeContext& ctx, Session& session, bool committed, const std::string& error);
  void on_engine_wake(db::TxnId txn, const db::ExecResult& result);
  void tick(net::NodeContext& ctx);

  net::Transport& world_;
  NodeId self_;
  std::shared_ptr<db::Engine> engine_;
  std::shared_ptr<const workload::ProcedureRegistry> registry_;
  BaselineConfig config_;
  std::optional<NodeId> replica_;

  std::map<std::uint64_t, Session> sessions_;
  std::map<db::TxnId, std::uint64_t> session_by_txn_;
  std::uint64_t next_session_ = 1;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  // Dedup (at-most-once) for client retries, as in ShadowDB.
  std::map<std::uint32_t, std::pair<RequestSeq, workload::TxnResponse>> last_by_client_;
  net::NodeContext* current_ctx_ = nullptr;  // valid during handler execution
};

/// Convenience bundles for the three deployments.
struct StandaloneDb {
  std::unique_ptr<BaselineServer> server;
  NodeId node() const { return server->node(); }
};
StandaloneDb make_standalone(net::Transport& world, std::shared_ptr<db::Engine> engine,
                             std::shared_ptr<const workload::ProcedureRegistry> registry,
                             BaselineConfig config = {});

struct ReplicatedDb {
  std::unique_ptr<BaselineServer> primary;
  std::unique_ptr<ReplicaApplier> secondary;
  NodeId node() const { return primary->node(); }
};
/// H2-style eager replication (table locks held across the sync round trip).
ReplicatedDb make_h2_repl(net::Transport& world,
                          std::shared_ptr<const workload::ProcedureRegistry> registry,
                          const std::function<void(db::Engine&)>& loader,
                          BaselineConfig config = {});
/// MySQL-style semi-sync replication. `traits` picks memory vs InnoDB.
ReplicatedDb make_mysql_repl(net::Transport& world,
                             std::shared_ptr<const workload::ProcedureRegistry> registry,
                             const std::function<void(db::Engine&)>& loader,
                             db::EngineTraits traits, BaselineConfig config = {});

}  // namespace shadow::baselines

namespace shadow::wire {

template <>
struct Codec<baselines::ReplicateBody>
    : Fields<&baselines::ReplicateBody::session, &baselines::ReplicateBody::statements> {};

template <>
struct Codec<baselines::ReplicateAckBody> : Fields<&baselines::ReplicateAckBody::session> {};

}  // namespace shadow::wire
