// ShadowDB — primary-backup replication (Sec. III-A).
//
// Normal case (hand-written, as in the paper): the client sends T to the
// primary; on first reception the primary executes and commits T and
// forwards it to the backups; backups execute, commit and acknowledge; the
// primary answers the client once every (recovered) backup acknowledged.
// Execution is sequential at every replica. Transactions are tagged with the
// configuration sequence number; backups only accept matching tags.
//
// Recovery (driven by the formally-generated TOB service) follows the
// paper's seven steps:
//   1. a suspecting replica stops executing in the current configuration;
//   2. it broadcasts a proposal (current seq g + new member list) via TOB;
//   3. on delivery, replicas adopt g+1 iff the proposal's g matches, and
//      send (g+1, seq_r) to all members of the new configuration;
//   4. everyone waits for all members: the primary is the replica with the
//      largest executed sequence number (ties → smallest id);
//   5. the new primary sends missing transactions from its bounded cache,
//      or a full snapshot when the cache does not reach far enough;
//   6. each backup acknowledges recovery;
//   7. the primary resumes once all backups recovered — or, with the
//      overlap optimization, once at least one backup is up to date, while
//      the remaining snapshots stream in the background and the recovering
//      replicas buffer forwarded transactions.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/replica_common.hpp"
#include "repl/state_transfer.hpp"
#include "tob/tob.hpp"

namespace shadow::core {

inline constexpr const char* kPbrReconfigProc = "::pbr-reconfig";
inline constexpr const char* kPbrAckHeader = "pbr-ack";
inline constexpr const char* kPbrElectHeader = "pbr-elect";
inline constexpr const char* kPbrCatchupHeader = "pbr-catchup";
inline constexpr const char* kPbrRecoveredHeader = "pbr-recovered";
inline constexpr const char* kPbrRedirectHeader = "pbr-redirect";
inline constexpr const char* kPbrHbHeader = "pbr-hb";
inline constexpr const char* kPbrDeliverHeader = "pbr-deliver";

/// Redirect sent to clients that contact a non-primary (or a recovering
/// primary): points at the current primary, if known.
struct RedirectBody {
  NodeId primary{};
  ConfigSeq config = 0;
  bool busy = false;  // true: retry the same node later
};

struct PbrConfig {
  net::Time hb_period = 1000000;         // 1 s
  net::Time suspect_timeout = 10000000;  // 10 s detection (Fig. 10(a) setting)
  std::size_t txn_cache_max = 20000;     // bounded executed-transaction cache
  std::size_t snapshot_batch_bytes = 50 * 1024;
  bool overlap_state_transfer = true;
  bool enable_failure_detection = true;
  obs::Tracer* tracer = nullptr;         // optional structured trace recorder
};

class PbrReplica {
 public:
  PbrReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
             std::shared_ptr<db::Engine> engine,
             std::shared_ptr<const workload::ProcedureRegistry> registry,
             std::vector<NodeId> initial_group,  // [0] is the initial primary
             std::vector<NodeId> spares, PbrConfig config = {}, ServerCosts costs = {});

  NodeId node() const { return self_; }
  bool is_primary() const { return state_ == State::kNormal && primary_ == self_; }
  ConfigSeq config_seq() const { return config_seq_; }
  const std::vector<NodeId>& members() const { return members_; }
  std::uint64_t executed_order() const { return executed_order_; }
  std::uint64_t state_digest() const { return executor_.engine().state_digest(); }
  std::uint64_t executed() const { return executor_.executed_count(); }
  db::Engine& engine() { return executor_.engine(); }

  /// Marks this replica as a passive spare (watches reconfigurations only).
  void make_spare() { state_ = State::kSpare; }

 private:
  enum class State : std::uint8_t {
    kNormal,      // member of the active configuration
    kElecting,    // proposal adopted, waiting for (g+1, seq) from all members
    kRecovering,  // backup receiving catch-up/snapshot
    kSpare,       // passive replacement candidate
    kDeposed,     // removed from the configuration
  };

  // Message bodies are the shared replication shapes (one codec each).
  using ForwardBody = ReplForwardBody;
  using AckBody = ReplAckBody;
  using ElectBody = ReplElectBody;
  using CatchupBody = ReplCatchupBody;

  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_deliver(net::NodeContext& ctx, const tob::Command& cmd);
  void on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req);
  void on_forward(net::NodeContext& ctx, const ForwardBody& fwd);
  void on_ack(net::NodeContext& ctx, NodeId from, const AckBody& ack);
  void on_elect(net::NodeContext& ctx, NodeId from, const ElectBody& elect);
  void on_heartbeat_tick(net::NodeContext& ctx);
  void suspect_and_propose(net::NodeContext& ctx, const std::vector<NodeId>& suspects);
  void maybe_finish_election(net::NodeContext& ctx);
  void start_backup_recovery(net::NodeContext& ctx);
  void send_state_to(net::NodeContext& ctx, NodeId backup, std::uint64_t backup_seq);
  /// Backup: drops any partial stream and presents its position to `sender`
  /// again, which answers with a fresh catch-up or snapshot.
  void refetch_state(net::NodeContext& ctx, NodeId sender);
  void backup_recovered(net::NodeContext& ctx, NodeId backup);
  void execute_and_cache(net::NodeContext& ctx, std::uint64_t order,
                         const workload::TxnRequest& req, bool send_response);
  void apply_buffered_forwards(net::NodeContext& ctx);
  void redirect(net::NodeContext& ctx, NodeId to, bool busy);

  net::Transport& world_;
  NodeId self_;
  tob::TobNode& tob_;
  TxnExecutor executor_;
  PbrConfig config_;
  ServerCosts costs_;

  State state_ = State::kNormal;
  ConfigSeq config_seq_ = 0;
  std::vector<NodeId> members_;
  std::vector<NodeId> spares_;
  NodeId primary_{};
  std::uint64_t executed_order_ = 0;  // last executed transaction order index
  std::uint64_t next_order_ = 0;      // primary: next order index to assign

  // Primary bookkeeping: outstanding transactions awaiting backup acks.
  struct Outstanding {
    workload::TxnRequest request;
    workload::TxnResponse response;
    std::set<std::uint32_t> waiting;  // backups that have not acked yet
  };
  std::map<std::uint64_t, Outstanding> outstanding_;
  std::set<std::uint32_t> recovered_backups_;  // acks required only from these

  // Bounded cache of executed transactions, for catch-up (step 5).
  std::deque<std::pair<std::uint64_t, workload::TxnRequest>> txn_cache_;

  // Election state.
  std::map<ConfigSeq, std::map<std::uint32_t, std::uint64_t>> pending_elects_;

  // Backup recovery state. The inbound snapshot stream (awaiting flag,
  // pending order) lives in the shared state-transfer receiver.
  std::deque<ForwardBody> buffered_forwards_;
  repl::StateTransfer::Receiver snap_rx_;
  net::Time last_stream_frame_ = 0;  // recovering: last sign of the transfer

  // Failure detection.
  std::map<std::uint32_t, net::Time> last_heard_;
  ClientId reconfig_client_id_;
  RequestSeq reconfig_seq_ = 0;
  std::set<std::uint64_t> proposed_;  // (config, suspect) pairs already proposed
  bool stopped_ = false;              // step 1: configuration stopped
  std::size_t group_size_target_ = 0;

  std::uint64_t responses_sent_ = 0;

  /// Step 7 / overlap optimization: the primary accepts new transactions
  /// once every backup recovered, or — with overlap enabled and at least
  /// three members — once one backup is up to date.
  bool accepting() const {
    if (members_.size() <= 1) return true;
    const std::size_t backups = members_.size() - 1;
    if (config_.overlap_state_transfer && members_.size() >= 3) {
      return !recovered_backups_.empty();
    }
    return recovered_backups_.size() >= backups;
  }
};

}  // namespace shadow::core

namespace shadow::wire {

template <>
struct Codec<core::RedirectBody> {
  static void encode(BytesWriter& w, const core::RedirectBody& v) {
    w.u32(v.primary.value);
    w.u64(v.config);
    w.u8(v.busy ? 1 : 0);
  }
  static core::RedirectBody decode(BytesReader& r) {
    core::RedirectBody v;
    v.primary = NodeId{r.u32()};
    v.config = r.u64();
    v.busy = r.u8() != 0;
    return v;
  }
};

}  // namespace shadow::wire
