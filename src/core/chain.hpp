// Chain replication on the total order broadcast service (extension).
//
// Sec. III of the paper lists chain replication [23] among the protocols the
// formally-modeled broadcast service enables, alongside primary-backup and
// state machine replication; this module implements it, reusing the same
// recovery pattern as PBR (suspicion → TOB-agreed reconfiguration →
// election by longest log → catch-up/snapshot → resume).
//
// Normal case (van Renesse & Schneider):
//   * update transactions enter at the HEAD, execute, and flow down the
//     chain over FIFO links; every replica executes in the same order; the
//     TAIL answers the client — so an answered update is in *every* replica
//     (stronger than PBR's ack-collection, with no ack traffic at all);
//   * read-only transactions are answered by the TAIL alone, which is safe
//     precisely because the tail only knows updates the whole chain has.
//
// A replica that receives a transaction out of place redirects the client
// (writes → head, reads → tail).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/replica_common.hpp"
#include "repl/state_transfer.hpp"
#include "tob/tob.hpp"

namespace shadow::core {

inline constexpr const char* kChainReconfigProc = "::chain-reconfig";
inline constexpr const char* kChainElectHeader = "chain-elect";
inline constexpr const char* kChainCatchupHeader = "chain-catchup";
inline constexpr const char* kChainRecoveredHeader = "chain-recovered";
inline constexpr const char* kChainHbHeader = "chain-hb";
inline constexpr const char* kChainDeliverHeader = "chain-deliver";
// Redirects reuse the PBR redirect message (DbClient already follows it);
// `primary` carries the head for writes or the tail for reads.

struct ChainConfig {
  net::Time hb_period = 1000000;
  net::Time suspect_timeout = 10000000;
  std::size_t txn_cache_max = 20000;
  std::size_t snapshot_batch_bytes = 50 * 1024;
  bool enable_failure_detection = true;
  /// Procedures the tail may answer alone (read-only).
  std::set<std::string> read_only_procs;
  obs::Tracer* tracer = nullptr;  // optional structured trace recorder
};

class ChainReplica {
 public:
  ChainReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
               std::shared_ptr<db::Engine> engine,
               std::shared_ptr<const workload::ProcedureRegistry> registry,
               std::vector<NodeId> chain,  // head first, tail last
               std::vector<NodeId> spares, ChainConfig config = {},
               ServerCosts costs = {});

  NodeId node() const { return self_; }
  bool is_head() const { return state_ == State::kNormal && !chain_.empty() && chain_.front() == self_; }
  bool is_tail() const { return state_ == State::kNormal && !chain_.empty() && chain_.back() == self_; }
  ConfigSeq config_seq() const { return config_seq_; }
  const std::vector<NodeId>& chain() const { return chain_; }
  std::uint64_t executed_order() const { return executed_order_; }
  std::uint64_t state_digest() const { return executor_.engine().state_digest(); }
  std::uint64_t executed() const { return executor_.executed_count(); }
  db::Engine& engine() { return executor_.engine(); }

  void make_spare() { state_ = State::kSpare; }

 private:
  enum class State : std::uint8_t { kNormal, kElecting, kRecovering, kSpare, kDeposed };

  // Message bodies are the shared replication shapes (one codec each);
  // chain uses them under its own "chain-*" headers, and state transfer
  // under the shared snapshot-stream headers.
  using ForwardBody = ReplForwardBody;
  using ElectBody = ReplElectBody;
  using CatchupBody = ReplCatchupBody;

  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_deliver(net::NodeContext& ctx, const tob::Command& cmd);
  void on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req);
  void on_forward(net::NodeContext& ctx, const ForwardBody& fwd);
  void on_elect(net::NodeContext& ctx, NodeId from, const ElectBody& elect);
  void maybe_finish_election(net::NodeContext& ctx);
  void send_state_to(net::NodeContext& ctx, NodeId member, std::uint64_t member_seq);
  /// Recovering member: drops any partial stream and presents its position
  /// to `sender` again, which answers with a fresh catch-up or snapshot.
  void refetch_state(net::NodeContext& ctx, NodeId sender);
  void on_heartbeat_tick(net::NodeContext& ctx);
  void suspect_and_propose(net::NodeContext& ctx, const std::vector<NodeId>& suspects);
  void execute_and_cache(net::NodeContext& ctx, std::uint64_t order,
                         const workload::TxnRequest& req, bool answer_client);
  void forward_down(net::NodeContext& ctx, std::uint64_t order, const workload::TxnRequest& req);
  void apply_buffered(net::NodeContext& ctx);
  std::optional<NodeId> successor() const;

  net::Transport& world_;
  NodeId self_;
  tob::TobNode& tob_;
  TxnExecutor executor_;
  ChainConfig config_;

  State state_ = State::kNormal;
  ConfigSeq config_seq_ = 0;
  std::vector<NodeId> chain_;
  std::vector<NodeId> spares_;
  std::size_t chain_size_target_ = 0;
  std::uint64_t executed_order_ = 0;
  std::uint64_t next_order_ = 0;  // head only

  std::deque<std::pair<std::uint64_t, workload::TxnRequest>> txn_cache_;
  std::map<ConfigSeq, std::map<std::uint32_t, std::uint64_t>> pending_elects_;
  std::deque<ForwardBody> buffered_forwards_;
  repl::StateTransfer::Receiver snap_rx_;
  NodeId source_{};                  // recovering: the election's state source
  net::Time last_stream_frame_ = 0;  // recovering: last sign of the transfer
  std::set<std::uint32_t> recovered_;
  bool accepting_ = true;

  std::map<std::uint32_t, net::Time> last_heard_;
  std::set<std::uint64_t> proposed_;
  ClientId reconfig_client_id_;
  RequestSeq reconfig_seq_ = 0;
};

}  // namespace shadow::core
