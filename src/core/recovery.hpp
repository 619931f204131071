// ShadowDB — the recovery core primary-backup and chain replication share.
//
// Both protocols recover by the paper's seven-step procedure (Sec. III-A),
// driven by the formally-generated TOB service:
//   1. a replica that suspects a member (heartbeat silence) stops the normal
//      case of the current configuration;
//   2. it broadcasts a proposal (current seq g + new member list) via TOB;
//   3. on delivery, replicas adopt g+1 iff the proposal's g matches, and
//      send (g+1, seq_r) to all members of the new configuration;
//   4. everyone waits for all members: the winner is the replica with the
//      largest executed sequence number (ties → smallest id) — the PBR
//      primary, or the chain's state source;
//   5. the winner sends missing transactions from its bounded cache, or a
//      snapshot stream when the cache does not reach far enough;
//   6. each member acknowledges recovery;
//   7. the protocol resumes by its own rule (see PbrReplica / ChainReplica).
// A member that sees a damaged stream, or no sign of the transfer for a
// suspicion interval, presents its position to the winner again and gets a
// fresh catch-up or stream. A member drops the forwards that reach it before
// its state: links are FIFO and the winner sends a member its state before
// any later forward, so such a forward is already inside that state, and
// every forward sent after it queues behind it on the link (this is what
// lets PBR's overlap optimization resume before a snapshot is installed).
//
// A protocol owns one RecoveryCore and keeps only its normal case. It hands
// every message to on_message first; the core consumes the recovery traffic
// and calls back through Hooks where the protocols differ.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "core/client_ids.hpp"
#include "core/heartbeat.hpp"
#include "core/replica_common.hpp"
#include "repl/state_transfer.hpp"
#include "tob/tob.hpp"

namespace shadow::core {

// Node-addressed recovery traffic. One vocabulary for both protocols — a
// node only ever runs one, and `config` scopes each message to it.
inline constexpr const char* kReplReconfigProc = "::repl-reconfig";
inline constexpr const char* kReplElectHeader = "repl-elect";
inline constexpr const char* kReplCatchupHeader = "repl-catchup";
inline constexpr const char* kReplRecoveredHeader = "repl-recovered";
inline constexpr const char* kReplHbHeader = "repl-hb";
inline constexpr const char* kReplDeliverHeader = "repl-deliver";

/// Election round: (configuration, highest executed order).
struct ReplElectBody {
  ConfigSeq config = 0;
  std::uint64_t executed = 0;
};

/// Catch-up from the bounded executed-transaction cache.
struct ReplCatchupBody {
  ConfigSeq config = 0;
  std::vector<std::pair<std::uint64_t, workload::TxnRequest>> txns;
};

/// Knobs of the shared recovery procedure (PbrConfig and ChainConfig add
/// their normal-case ones).
struct RecoveryConfig {
  net::Time hb_period = 1000000;         // 1 s
  net::Time suspect_timeout = 10000000;  // 10 s detection (Fig. 10(a) setting)
  std::size_t txn_cache_max = 20000;     // bounded executed-transaction cache
  std::size_t snapshot_batch_bytes = 50 * 1024;
  obs::Tracer* tracer = nullptr;         // optional structured trace recorder
};

class RecoveryCore {
 public:
  /// Where the protocols differ.
  struct Hooks {
    /// Step 1: a suspicion stops the normal case (before the proposal).
    std::function<void()> stop;
    /// Step 3: a reconfiguration was adopted; drop the normal-case state of
    /// the old configuration.
    std::function<void()> reset;
    /// Winner only: the set of up-to-date members grew (the election ended
    /// here, or a member acknowledged its recovery). Optional.
    std::function<void()> recovered{};
  };

  RecoveryCore(net::Transport& world, NodeId self, tob::TobNode& tob, TxnExecutor& executor,
               std::vector<NodeId> members, std::vector<NodeId> spares, RecoveryConfig config,
               Hooks hooks);
  RecoveryCore(const RecoveryCore&) = delete;
  RecoveryCore& operator=(const RecoveryCore&) = delete;

  /// Records liveness for every message; consumes the recovery traffic
  /// (returns true) and leaves the rest to the protocol.
  bool on_message(net::NodeContext& ctx, const net::Message& msg);

  /// Ordering replica (PBR primary, chain head): executes a client request
  /// first-hand. A duplicate is answered from the dedup table and returns
  /// order 0; otherwise the transaction gets the next order and is cached.
  struct Ordered {
    std::uint64_t order = 0;
    workload::TxnResponse response;
  };
  Ordered execute_first(net::NodeContext& ctx, const workload::TxnRequest& req);
  /// Executes the transaction at `order` (forwarded or caught up) and caches it.
  void execute_and_cache(net::NodeContext& ctx, std::uint64_t order,
                         const workload::TxnRequest& req, bool answer_client);

  void make_spare() { state_ = State::kSpare; }
  /// An active, up-to-date member of the current configuration.
  bool normal() const { return state_ == State::kNormal; }
  ConfigSeq config_seq() const { return config_seq_; }
  const std::vector<NodeId>& members() const { return members_; }
  bool is_member(NodeId node) const;
  /// The election winner (UINT32_MAX mid-election); initially members[0].
  NodeId leader() const { return leader_; }
  std::uint64_t executed_order() const { return executed_order_; }
  /// Winner: the other members known to be up to date.
  const std::set<std::uint32_t>& recovered() const { return recovered_; }

 private:
  enum class State : std::uint8_t {
    kNormal,      // member of the active configuration
    kElecting,    // proposal adopted, waiting for (g+1, seq) from all members
    kRecovering,  // receiving catch-up/snapshot from the winner
    kSpare,       // passive replacement candidate
    kDeposed,     // removed from the configuration
  };

  void on_deliver(net::NodeContext& ctx, const tob::Command& cmd);
  void on_elect(net::NodeContext& ctx, NodeId from, const ReplElectBody& elect);
  void maybe_finish_election(net::NodeContext& ctx);
  void send_state_to(net::NodeContext& ctx, NodeId member, std::uint64_t member_seq);
  /// Recovering member (the fetch session's refetch): presents its position
  /// to `sender` again, which answers with a fresh catch-up or snapshot.
  void refetch_state(net::NodeContext& ctx, NodeId sender);
  /// Step 6 at a member whose state arrived.
  void finish_recovery(net::NodeContext& ctx, NodeId winner);
  void on_heartbeat_tick(net::NodeContext& ctx);
  void suspect_and_propose(net::NodeContext& ctx, const std::vector<NodeId>& suspects);
  void cache(std::uint64_t order, const workload::TxnRequest& req);
  void trace_execute(net::NodeContext& ctx, const workload::TxnRequest& req, std::uint64_t order,
                     const TxnExecutor::Execution& exec) const;

  NodeId self_;
  tob::TobNode& tob_;
  TxnExecutor& executor_;
  RecoveryConfig config_;
  Hooks hooks_;

  State state_ = State::kNormal;
  ConfigSeq config_seq_ = 0;
  std::vector<NodeId> members_;
  std::vector<NodeId> spares_;
  std::size_t group_size_target_ = 0;
  NodeId leader_{};
  std::uint64_t executed_order_ = 0;  // last executed transaction order index
  std::uint64_t next_order_ = 0;      // ordering replica: last order assigned

  // Bounded cache of executed transactions, for catch-up (step 5).
  std::deque<std::pair<std::uint64_t, workload::TxnRequest>> txn_cache_;
  std::map<ConfigSeq, std::map<std::uint32_t, std::uint64_t>> pending_elects_;
  std::set<std::uint32_t> recovered_;

  // Receiver side: armed from a configuration's adoption until this member
  // is up to date.
  repl::FetchSession fetch_;

  // Failure detection: any message from a member is a liveness signal.
  HeartbeatDetector hb_;
  ClientId reconfig_client_id_;
  RequestSeq reconfig_seq_ = 0;
};

}  // namespace shadow::core

namespace shadow::wire {

template <>
struct Codec<core::ReplElectBody>
    : Fields<&core::ReplElectBody::config, &core::ReplElectBody::executed> {};

template <>
struct Codec<core::ReplCatchupBody>
    : Fields<&core::ReplCatchupBody::config, &core::ReplCatchupBody::txns> {};

}  // namespace shadow::wire
