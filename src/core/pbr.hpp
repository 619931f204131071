// ShadowDB — primary-backup replication (Sec. III-A).
//
// Normal case (hand-written, as in the paper): the client sends T to the
// primary; on first reception the primary executes and commits T and
// forwards it to the backups; backups execute, commit and acknowledge; the
// primary answers the client once every (recovered) backup acknowledged.
// Execution is sequential at every replica. Transactions are tagged with the
// configuration sequence number; backups only accept matching tags.
//
// Recovery is the seven-step procedure of core/recovery.hpp, which this
// replica shares with chain replication. What is PBR's own: step 1 stops
// the suspecting replica (it answers no client and drops forwards until the
// next configuration), the winner of the election is the primary, and step 7
// resumes once every backup recovered — or, with the overlap optimization,
// once at least one backup is up to date, while the remaining snapshots
// are still being installed (forwards to those backups queue behind their
// stream on the FIFO links).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/recovery.hpp"

namespace shadow::core {

inline constexpr const char* kPbrAckHeader = "pbr-ack";
inline constexpr const char* kPbrRedirectHeader = "pbr-redirect";

/// Redirect sent to clients that contact a non-primary (or a recovering
/// primary): points at the current primary, if known.
struct RedirectBody {
  NodeId primary{};
  ConfigSeq config = 0;
  bool busy = false;  // true: retry the same node later
};

struct PbrConfig : RecoveryConfig {
  bool overlap_state_transfer = true;
};

class PbrReplica {
 public:
  PbrReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
             std::shared_ptr<db::Engine> engine,
             std::shared_ptr<const workload::ProcedureRegistry> registry,
             std::vector<NodeId> initial_group,  // [0] is the initial primary
             std::vector<NodeId> spares, PbrConfig config = {}, ServerCosts costs = {});

  NodeId node() const { return self_; }
  bool is_primary() const { return recovery_.normal() && recovery_.leader() == self_; }
  ConfigSeq config_seq() const { return recovery_.config_seq(); }
  const std::vector<NodeId>& members() const { return recovery_.members(); }
  std::uint64_t executed_order() const { return recovery_.executed_order(); }
  std::uint64_t state_digest() const { return executor_.engine().state_digest(); }
  std::uint64_t executed() const { return executor_.executed_count(); }
  db::Engine& engine() { return executor_.engine(); }

  /// Marks this replica as a passive spare (watches reconfigurations only).
  void make_spare() { recovery_.make_spare(); }

 private:
  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req);
  void on_forward(net::NodeContext& ctx, const ReplForwardBody& fwd);
  void on_ack(net::NodeContext& ctx, NodeId from, const ReplAckBody& ack);
  void redirect(net::NodeContext& ctx, NodeId to, bool busy);

  NodeId self_;
  TxnExecutor executor_;
  PbrConfig config_;
  RecoveryCore recovery_;

  // Primary bookkeeping: outstanding transactions awaiting backup acks.
  struct Outstanding {
    workload::TxnRequest request;
    workload::TxnResponse response;
    std::set<std::uint32_t> waiting;  // backups that have not acked yet
  };
  std::map<std::uint64_t, Outstanding> outstanding_;
  bool stopped_ = false;  // step 1: configuration stopped

  /// Step 7 / overlap optimization: the primary accepts new transactions
  /// once every backup recovered, or — with overlap enabled and at least
  /// three members — once one backup is up to date.
  bool accepting() const {
    const std::size_t members = recovery_.members().size();
    if (members <= 1) return true;
    if (config_.overlap_state_transfer && members >= 3) return !recovery_.recovered().empty();
    return recovery_.recovered().size() >= members - 1;
  }
};

}  // namespace shadow::core

namespace shadow::wire {

template <>
struct Codec<core::RedirectBody>
    : Fields<&core::RedirectBody::primary, &core::RedirectBody::config,
             &core::RedirectBody::busy> {};

}  // namespace shadow::wire
