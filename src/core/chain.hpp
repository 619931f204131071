// Chain replication on the total order broadcast service (extension).
//
// Sec. III of the paper lists chain replication [23] among the protocols the
// formally-modeled broadcast service enables, alongside primary-backup and
// state machine replication; this module implements it on the recovery core
// PBR uses (core/recovery.hpp: suspicion → TOB-agreed reconfiguration →
// election by longest log → catch-up/snapshot → resume). The election
// winner is the chain's state source — the most-advanced survivor, since
// updates flow head → tail and prefixes only shrink down-chain — and the
// configured chain order resumes once the source has brought every other
// member up to date.
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

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/recovery.hpp"

namespace shadow::core {

// Redirects reuse the PBR redirect message (DbClient already follows it);
// `primary` carries the head for writes or the tail for reads.

struct ChainConfig : RecoveryConfig {
  /// Procedures the tail may answer alone (read-only).
  std::set<std::string> read_only_procs;
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
  bool is_head() const { return recovery_.normal() && chain().front() == self_; }
  bool is_tail() const { return recovery_.normal() && chain().back() == self_; }
  ConfigSeq config_seq() const { return recovery_.config_seq(); }
  const std::vector<NodeId>& chain() const { return recovery_.members(); }
  std::uint64_t executed_order() const { return recovery_.executed_order(); }
  std::uint64_t state_digest() const { return executor_.engine().state_digest(); }
  std::uint64_t executed() const { return executor_.executed_count(); }
  db::Engine& engine() { return executor_.engine(); }

  void make_spare() { recovery_.make_spare(); }

 private:
  void on_message(net::NodeContext& ctx, const net::Message& msg);
  void on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req);
  void on_forward(net::NodeContext& ctx, const ReplForwardBody& fwd);
  void forward_down(net::NodeContext& ctx, std::uint64_t order, const workload::TxnRequest& req);
  std::optional<NodeId> successor() const;

  NodeId self_;
  TxnExecutor executor_;
  ChainConfig config_;
  RecoveryCore recovery_;
  /// Head: updates are taken once the source saw every member recovered.
  bool accepting_ = true;
};

}  // namespace shadow::core
