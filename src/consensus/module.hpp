// The consensus-module interface the total order broadcast service builds
// on. The paper's broadcast service "is able to switch between protocols for
// different messages"; both TwoThirdModule and PaxosModule implement this
// interface, and the TOB node instantiates whichever the configuration
// selects.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "consensus/exec_profile.hpp"
#include "consensus/types.hpp"
#include "net/transport.hpp"

namespace shadow::consensus {

class ConsensusModule {
 public:
  /// Decisions carry the batch in its encoded sub-frame form: the bytes are
  /// the ones that travelled (never re-encoded), and `.commands()` decodes on
  /// demand (memoized).
  using DecideFn = std::function<void(net::NodeContext&, Slot, const EncodedBatch&)>;

  virtual ~ConsensusModule() = default;

  /// Propose `batch` for `slot` on behalf of this node. The batch is already
  /// encoded; the module copies its bytes into every message that carries
  /// it (propose forward, 2a, vote, re-proposal, decision), never re-encoding.
  virtual void propose(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) = 0;

  /// Offers an incoming message; returns true if consumed.
  virtual bool on_message(net::NodeContext& ctx, const net::Message& msg) = 0;

  /// Periodic driver for round/ballot timeouts and retransmissions.
  virtual void on_tick(net::NodeContext& ctx) = 0;

  /// Best proposer for new values, if the protocol has one (Paxos: the
  /// current leader; leaderless protocols return nullopt). The broadcast
  /// service forwards pending commands there instead of racing proposals
  /// for the same slot.
  virtual std::optional<NodeId> proposer_hint() const { return std::nullopt; }

  /// The local delivery frontier: every slot below `next` has been
  /// delivered here (or skipped by a rejoin snapshot). The TOB reports it
  /// after each delivered slot and on resume, so a module may forget slots
  /// every peer has delivered. The default keeps everything (TwoThird is
  /// sim-only and retains its whole history).
  virtual void set_delivered(Slot /*next*/) {}

  /// Called (at most once per slot per node) when a slot's value is learned.
  void set_on_decide(DecideFn fn) { on_decide_ = std::move(fn); }

 protected:
  void notify_decide(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
    if (on_decide_) on_decide_(ctx, slot, batch);
  }

  DecideFn on_decide_;
};

}  // namespace shadow::consensus
