#include "consensus/paxos.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace shadow::consensus {

namespace {

constexpr const char* kP1a = kP1aHeader;
constexpr const char* kP1b = kP1bHeader;
constexpr const char* kP2a = kP2aHeader;
constexpr const char* kP2b = kP2bHeader;
constexpr const char* kDecision = kDecisionHeader;
constexpr const char* kPropose = kProposeHeader;

}  // namespace

PaxosModule::PaxosModule(NodeId self, PaxosConfig config)
    : self_(self), config_(std::move(config)) {
  SHADOW_REQUIRE_MSG(config_.peers.size() >= 3, "Paxos needs at least 3 peers for f=1");
  SHADOW_REQUIRE(std::find(config_.peers.begin(), config_.peers.end(), self_) !=
                 config_.peers.end());
  leader_.ballot = Ballot{0, self_};
  peer_delivered_.assign(config_.peers.size(), 0);
}

void PaxosModule::propose(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
  const net::Message msg = net::make_msg(kPropose, ProposeBody{slot, batch});
  for (NodeId peer : config_.peers) {
    ctx.send(peer, msg);
  }
}

bool PaxosModule::on_message(net::NodeContext& ctx, const net::Message& msg) {
  // ---- leader role: a replica hands us a proposal -------------------------
  if (msg.header == kPropose) {
    const auto& body = net::msg_body<ProposeBody>(msg);
    config_.profile.charge(ctx, body.batch.size());
    if (auto learned_it = learned_.find(body.slot); learned_it != learned_.end()) {
      // Already decided: help the proposer catch up.
      ctx.send(msg.from, net::make_msg(kDecision, DecisionBody{body.slot, learned_it->second,
                                                                stable_}));
      return true;
    }
    // Below our frontier but not learned here (pruned, or skipped by a rejoin
    // snapshot): some value was chosen that we may no longer know, so we
    // must not start a commander for another. A peer that still holds the
    // decision answers the proposer.
    if (body.slot < delivered_) return true;
    const bool had_pending =
        std::any_of(leader_.proposals.begin(), leader_.proposals.end(),
                    [this](const auto& kv) { return !settled(kv.first); });
    auto [it, inserted] = leader_.proposals.try_emplace(body.slot, body.batch);
    if (inserted && !had_pending) pending_since_ = ctx.now();
    if (inserted && leader_.active) start_commander(ctx, body.slot, it->second);
    return true;
  }

  // ---- acceptor role -------------------------------------------------------
  if (msg.header == kP1a) {
    const auto& body = net::msg_body<P1aBody>(msg);
    config_.profile.charge_control(ctx);
    if (acceptor_.promised < body.ballot) raise_promise(ctx, body.ballot);
    P1bBody reply{body.ballot, acceptor_.promised, {}};
    reply.accepted.reserve(acceptor_.accepted.size());
    for (const auto& [slot, pv] : acceptor_.accepted) reply.accepted.push_back(pv);
    ctx.send(msg.from, net::make_msg(kP1b, std::move(reply)));
    return true;
  }
  if (msg.header == kP2a) {
    const auto& body = net::msg_body<P2aBody>(msg);
    config_.profile.charge(ctx, body.pvalue.batch.size());
    // A stale 2a for a forgotten slot: accepting it would re-grow the pruned
    // state, and a p2b without an accept would be a false vote. Drop it.
    if (body.pvalue.slot < floor_) return true;
    if (!(body.pvalue.ballot < acceptor_.promised)) {
      if (acceptor_.promised < body.pvalue.ballot) raise_promise(ctx, body.pvalue.ballot);
      auto [it, inserted] = acceptor_.accepted.try_emplace(body.pvalue.slot, body.pvalue);
      if (!inserted && it->second.ballot < body.pvalue.ballot) it->second = body.pvalue;
      if (config_.tracer) {
        config_.tracer->accept(ctx.now(), self_, body.pvalue.slot, body.pvalue.ballot.round,
                               body.pvalue.ballot.leader, body.pvalue.batch.digest());
      }
    }
    ctx.send(msg.from, net::make_msg(kP2b, P2bBody{body.pvalue.ballot, acceptor_.promised,
                                                   body.pvalue.slot, delivered_}));
    return true;
  }

  // ---- scout (phase 1 collector) -------------------------------------------
  if (msg.header == kP1b) {
    const auto& body = net::msg_body<P1bBody>(msg);
    config_.profile.charge(ctx, body.accepted.size());
    if (!leader_.scout || !(body.scout_ballot == leader_.scout->ballot)) return true;
    if (leader_.scout->ballot < body.promised) {
      preempted(ctx, body.promised);
      return true;
    }
    Scout& scout = *leader_.scout;
    if (scout.waitfor.erase(msg.from.value) == 0) return true;
    for (const PValue& pv : body.accepted) {
      auto [it, inserted] = scout.pvalues.try_emplace(pv.slot, pv);
      if (!inserted && it->second.ballot < pv.ballot) it->second = pv;  // pmax
    }
    if (config_.peers.size() - scout.waitfor.size() >= quorum()) {
      // Adopted: earlier accepted values override our own proposals.
      leader_.ballot = scout.ballot;
      for (const auto& [slot, pv] : scout.pvalues) {
        if (settled(slot)) continue;
        leader_.proposals[slot] = pv.batch;
      }
      leader_.active = true;
      if (config_.tracer) {
        config_.tracer->ballot(ctx.now(), self_, leader_.ballot.round, leader_.ballot.leader,
                               obs::BallotPhase::kAdopted);
      }
      leader_.scout.reset();
      for (const auto& [slot, batch] : leader_.proposals) {
        if (!settled(slot)) start_commander(ctx, slot, batch);
      }
    }
    return true;
  }

  // ---- commander (phase 2 collector) ----------------------------------------
  if (msg.header == kP2b) {
    const auto& body = net::msg_body<P2bBody>(msg);
    config_.profile.charge_control(ctx);
    // Every p2b (late ones too) reports the acceptor's frontier.
    const auto peer = std::find(config_.peers.begin(), config_.peers.end(), msg.from);
    if (peer != config_.peers.end()) {
      Slot& known = peer_delivered_[static_cast<std::size_t>(peer - config_.peers.begin())];
      known = std::max(known, body.delivered);
    }
    auto it = leader_.commanders.find(body.slot);
    if (it == leader_.commanders.end() || !(it->second.ballot == body.commander_ballot)) {
      return true;
    }
    if (it->second.ballot < body.promised) {
      preempted(ctx, body.promised);
      return true;
    }
    Commander& cmd = it->second;
    if (cmd.waitfor.erase(msg.from.value) == 0) return true;
    if (config_.peers.size() - cmd.waitfor.size() >= quorum()) {
      const net::Message dec =
          net::make_msg(kDecision, DecisionBody{cmd.slot, cmd.batch, stable_frontier()});
      for (NodeId peer : config_.peers) {
        ctx.send(peer, dec);
      }
      leader_.commanders.erase(it);
    }
    return true;
  }

  // ---- learner role ---------------------------------------------------------
  if (msg.header == kDecision) {
    const auto& body = net::msg_body<DecisionBody>(msg);
    config_.profile.charge(ctx, body.batch.size());
    if (stable_ < body.stable) {
      stable_ = body.stable;
      prune();
    }
    learn(ctx, body.slot, body.batch);
    return true;
  }
  return false;
}

void PaxosModule::start_scout(net::NodeContext& ctx) {
  last_scout_attempt_ = ctx.now();
  max_round_seen_ += 1;
  Scout scout;
  scout.ballot = Ballot{max_round_seen_, self_};
  scout.waitfor.clear();
  for (NodeId peer : config_.peers) scout.waitfor.insert(peer.value);
  scout.last_sent = ctx.now();
  leader_.scout = std::move(scout);
  if (config_.tracer) {
    config_.tracer->ballot(ctx.now(), self_, leader_.scout->ballot.round, self_,
                           obs::BallotPhase::kScout);
  }
  const net::Message p1a = net::make_msg(kP1a, P1aBody{leader_.scout->ballot});
  for (NodeId peer : config_.peers) {
    ctx.send(peer, p1a);
  }
}

void PaxosModule::start_commander(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
  Commander cmd;
  cmd.ballot = leader_.ballot;
  cmd.slot = slot;
  cmd.batch = batch;
  for (NodeId peer : config_.peers) cmd.waitfor.insert(peer.value);
  cmd.last_sent = ctx.now();
  leader_.commanders[slot] = std::move(cmd);
  const net::Message p2a = net::make_msg(kP2a, P2aBody{PValue{leader_.ballot, slot, batch}});
  for (NodeId peer : config_.peers) {
    ctx.send(peer, p2a);
  }
}

void PaxosModule::preempted(net::NodeContext& ctx, const Ballot& by) {
  if (config_.tracer) {
    config_.tracer->ballot(ctx.now(), self_, by.round, by.leader, obs::BallotPhase::kPreempted);
  }
  max_round_seen_ = std::max(max_round_seen_, by.round);
  leader_.active = false;
  leader_.scout.reset();
  leader_.commanders.clear();
}

void PaxosModule::learn(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
  if (slot < floor_) return;  // forgotten: delivered everywhere already
  auto [it, inserted] = learned_.try_emplace(slot, batch);
  if (!inserted) return;
  last_progress_ = ctx.now();
  leader_.proposals.erase(slot);
  leader_.commanders.erase(slot);
  notify_decide(ctx, slot, batch);
}

void PaxosModule::raise_promise(net::NodeContext& ctx, const Ballot& ballot) {
  acceptor_.promised = ballot;
  if (config_.tracer) {
    config_.tracer->promise(ctx.now(), self_, ballot.round, ballot.leader, config_.peers.size());
  }
}

void PaxosModule::set_delivered(Slot next) {
  if (next <= delivered_) return;
  delivered_ = next;
  // Our own proposals below the frontier are settled whether or not we
  // learned them (a rejoin snapshot skips slots): never re-propose them.
  leader_.proposals.erase(leader_.proposals.begin(), leader_.proposals.lower_bound(delivered_));
  leader_.commanders.erase(leader_.commanders.begin(),
                           leader_.commanders.lower_bound(delivered_));
  prune();
}

Slot PaxosModule::stable_frontier() const {
  Slot stable = delivered_;  // the leader counts itself at its own frontier
  for (std::size_t i = 0; i < config_.peers.size(); ++i) {
    if (config_.peers[i] != self_) stable = std::min(stable, peer_delivered_[i]);
  }
  return stable;
}

void PaxosModule::prune() {
  const Slot floor = std::min(stable_, delivered_);
  if (floor <= floor_) return;
  floor_ = floor;
  learned_.erase(learned_.begin(), learned_.lower_bound(floor_));
  acceptor_.accepted.erase(acceptor_.accepted.begin(), acceptor_.accepted.lower_bound(floor_));
}

void PaxosModule::on_tick(net::NodeContext& ctx) {
  const bool pending =
      std::any_of(leader_.proposals.begin(), leader_.proposals.end(),
                  [this](const auto& kv) { return !settled(kv.first); });
  if (!pending) return;
  // Lost-message recovery: the network may drop frames (link faults, a peer
  // dying mid-send), so an in-flight scout or commander that has gone silent
  // re-sends its 1a/2a to the acceptors not yet heard from. Acceptors always
  // re-answer (promise/accept state is monotone), duplicate 1b/2b replies
  // are ignored by the waitfor-erase test, and duplicate decisions dedup in
  // learn() — so retransmission is safe; without it a single dropped reply
  // wedges the ballot forever (found by the seeded chaos campaigns).
  if (leader_.scout) {  // phase 1 in flight
    Scout& scout = *leader_.scout;
    if (ctx.now() - scout.last_sent >= config_.retransmit_timeout) {
      scout.last_sent = ctx.now();
      const net::Message p1a = net::make_msg(kP1a, P1aBody{scout.ballot});
      for (NodeId peer : config_.peers) {
        if (scout.waitfor.count(peer.value) > 0) ctx.send(peer, p1a);
      }
    }
    return;
  }
  if (leader_.active) {
    for (auto& [slot, cmd] : leader_.commanders) {
      if (ctx.now() - cmd.last_sent < config_.retransmit_timeout) continue;
      cmd.last_sent = ctx.now();
      const net::Message p2a = net::make_msg(kP2a, P2aBody{PValue{cmd.ballot, slot, cmd.batch}});
      for (NodeId peer : config_.peers) {
        if (cmd.waitfor.count(peer.value) > 0) ctx.send(peer, p2a);
      }
    }
    return;
  }

  // Failure detection is unreliable and timeout-based; stagger timeouts by
  // peer rank so a single node usually takes over first.
  const auto rank = static_cast<std::uint64_t>(
      std::find(config_.peers.begin(), config_.peers.end(), self_) - config_.peers.begin());
  const bool bootstrap = max_round_seen_ == 0 && rank == 0;
  // "No progress" is measured from whichever is later: the last decision or
  // the moment the currently-pending work appeared (an idle system is not a
  // dead leader).
  const net::Time reference = std::max(last_progress_, pending_since_);
  const net::Time patience = config_.leader_timeout * (1 + rank);
  if (bootstrap ||
      (ctx.now() - reference > patience &&
       ctx.now() - last_scout_attempt_ > config_.scout_retry)) {
    start_scout(ctx);
  }
}

}  // namespace shadow::consensus
