#include "consensus/two_third.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace shadow::consensus {

namespace {

constexpr const char* kDecideHeader = kTwoThirdDecideHeader;

}  // namespace

TwoThirdModule::TwoThirdModule(NodeId self, TwoThirdConfig config)
    : self_(self), config_(std::move(config)) {
  SHADOW_REQUIRE_MSG(config_.peers.size() >= 4,
                     "One-Third-Rule requires n > 3f; use at least 4 peers for f=1");
  SHADOW_REQUIRE(std::find(config_.peers.begin(), config_.peers.end(), self_) !=
                 config_.peers.end());
}

void TwoThirdModule::propose(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
  Instance& inst = instances_[slot];
  if (inst.decision) return;
  if (!inst.estimate) {
    inst.estimate = batch;
    send_vote(ctx, slot, inst);
    // Votes that raced ahead of our proposal may already satisfy the round.
    try_advance(ctx, slot, inst);
  }
}

void TwoThirdModule::send_vote(net::NodeContext& ctx, Slot slot, Instance& inst) {
  SHADOW_CHECK(inst.estimate.has_value());
  const net::Message vote = net::make_msg(kVoteHeader, VoteBody{slot, inst.round, *inst.estimate});
  for (NodeId peer : config_.peers) {
    ctx.send(peer, vote);
  }
  inst.last_sent = ctx.now();
}

bool TwoThirdModule::on_message(net::NodeContext& ctx, const net::Message& msg) {
  if (msg.header == kVoteHeader) {
    const auto& vote = net::msg_body<VoteBody>(msg);
    config_.profile.charge(ctx, vote.batch.size());
    Instance& inst = instances_[vote.slot];
    if (inst.decision) {
      // A decided process answers votes with the decision so laggards learn.
      if (msg.from != self_) {
        ctx.send(msg.from, net::make_msg(kDecideHeader, DecideBody{vote.slot, *inst.decision}));
      }
      return true;
    }
    // Participate even without a local proposal: adopt the first estimate
    // seen (the fully symmetric protocol needs all correct processes voting).
    if (!inst.estimate) {
      inst.estimate = vote.batch;
      send_vote(ctx, vote.slot, inst);
    }
    inst.votes[vote.round][msg.from.value] = vote.batch;
    try_advance(ctx, vote.slot, inst);
    return true;
  }
  if (msg.header == kDecideHeader) {
    const auto& dec = net::msg_body<DecideBody>(msg);
    config_.profile.charge(ctx, dec.batch.size());
    Instance& inst = instances_[dec.slot];
    if (!inst.decision) decide(ctx, dec.slot, inst, dec.batch);
    return true;
  }
  return false;
}

void TwoThirdModule::try_advance(net::NodeContext& ctx, Slot slot, Instance& inst) {
  if (inst.decision || !inst.estimate) return;
  // Loop: a buffered future-round vote set may let us advance repeatedly.
  while (true) {
    const auto it = inst.votes.find(inst.round);
    if (it == inst.votes.end() || it->second.size() < threshold()) return;
    const std::map<std::uint32_t, EncodedBatch>& received = it->second;

    // Count value frequencies; track the smallest most-frequent value.
    // EncodedBatch orders by payload bytes: the codec is deterministic, so
    // every process breaks frequency ties the same way without decoding.
    std::map<EncodedBatch, std::size_t> freq;
    for (const auto& [peer, batch] : received) ++freq[batch];
    const EncodedBatch* best = nullptr;
    std::size_t best_count = 0;
    for (const auto& [batch, count] : freq) {
      if (count > best_count) {  // map iterates in value order: first max is smallest
        best = &batch;
        best_count = count;
      }
    }
    SHADOW_CHECK(best != nullptr);

    if (best_count >= threshold()) {
      decide(ctx, slot, inst, *best);
      return;
    }
    inst.estimate = *best;
    ++inst.round;
    if (config_.tracer) config_.tracer->round(ctx.now(), self_, slot, inst.round);
    send_vote(ctx, slot, inst);
  }
}

void TwoThirdModule::decide(net::NodeContext& ctx, Slot slot, Instance& inst,
                            const EncodedBatch& value) {
  inst.decision = value;
  const net::Message dec = net::make_msg(kDecideHeader, DecideBody{slot, value});
  for (NodeId peer : config_.peers) {
    if (peer != self_) ctx.send(peer, dec);
  }
  notify_decide(ctx, slot, value);
}

void TwoThirdModule::on_tick(net::NodeContext& ctx) {
  // Retransmit the current vote for stalled undecided instances. Crashed
  // peers never answer; retransmission covers proposals that raced with a
  // peer joining an instance.
  for (auto& [slot, inst] : instances_) {
    if (inst.decision || !inst.estimate) continue;
    if (ctx.now() - inst.last_sent >= config_.round_timeout) {
      send_vote(ctx, slot, inst);
    }
  }
}

}  // namespace shadow::consensus
