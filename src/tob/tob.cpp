#include "tob/tob.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace shadow::tob {

TobNode::TobNode(net::Transport& world, NodeId self, TobConfig config,
                 consensus::SafetyRecorder* safety)
    : world_(world), self_(self), config_(std::move(config)) {
  SHADOW_REQUIRE(!config_.nodes.empty());
  SHADOW_REQUIRE(config_.batch_min >= 1 && config_.batch_min <= config_.batch_max);
  batch_limit_ = config_.adaptive_batching ? config_.batch_min : config_.batch_max;
  // Metric names are prefixed once here, not per observation (the scope is
  // empty — the classic names — outside sharded deployments).
  adaptive_metric_ = config_.metric_scope + "net.batch_size_adaptive";
  encode_metric_ = config_.metric_scope + "net.batch_encode_count";

  if (config_.protocol == Protocol::kPaxos) {
    consensus::PaxosConfig pc = config_.paxos;
    if (pc.peers.empty()) pc.peers = config_.nodes;
    pc.profile.tier = config_.profile.tier;
    pc.profile.costs = config_.profile.costs;
    module_ = std::make_unique<consensus::PaxosModule>(self_, std::move(pc), safety);
  } else {
    consensus::TwoThirdConfig tc = config_.two_third;
    if (tc.peers.empty()) tc.peers = config_.nodes;
    tc.profile.tier = config_.profile.tier;
    tc.profile.costs = config_.profile.costs;
    module_ = std::make_unique<consensus::TwoThirdModule>(self_, std::move(tc), safety);
  }

  module_->set_on_decide([this](net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
    on_decide(ctx, slot, batch);
  });

  world_.set_handler(self_, [this](net::NodeContext& ctx, const net::Message& msg) {
    on_message(ctx, msg);
  });

  world_.schedule_timer_for_node(self_, world_.now() + config_.tick_period,
                                 [this](net::NodeContext& ctx) { arm_tick(ctx); });
}

void TobNode::arm_tick(net::NodeContext& ctx) {
  if (!paused_) {
    module_->on_tick(ctx);
    // Expire stale relays: the leader we relayed to may have crashed.
    for (PendingCommand& p : pending_) {
      if (!p.in_flight && p.relayed_at != 0 &&
          ctx.now() - p.relayed_at > config_.relay_timeout) {
        p.relayed_at = 0;
        p.relay_expired = true;
      }
    }
    maybe_propose(ctx);
  }
  ctx.set_timer(config_.tick_period, [this](net::NodeContext& c) { arm_tick(c); });
}

void TobNode::on_message(net::NodeContext& ctx, const net::Message& msg) {
  if (msg.header == kBroadcastHeader) {
    const auto& body = net::msg_body<BroadcastBody>(msg);
    config_.profile.charge(ctx, 1);
    on_broadcast(ctx, body.command, msg.from);
    return;
  }
  if (msg.header == kRelayHeader) {
    // Relayed commands were already ingested (full program walk) at the
    // frontend that received them; the leader only enqueues them.
    const auto& body = net::msg_body<RelayBody>(msg);
    config_.profile.charge_control(ctx);
    on_relay(ctx, body);
    return;
  }
  if (module_->on_message(ctx, msg)) return;
  // Unknown headers are ignored (the service is composed with other
  // co-located components that share the machine, not the node).
}

void TobNode::on_broadcast(net::NodeContext& ctx, const Command& cmd, NodeId from) {
  const auto key = std::make_pair(cmd.client.value, cmd.seq);
  if (delivered_keys_.count(key) > 0 || floored(key)) {
    // Duplicate of an already-delivered command (client retry), or one the
    // snapshot we rejoined from already covers: re-ack so the broadcast is
    // at-most-once from the subscriber's point of view.
    ctx.send(from, net::make_msg(kAckHeader, AckBody{cmd.client, cmd.seq, 0}));
    return;
  }
  const bool already_pending =
      std::any_of(pending_.begin(), pending_.end(), [&key](const PendingCommand& p) {
        return std::make_pair(p.command.client.value, p.command.seq) == key;
      });
  if (already_pending) return;
  if (pending_.empty()) oldest_pending_since_ = ctx.now();
  pending_.push_back(PendingCommand{cmd, from, false});
  if (config_.tracer) config_.tracer->tob_broadcast(ctx.now(), self_, cmd.client, cmd.seq);
  maybe_propose(ctx);
}

void TobNode::on_relay(net::NodeContext& ctx, const RelayBody& body) {
  const Batch& cmds = body.batch.commands();  // memoized decode, not an encode
  SHADOW_CHECK_MSG(cmds.size() == body.origins.size(),
                   "tob-relay batch and origins length mismatch");
  // The common case: every relayed command is new here. Keep the received
  // sub-frame whole so the proposal reuses the original bytes, and mirror
  // the commands into pending_ (in_flight: the unit owns their proposal) for
  // dedup, ack, and loser-reset bookkeeping.
  bool all_fresh = !cmds.empty();
  for (const Command& cmd : cmds) {
    const auto key = std::make_pair(cmd.client.value, cmd.seq);
    const bool dup = delivered_keys_.count(key) > 0 || floored(key) ||
                     std::any_of(pending_.begin(), pending_.end(), [&key](const PendingCommand& p) {
                       return std::make_pair(p.command.client.value, p.command.seq) == key;
                     });
    if (dup) {
      all_fresh = false;
      break;
    }
  }
  if (!all_fresh) {
    // Duplicates inside the unit (client retries racing a relay): fall back
    // to per-command ingestion; this unit's commands are encoded afresh.
    for (std::size_t i = 0; i < cmds.size(); ++i) on_broadcast(ctx, cmds[i], body.origins[i]);
    return;
  }
  if (pending_.empty()) oldest_pending_since_ = ctx.now();
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    pending_.push_back(PendingCommand{cmds[i], body.origins[i], /*in_flight=*/true});
    if (config_.tracer) {
      config_.tracer->tob_broadcast(ctx.now(), self_, cmds[i].client, cmds[i].seq);
    }
  }
  relayed_units_.push_back(RelayedUnit{body.batch, body.origins});
  maybe_propose(ctx);
}

void TobNode::maybe_propose(net::NodeContext& ctx) {
  if (paused_) return;  // rejoining: hold proposals until resume_from
  std::size_t eligible = 0;
  for (const PendingCommand& p : pending_) {
    if (!p.in_flight) ++eligible;
  }
  if (eligible == 0 && relayed_units_.empty()) return;
  // If the consensus protocol has a preferred proposer elsewhere (the Paxos
  // leader), relay pending commands there rather than racing a proposal for
  // the same slot and losing it. Relayed commands stay pending: if the
  // leader dies before delivering them, the relay times out (arm_tick) and
  // we propose them ourselves, which also drives leader failover.
  const auto hint = module_->proposer_hint();
  const bool relaying = hint && *hint != self_;
  if (relaying) {
    // Units relayed to us while we led: forward the original bytes to the
    // new preferred proposer and let their commands fall back to normal
    // relayed-pending tracking (expiry still protects against its death).
    for (RelayedUnit& unit : relayed_units_) {
      config_.profile.charge_control(ctx);
      ctx.send(*hint, net::make_msg(kRelayHeader, RelayBody{unit.batch, unit.origins}));
      for (const Command& cmd : unit.batch.commands()) {
        const auto key = std::make_pair(cmd.client.value, cmd.seq);
        for (PendingCommand& p : pending_) {
          if (std::make_pair(p.command.client.value, p.command.seq) == key) {
            p.in_flight = false;
            p.relayed_at = ctx.now();
            p.relay_expired = false;
          }
        }
      }
    }
    relayed_units_.clear();
    // Local pending commands are relayed as encoded units too — this is THE
    // encode of their batch lifetime; every later hop copies these bytes.
    Batch chunk;
    std::vector<NodeId> origins;
    std::size_t self_eligible = 0;
    auto flush_chunk = [&] {
      if (chunk.empty()) return;
      config_.profile.charge_control(ctx);
      RelayBody relay{EncodedBatch{std::move(chunk)}, std::move(origins)};
      ctx.send(*hint, net::make_msg(kRelayHeader, std::move(relay)));
      chunk = Batch{};
      origins.clear();
    };
    for (PendingCommand& p : pending_) {
      if (p.in_flight) continue;
      if (p.relay_expired) {
        ++self_eligible;
        continue;
      }
      if (p.relayed_at != 0) continue;  // already with the leader
      chunk.push_back(p.command);
      origins.push_back(p.origin);
      p.relayed_at = ctx.now();
      if (chunk.size() >= config_.batch_max) flush_chunk();
    }
    flush_chunk();
    if (self_eligible == 0) return;
  }
  // Natural batching: at most `max_outstanding` proposals in flight per
  // node; commands arriving while consensus is busy accumulate into the
  // next batch. An optional linger (`batch_delay`) can trade latency for
  // larger batches.
  if (outstanding_.size() >= config_.max_outstanding) return;
  const bool window_closed = ctx.now() - oldest_pending_since_ >= config_.batch_delay;

  // Load-adaptive proposal sizing: the cap doubles while the backlog (queued
  // commands plus the downstream probe, e.g. the executor pipeline's queue
  // depth) exceeds it, and halves once the backlog drains below a quarter of
  // it — big batches exactly while the pipeline is saturated, single-command
  // proposals (minimum latency) when idle.
  if (config_.adaptive_batching) {
    std::size_t backlog = eligible;
    for (const RelayedUnit& unit : relayed_units_) backlog += unit.batch.size();
    if (backlog_probe_) backlog += backlog_probe_();
    if (backlog > batch_limit_) {
      batch_limit_ = std::min(batch_limit_ * 2, config_.batch_max);
    } else if (backlog <= batch_limit_ / 4) {
      batch_limit_ = std::max(batch_limit_ / 2, config_.batch_min);
    }
  }
  const std::size_t batch_cap = batch_limit_;

  // A proposal merges (a) queued relayed units, copied as bytes — no
  // re-encode of bytes that already travelled — and (b) locally-pending
  // commands, serialized once. Units bypass the batching window: they
  // already lingered at their frontend.
  BatchBuilder builder;
  while (!relayed_units_.empty()) {
    const RelayedUnit& unit = relayed_units_.front();
    if (!builder.empty() && builder.size() + unit.batch.size() > batch_cap) break;
    builder.add(unit.batch);
    relayed_units_.pop_front();
  }
  if (builder.empty() && eligible < batch_cap && !window_closed) return;

  // Only locally-proposable commands enter the batch: everything when we
  // are (or may become) the proposer, otherwise only expired relays.
  for (PendingCommand& p : pending_) {
    if (builder.size() >= batch_cap) break;
    if (p.in_flight) continue;
    if (relaying && !p.relay_expired) continue;
    p.in_flight = true;
    builder.add(p.command);
  }
  if (builder.empty()) return;
  EncodedBatch batch = builder.build();
  if (config_.tracer && !config_.metric_scope.empty()) {
    // Per-group encode counter: the process-wide splice_stats() fold
    // cannot attribute encodes when several groups share one process.
    config_.tracer->count(encode_metric_);
  }
  const Slot slot = std::max(next_propose_slot_, next_deliver_slot_);
  next_propose_slot_ = slot + 1;
  outstanding_[slot] = batch;
  // Proposal processing is charged where the consensus module handles the
  // px-propose message; here we only pay control-path dispatch.
  config_.profile.charge_control(ctx);
  if (config_.tracer) {
    config_.tracer->tob_propose(ctx.now(), self_, slot, batch.size());
    if (config_.adaptive_batching) {
      config_.tracer->observe(adaptive_metric_, batch_limit_);
    }
  }
  module_->propose(ctx, slot, batch);
  oldest_pending_since_ = ctx.now();
}

void TobNode::on_decide(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
  if (config_.tracer) config_.tracer->tob_decide(ctx.now(), self_, slot, batch.size());
  decisions_[slot] = batch;  // shares the decided bytes, no copy
  if (auto it = outstanding_.find(slot); it != outstanding_.end()) {
    // Whatever of ours was not chosen becomes eligible for a later slot.
    for (const Command& cmd : it->second.commands()) {
      const auto key = std::make_pair(cmd.client.value, cmd.seq);
      for (PendingCommand& p : pending_) {
        if (std::make_pair(p.command.client.value, p.command.seq) == key) p.in_flight = false;
      }
    }
    outstanding_.erase(it);
  }
  deliver_ready(ctx);
  maybe_propose(ctx);
}

void TobNode::deliver_ready(net::NodeContext& ctx) {
  if (paused_) return;  // rejoining: decisions accumulate until resume_from
  while (true) {
    auto it = decisions_.find(next_deliver_slot_);
    if (it == decisions_.end()) return;
    const EncodedBatch& encoded = it->second;
    const Batch& batch = encoded.commands();
    config_.profile.charge(ctx, batch.size());
    const std::uint64_t base_index = index_base_ + delivery_log_.size();
    Batch fresh;  // the commands actually delivered from this slot

    for (const Command& cmd : batch) {
      const auto key = std::make_pair(cmd.client.value, cmd.seq);
      if (floored(key) || !delivered_keys_.insert(key).second) {
        // no-duplication: already delivered here, or covered by the
        // snapshot this node rejoined from. Still ack + retire the pending
        // entry (a retry may have entered through us post-restart).
        ack_and_retire_pending(ctx, key, it->first);
        continue;
      }
      const std::uint64_t index = index_base_ + delivery_log_.size();
      delivery_log_.push_back(cmd);
      fresh.push_back(cmd);
      if (config_.tracer) {
        config_.tracer->tob_deliver(ctx.now(), self_, it->first, index, cmd.client, cmd.seq);
      }

      if (local_subscriber_) local_subscriber_(ctx, it->first, index, cmd);
      // (A whole-slot batch_subscriber_ is notified once, below.)
      // Ack the broadcaster if the command entered the system through us —
      // unless we relayed it to the leader, whose own pending entry acks
      // (exactly one ack in the normal case; duplicates can only arise in
      // failover windows, and clients deduplicate by sequence number).
      ack_and_retire_pending(ctx, key, it->first);
    }
    // Whole-slot subscribers (local batch subscriber and remote tob-deliver)
    // get the decided sub-frame as-is — the same bytes consensus agreed on,
    // never re-encoded; only a slot containing duplicates (client
    // retries) needs a fresh sub-frame for the delivered subset.
    if (!fresh.empty() && (batch_subscriber_ || !remote_subscribers_.empty())) {
      const EncodedBatch out = fresh.size() == batch.size() ? encoded
                                                            : EncodedBatch{std::move(fresh)};
      if (batch_subscriber_) batch_subscriber_(ctx, it->first, base_index, out);
      if (!remote_subscribers_.empty()) {
        const DeliverBody body{it->first, base_index, out};
        for (NodeId sub : remote_subscribers_) {
          ctx.send(sub, net::make_msg(kDeliverHeader, body));
        }
      }
    }
    ++next_deliver_slot_;
  }
}

void TobNode::ack_and_retire_pending(net::NodeContext& ctx,
                                     const std::pair<std::uint32_t, RequestSeq>& key,
                                     Slot slot) {
  for (auto p = pending_.begin(); p != pending_.end(); ++p) {
    if (std::make_pair(p->command.client.value, p->command.seq) != key) continue;
    const bool relayed_elsewhere = p->relayed_at != 0 && !p->relay_expired;
    if (!relayed_elsewhere) {
      ctx.send(p->origin, net::make_msg(kAckHeader,
                                        AckBody{p->command.client, p->command.seq, slot}));
    }
    pending_.erase(p);
    return;
  }
}

void TobNode::pause_for_rejoin() {
  paused_ = true;
}

void TobNode::resume_from(const ResumePoint& rp) {
  // Two callers: a freshly restarted process (empty log) and a simulator
  // crash-restart where the node object survived with its history intact —
  // the retained engine state is what makes the rejoin a delta. Either way
  // the snapshot supersedes everything delivered so far: rebase the index
  // space at the resume point and drop the superseded log. (The donor serves
  // the resume point at its own delivery frontier, which is at or ahead of
  // any paused node's, so rp.slot/rp.index_base never move us backwards.)
  delivery_log_.clear();
  next_deliver_slot_ = std::max(next_deliver_slot_, rp.slot);
  next_propose_slot_ = std::max(next_propose_slot_, rp.slot);
  index_base_ = rp.index_base;
  for (const auto& [client, seq] : rp.floor) {
    RequestSeq& floor = delivered_floor_[client];
    floor = std::max(floor, seq);
  }
  // Control commands (reconfig/rejoin) use a fresh client id per incarnation,
  // so a per-client floor cannot cover them: dedup them by exact key.
  for (const auto& key : rp.control_keys) delivered_keys_.insert(key);
  // Decided slots below the resume point are covered by the snapshot.
  decisions_.erase(decisions_.begin(), decisions_.lower_bound(next_deliver_slot_));
  paused_ = false;
  // Kick delivery/proposing from a proper node context (we are called from
  // the co-located replica's handler, under its identity, not ours).
  world_.schedule_timer_for_node(self_, world_.now(), [this](net::NodeContext& ctx) {
    deliver_ready(ctx);
    maybe_propose(ctx);
  });
}

TobService make_service(net::Transport& world, const TobConfig& config,
                        consensus::SafetyRecorder* safety) {
  TobService service;
  service.nodes.reserve(config.nodes.size());
  for (NodeId node : config.nodes) {
    service.nodes.push_back(std::make_unique<TobNode>(world, node, config, safety));
  }
  return service;
}

}  // namespace shadow::tob
