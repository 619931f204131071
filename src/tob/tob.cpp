#include "tob/tob.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace shadow::tob {

TobNode::TobNode(net::Transport& world, NodeId self, TobConfig config)
    : world_(world), self_(self), config_(std::move(config)) {
  SHADOW_REQUIRE(!config_.nodes.empty());
  SHADOW_REQUIRE(config_.batch_max >= 1);
  batch_limit_ = config_.adaptive_batching ? 1 : config_.batch_max;
  // Metric names are prefixed once here, not per observation (the scope is
  // empty — the classic names — outside sharded deployments).
  adaptive_metric_ = config_.metric_scope + "net.batch_size_adaptive";
  encode_metric_ = config_.metric_scope + "net.batch_encode_count";

  if (config_.protocol == Protocol::kPaxos) {
    consensus::PaxosConfig pc = config_.paxos;
    if (pc.peers.empty()) pc.peers = config_.nodes;
    pc.profile.tier = config_.profile.tier;
    pc.profile.costs = config_.profile.costs;
    module_ = std::make_unique<consensus::PaxosModule>(self_, std::move(pc));
  } else {
    consensus::TwoThirdConfig tc = config_.two_third;
    if (tc.peers.empty()) tc.peers = config_.nodes;
    tc.profile.tier = config_.profile.tier;
    tc.profile.costs = config_.profile.costs;
    module_ = std::make_unique<consensus::TwoThirdModule>(self_, std::move(tc));
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
  if (!hold_proposals_) {
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
  if (already_delivered(key)) {
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
    const bool dup = already_delivered(key) ||
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
  if (hold_proposals_) return;  // restart rejoin: hold proposals until resume_from
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
  // Natural batching: at most one proposal in flight per node; commands
  // arriving while consensus is busy accumulate into the next batch. An
  // optional linger (`batch_delay`) can trade latency for larger batches.
  if (!outstanding_.empty()) return;
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
      batch_limit_ = std::max<std::size_t>(batch_limit_ / 2, 1);
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
  // Never at a slot already decided here: its decision was learned once and
  // is never announced again, so the proposal would stay outstanding forever
  // and block this node's proposing. (A node resuming from a rejoin snapshot
  // holds decisions it learned while paused above its delivery frontier.)
  Slot slot = std::max(next_propose_slot_, next_deliver_slot_);
  while (decisions_.count(slot) != 0) ++slot;
  next_propose_slot_ = slot + 1;
  outstanding_[slot] = batch;
  // Proposal processing is charged where the consensus module handles the
  // px-propose message; here we only pay control-path dispatch.
  config_.profile.charge_control(ctx);
  if (config_.tracer) {
    config_.tracer->tob_propose(ctx.now(), self_, slot, batch.size(), batch.digest());
    if (config_.adaptive_batching) {
      config_.tracer->observe(adaptive_metric_, batch_limit_);
    }
  }
  module_->propose(ctx, slot, batch);
  oldest_pending_since_ = ctx.now();
}

void TobNode::on_decide(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) {
  if (config_.tracer) {
    config_.tracer->tob_decide(ctx.now(), self_, slot, batch.size(), batch.digest());
  }
  // Shares the decided bytes, no copy. A slot below the frontier was already
  // delivered (or skipped by a rejoin) and would never be erased.
  if (slot >= next_deliver_slot_) decisions_[slot] = batch;
  if (auto it = outstanding_.find(slot); it != outstanding_.end()) {
    // Whatever of ours was not chosen becomes eligible for a later slot.
    // While delivery is paused a chosen proposal stays in flight: it is
    // delivered at resume, or retired there when the snapshot covers it.
    // (Re-proposing decided commands would fill later batches with
    // duplicates.)
    if (!paused_ || it->second != batch) {
      for (const Command& cmd : it->second.commands()) {
        const auto key = std::make_pair(cmd.client.value, cmd.seq);
        for (PendingCommand& p : pending_) {
          if (std::make_pair(p.command.client.value, p.command.seq) == key) p.in_flight = false;
        }
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
    const Slot slot = it->first;
    const EncodedBatch encoded = std::move(it->second);  // forgotten once delivered
    decisions_.erase(it);
    const Batch& batch = encoded.commands();
    config_.profile.charge(ctx, batch.size());
    const std::uint64_t base_index = index_base_ + delivered_count_;
    // The commands delivered from this slot, built only once the slot turns
    // out to hold a duplicate: every command before the first one was
    // delivered.
    std::optional<Batch> subset;

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Command& cmd = batch[i];
      const auto key = std::make_pair(cmd.client.value, cmd.seq);
      DedupWindow& window = dedup_[key.first];
      if (window.contains(key.second)) {
        // no-duplication: already delivered here, or covered by the
        // snapshot this node rejoined from. Still ack + retire the pending
        // entry (a retry may have entered through us post-restart).
        if (!subset) subset.emplace(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(i));
        ack_and_retire_pending(ctx, key, slot);
        continue;
      }
      window.add(key.second, key.second + 1);
      const std::uint64_t index = index_base_ + delivered_count_++;
      if (subset) subset->push_back(cmd);
      if (config_.tracer) {
        config_.tracer->tob_deliver(ctx.now(), self_, slot, index, cmd.client, cmd.seq);
      }

      if (local_subscriber_) local_subscriber_(ctx, slot, index, cmd);
      // (A whole-slot batch_subscriber_ is notified once, below.)
      // Ack the broadcaster if the command entered the system through us —
      // unless we relayed it to the leader, whose own pending entry acks
      // (exactly one ack in the normal case; duplicates can only arise in
      // failover windows, and clients deduplicate by sequence number).
      ack_and_retire_pending(ctx, key, slot);
    }
    // The whole-slot batch subscriber gets the decided sub-frame as-is — the
    // same bytes consensus agreed on, never re-encoded; only a slot
    // containing duplicates (client retries) needs a fresh sub-frame for the
    // delivered subset.
    const bool delivered_any = index_base_ + delivered_count_ > base_index;
    if (delivered_any && batch_subscriber_) {
      batch_subscriber_(ctx, slot, base_index, subset ? EncodedBatch{std::move(*subset)} : encoded);
    }
    ++next_deliver_slot_;
    module_->set_delivered(next_deliver_slot_);
  }
}

bool TobNode::DedupWindow::contains(RequestSeq seq) const {
  auto it = runs.upper_bound(seq);
  return it != runs.begin() && seq < std::prev(it)->second;
}

void TobNode::DedupWindow::add(RequestSeq first, RequestSeq end) {
  auto next = runs.upper_bound(first);  // the first run starting after `first`
  auto it = next;
  if (next != runs.begin() && std::prev(next)->second >= first) {
    it = std::prev(next);  // the run reaching `first` grows (the in-order case)
    it->second = std::max(it->second, end);
  } else {
    it = runs.emplace_hint(next, first, end);
  }
  // Swallow every run the grown one now reaches: a gap closed.
  while (next != runs.end() && next->first <= it->second) {
    it->second = std::max(it->second, next->second);
    next = runs.erase(next);
  }
}

bool TobNode::already_delivered(const std::pair<std::uint32_t, RequestSeq>& key) const {
  auto it = dedup_.find(key.first);
  return it != dedup_.end() && it->second.contains(key.second);
}

std::size_t TobNode::dedup_runs() const {
  std::size_t runs = 0;
  for (const auto& [client, window] : dedup_) runs += window.runs.size();
  return runs;
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

void TobNode::pause_for_rejoin(bool keep_ordering) {
  paused_ = true;
  hold_proposals_ = !keep_ordering;
}

void TobNode::resume_from(const ResumePoint& rp) {
  // Two callers: a freshly restarted process (empty log) and a simulator
  // crash-restart where the node object survived with its history intact —
  // the retained engine state is what makes the rejoin a delta. Either way
  // the snapshot supersedes everything delivered so far: rebase the index
  // space at the resume point and restart the delivered count. (The donor
  // serves the resume point at its own delivery frontier, which is at or
  // ahead of any paused node's, so rp.slot/rp.index_base never move us
  // backwards.)
  delivered_count_ = 0;
  next_deliver_slot_ = std::max(next_deliver_slot_, rp.slot);
  next_propose_slot_ = std::max(next_propose_slot_, rp.slot);
  index_base_ = rp.index_base;
  for (const auto& [client, seq] : rp.floor) dedup_[client].add(0, seq + 1);
  // Control commands (reconfig/rejoin) use a fresh client id per incarnation,
  // so a per-client floor cannot cover them: dedup them by exact key.
  for (const auto& [client, seq] : rp.control_keys) dedup_[client].add(seq, seq + 1);
  // Decided slots below the resume point are covered by the snapshot: the
  // group delivered them, so commands of theirs pending here retire (with
  // the ack delivery sends) rather than being proposed again — a command
  // the dedup floor does not cover (a parked one) would be delivered twice.
  std::vector<std::pair<Slot, EncodedBatch>> covered;
  const auto resume_at = decisions_.lower_bound(next_deliver_slot_);
  for (auto it = decisions_.begin(); it != resume_at; ++it) {
    covered.emplace_back(it->first, std::move(it->second));
  }
  decisions_.erase(decisions_.begin(), resume_at);
  module_->set_delivered(next_deliver_slot_);
  paused_ = false;
  hold_proposals_ = false;
  // Kick delivery/proposing from a proper node context (we are called from
  // the co-located replica's handler, under its identity, not ours).
  world_.schedule_timer_for_node(
      self_, world_.now(), [this, covered = std::move(covered)](net::NodeContext& ctx) {
        for (const auto& [slot, batch] : covered) {
          if (pending_.empty()) break;  // always so after a process restart
          for (const Command& cmd : batch.commands()) {
            ack_and_retire_pending(ctx, {cmd.client.value, cmd.seq}, slot);
          }
        }
        deliver_ready(ctx);
        maybe_propose(ctx);
      });
}

TobService make_service(net::Transport& world, const TobConfig& config) {
  TobService service;
  service.nodes.reserve(config.nodes.size());
  for (NodeId node : config.nodes) {
    service.nodes.push_back(std::make_unique<TobNode>(world, node, config));
  }
  return service;
}

}  // namespace shadow::tob
