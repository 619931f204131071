#include "core/client.hpp"

#include <algorithm>

#include "core/pbr.hpp"
#include "core/twopc.hpp"
#include "obs/trace.hpp"

namespace shadow::core {

namespace {
// Base of the jittered exponential backoff before a conflict retry is
// resubmitted: the delay is base + uniform[0, base * 2^min(streak, 6)) where
// streak counts consecutive conflicts of the same transaction. Without it,
// an immediate retry usually re-collides with the still-in-flight winner
// (its locks are held until its decide), and every spin burns three ordered
// log entries per participant group — under contention that feedback loop
// collapses throughput.
constexpr net::Time kConflictBackoffUs = 400;
}  // namespace

DbClient::DbClient(net::Transport& world, NodeId self, ClientId id, Options options,
                   NextTxnFn next_txn)
    : world_(world),
      self_(self),
      id_(id),
      options_(std::move(options)),
      next_txn_(std::move(next_txn)) {
  backoff_state_ = 0x9e3779b97f4a7c15ULL ^ (std::uint64_t{id.value} * 0xbf58476d1ce4e5b9ULL);
  SHADOW_REQUIRE(!options_.targets.empty() || options_.router != nullptr);
  world_.set_handler(self_, [this](net::NodeContext& ctx, const net::Message& msg) {
    on_message(ctx, msg);
  });
}

void DbClient::start(net::Time initial_delay) {
  world_.schedule_timer_for_node(self_, world_.now() + initial_delay,
                                 [this](net::NodeContext& ctx) { submit_next(ctx); });
}

void DbClient::submit_next(net::NodeContext& ctx) {
  if (submitted_ >= options_.txn_limit) {
    done_ = true;
    return;
  }
  ++submitted_;
  auto [proc, params] = next_txn_();
  workload::TxnRequest req;
  req.client = id_;
  req.seq = ++seq_;
  req.reply_to = self_;
  req.proc = std::move(proc);
  req.params = std::move(params);
  in_flight_ = std::move(req);
  sent_at_ = ctx.now();
  if (options_.tracer) {
    options_.tracer->txn_begin(ctx.now(), self_, id_, in_flight_->seq, in_flight_->proc);
  }
  send_current(ctx);
}

void DbClient::send_current(net::NodeContext& ctx) {
  SHADOW_CHECK(in_flight_.has_value());
  // Classification happens HERE, per send — never cached across retries: a
  // conflict retry or timeout re-routes through the current routing state,
  // and read-only procedures peel off onto the lock-free snapshot path.
  if (ro_eligible(*in_flight_)) {
    start_ro_attempt(ctx);
    return;
  }
  ctx.charge(options_.client_cpu_us);
  // Routed clients pick the pool per request (the coordinator group's TOB
  // nodes); target rotation on retry stays within the pool.
  const std::vector<NodeId>& pool =
      options_.router != nullptr ? options_.router->route(*in_flight_) : options_.targets;
  const NodeId target = pool[target_idx_ % pool.size()];
  if (options_.mode == Mode::kDirect) {
    ctx.send(target, workload::make_request_msg(*in_flight_));
  } else {
    ClientId wire_id = id_;
    if (options_.router != nullptr && options_.router->cross_shard(*in_flight_)) {
      // Mark the broadcast itself: the delivery path spots the control bit
      // in the decided batch and takes the serial 2PC path without decoding.
      wire_id = ClientId{kXsBeginBit | (id_.value & kXsClientMask)};
    }
    tob::BroadcastBody body{
        tob::Command{wire_id, in_flight_->seq, workload::encode_request(*in_flight_)}};
    ctx.send(target, net::make_msg(tob::kBroadcastHeader, std::move(body)));
  }
  timeout_timer_ = ctx.set_timer(options_.retry_timeout,
                                 [this](net::NodeContext& c) { on_timeout(c); });
}

void DbClient::on_timeout(net::NodeContext& ctx) {
  if (!in_flight_ || done_) return;
  ++retries_;
  ++target_idx_;  // rotate: the old target may have crashed
  if (ro_.has_value()) {
    // Abandon the whole RO attempt: fresh classification, fresh snaps, next
    // replica in every group that failed to answer (the responsive ones
    // keep their replica). A crashed replica mid-fanout is indistinguishable
    // from a lost answer, and re-snapping is cheap.
    if (ro_->awaiting.empty()) {
      for (const GroupId g : ro_->participants) ++ro_rot_[g];
    } else {
      for (const GroupId g : ro_->awaiting) ++ro_rot_[g];
    }
    ro_.reset();
    ++ro_restarts_;
  }
  send_current(ctx);
}

void DbClient::on_message(net::NodeContext& ctx, const net::Message& msg) {
  if (msg.header == workload::kTxnResponseHeader) {
    const auto& resp = net::msg_body<workload::TxnResponse>(msg);
    if (!in_flight_ || resp.seq != in_flight_->seq) return;  // late duplicate
    finish_current(ctx, resp);
    return;
  }
  if (msg.header == kRoSnapRespHeader) {
    on_ro_snap_resp(ctx, net::msg_body<RoSnapRespBody>(msg));
    return;
  }
  if (msg.header == kRoReadRespHeader) {
    on_ro_read_resp(ctx, net::msg_body<RoReadRespBody>(msg));
    return;
  }
  if (msg.header == kPbrRedirectHeader) {
    if (!in_flight_) return;
    const auto& body = net::msg_body<RedirectBody>(msg);
    ctx.cancel_timer(timeout_timer_);
    const bool unknown_primary = body.primary.value == UINT32_MAX;
    if (!body.busy && !unknown_primary) {
      // Point directly at the new primary and resend immediately.
      for (std::size_t i = 0; i < options_.targets.size(); ++i) {
        if (options_.targets[i] == body.primary) target_idx_ = i;
      }
      if (options_.targets[target_idx_ % options_.targets.size()] != body.primary) {
        options_.targets.push_back(body.primary);
        target_idx_ = options_.targets.size() - 1;
      }
      consecutive_busy_ = 0;
      ++retries_;
      send_current(ctx);
    } else {
      // Recovery in progress (or the primary is not known yet): back off,
      // then retry the same request. A node that stays "busy" for long may
      // itself be out of the configuration — rotate away from it.
      if (++consecutive_busy_ >= 8) {
        consecutive_busy_ = 0;
        ++target_idx_;
      }
      ctx.set_timer(options_.busy_backoff, [this](net::NodeContext& c) {
        if (in_flight_ && !done_) {
          ++retries_;
          send_current(c);
        }
      });
    }
    return;
  }
  // tob-ack and other service chatter is not the transaction answer.
}

void DbClient::finish_current(net::NodeContext& ctx, const workload::TxnResponse& resp) {
  consecutive_busy_ = 0;
  ctx.cancel_timer(timeout_timer_);
  ctx.charge(options_.client_cpu_us);
  const bool transient_abort = resp.error == "xs-lock-conflict" ||
                               resp.error == "range-frozen" ||
                               resp.error == "xs-epoch-retry";
  if (!resp.committed && options_.retry_conflict_aborts && transient_abort) {
    // A no-wait 2PC vote-NO (lock race), a key range frozen mid-migration,
    // or a routing-epoch mismatch: the transaction lost a race, not a
    // semantic check. Resubmit it as a fresh transaction (new seq — the old
    // one is terminally aborted in every replica's dedup table). The seq
    // bump happens NOW so the duplicate abort answers from the other
    // coordinator replicas keep being filtered as late duplicates; the
    // resend itself waits out a jittered backoff so it does not re-collide
    // with the winner that still holds the contended locks.
    if (options_.tracer) options_.tracer->txn_ack(ctx.now(), self_, id_, resp.seq, false);
    ++conflict_retries_;
    in_flight_->seq = ++seq_;
    const std::uint32_t streak = conflict_streak_ < 6 ? conflict_streak_ : 6;
    backoff_state_ = backoff_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const net::Time delay =
        kConflictBackoffUs + (backoff_state_ >> 33) % (kConflictBackoffUs << streak);
    ++conflict_streak_;
    ctx.set_timer(delay, [this](net::NodeContext& c) {
      if (!in_flight_ || done_) return;
      sent_at_ = c.now();
      if (options_.tracer) {
        options_.tracer->txn_begin(c.now(), self_, id_, in_flight_->seq, in_flight_->proc);
      }
      send_current(c);
    });
    return;
  }
  conflict_streak_ = 0;
  latencies_.add(ctx.now() - sent_at_);
  if (options_.tracer) {
    options_.tracer->txn_ack(ctx.now(), self_, id_, resp.seq, resp.committed);
  }
  if (response_hook_) response_hook_(resp);
  if (resp.committed) {
    ++committed_;
    // Read-your-writes: remember where this commit became visible. The
    // coordinator group's position alone is sound — a later snapshot read
    // covering it re-snaps any participant whose cut would exclude it
    // (torn-cut detection in resolve_ro_cut).
    if (resp.commit_pos > 0) {
      std::uint64_t& floor = ro_floors_[resp.commit_group];
      floor = std::max(floor, resp.commit_pos);
    }
    if (commit_hook_) commit_hook_(ctx.now());
  } else {
    ++aborted_;
  }
  in_flight_.reset();
  submit_next(ctx);
}

// -- read-only snapshot path ---------------------------------------------------

bool DbClient::ro_eligible(const workload::TxnRequest& req) const {
  return options_.mode == Mode::kTob && options_.router != nullptr &&
         options_.router->shard_count() > 1 && options_.router->read_only(req);
}

NodeId DbClient::ro_replica_of(GroupId g) const {
  const std::vector<NodeId>& replicas = options_.router->replica_targets(g);
  SHADOW_CHECK(!replicas.empty());
  const auto it = ro_rot_.find(g);
  const std::size_t rot = it == ro_rot_.end() ? 0 : it->second;
  // id_ + g spreads fresh clients across replicas; rotation is per group.
  return replicas[(rot + id_.value + g) % replicas.size()];
}

void DbClient::send_ro_snap(net::NodeContext& ctx, GroupId g) {
  ctx.charge(options_.client_cpu_us);
  RoSnapBody body;
  body.client = kRoBeginBit | (id_.value & kXsClientMask);
  body.seq = in_flight_->seq;
  body.group = g;
  ctx.send(ro_replica_of(g), net::make_msg(kRoSnapHeader, body));
}

void DbClient::send_ro_read(net::NodeContext& ctx, GroupId g, std::uint64_t version,
                            std::uint64_t floor) {
  ctx.charge(options_.client_cpu_us);
  RoReadBody body;
  body.req = *in_flight_;
  body.req.client = ClientId{kRoBeginBit | (id_.value & kXsClientMask)};
  body.version = version;
  body.floor = floor;
  body.group = g;
  ctx.send(ro_replica_of(g), net::make_msg(kRoReadHeader, std::move(body)));
}

void DbClient::start_ro_attempt(net::NodeContext& ctx) {
  ro_.emplace();
  ro_->participants = options_.router->ro_shards_of(*in_flight_);
  ro_->cross = ro_->participants.size() > 1;
  if (ro_->cross) {
    // Phase 0: collect each participant group's snapshot coordinates.
    for (const GroupId g : ro_->participants) {
      ro_->awaiting.insert(g);
      send_ro_snap(ctx, g);
    }
  } else {
    // Single-shard: one read at the replica's current version, floored by
    // the session's read-your-writes position for that group.
    const GroupId g = ro_->participants.front();
    ro_->phase = 1;
    ro_->cut[g] = 0;
    ro_->awaiting.insert(g);
    send_ro_read(ctx, g, 0, ro_floors_[g]);
  }
  timeout_timer_ = ctx.set_timer(options_.retry_timeout,
                                 [this](net::NodeContext& c) { on_timeout(c); });
}

void DbClient::restart_ro_attempt(net::NodeContext& ctx) {
  ctx.cancel_timer(timeout_timer_);
  // Awaiting is empty when the restart comes from resolve_ro_cut (every
  // snap answered, the cut still would not close) — rotate ALL participants
  // then, since any of the answering replicas may be the wedged one.
  if (ro_->awaiting.empty()) {
    for (const GroupId g : ro_->participants) ++ro_rot_[g];
  } else {
    for (const GroupId g : ro_->awaiting) ++ro_rot_[g];
  }
  ro_.reset();
  ++ro_restarts_;
  ctx.set_timer(options_.busy_backoff, [this](net::NodeContext& c) {
    if (in_flight_ && !done_) send_current(c);
  });
}

void DbClient::on_ro_snap_resp(net::NodeContext& ctx, const RoSnapRespBody& body) {
  if (!ro_ || !in_flight_ || body.seq != in_flight_->seq) return;
  if (ro_->phase != 0 || ro_->awaiting.count(body.group) == 0) return;
  if (body.serving == 0) {
    // (Re)joining replica: ask the next one in the group's rotation.
    ++ro_rot_[body.group];
    send_ro_snap(ctx, body.group);
    return;
  }
  ro_->awaiting.erase(body.group);
  ro_->snaps[body.group] = body;
  if (ro_->awaiting.empty()) resolve_ro_cut(ctx);
}

void DbClient::resolve_ro_cut(net::NodeContext& ctx) {
  // A committed cross-shard transaction visible at group g (decide_pos <=
  // S_g) must be visible at every other participant of the cut. At h the
  // snap shows one of four states, in h's log order: absent entirely (the
  // prepare has not reached h — a stalled or failed-over log), prepared-
  // undecided, decided in the ring, or decided so long ago the bounded ring
  // evicted it (h's per-client high-water covers the seq). Only the last
  // two with decide_pos <= S_h are included; everything else tears the cut
  // and forces a re-snap of h.
  std::set<GroupId> resnap;
  for (const auto& [g, snap] : ro_->snaps) {
    // Read-your-writes: the cut must cover the session floor.
    std::uint64_t& floor = ro_floors_[g];
    if (snap.position < floor) {
      resnap.insert(g);
      continue;
    }
    for (const RoSnapRespBody::Decide& d : snap.decides) {
      if (d.committed == 0 || d.decide_pos > snap.position) continue;
      for (const std::uint32_t h : d.participants) {
        if (h == g) continue;
        const auto it = ro_->snaps.find(h);
        if (it == ro_->snaps.end() || resnap.count(h) != 0) continue;
        const RoSnapRespBody& sh = it->second;
        // Ring-evicted decides were applied before every ring entry.
        bool included = false;
        for (const auto& [lc, ls] : sh.last_decided) {
          if (lc == d.client && ls >= d.seq) included = true;
        }
        for (const RoSnapRespBody::Decide& e : sh.decides) {
          if (e.client == d.client && e.seq == d.seq) {
            included = e.decide_pos <= sh.position;
          }
        }
        // Prepared-undecided overrides the high-water: a LATER txn of the
        // same client may have decided at h while this one's decide is
        // still in flight.
        for (const auto& [pc, ps] : sh.prepared) {
          if (pc == d.client && ps == d.seq) included = false;
        }
        if (!included) resnap.insert(h);
      }
    }
  }
  if (!resnap.empty()) {
    if (++ro_->rounds > 8) {
      restart_ro_attempt(ctx);
      return;
    }
    for (const GroupId g : resnap) {
      // Rotate the group's replica each round: a re-snap usually just needs
      // the SAME replica to finish replaying the missing decides, but a
      // replica whose ordered feed died keeps serving snaps at a frozen
      // position forever — it still reports serving=1, so only rotation can
      // escape it, and any caught-up replica serves the fresh snap equally.
      ++ro_rot_[g];
      ro_->snaps.erase(g);
      ro_->awaiting.insert(g);
      send_ro_snap(ctx, g);
    }
    return;
  }
  ro_->phase = 1;
  for (const GroupId g : ro_->participants) {
    ro_->cut[g] = ro_->snaps[g].position;
    ro_->awaiting.insert(g);
  }
  for (const GroupId g : ro_->participants) send_ro_read(ctx, g, ro_->cut[g], 0);
}

void DbClient::on_ro_read_resp(net::NodeContext& ctx, const RoReadRespBody& body) {
  if (!ro_ || !in_flight_ || body.seq != in_flight_->seq) return;
  if (ro_->phase != 1 || ro_->awaiting.count(body.group) == 0) return;
  if (body.ok == 0) {
    if (body.error == "ro-lagging" || body.error == "ro-joining") {
      // Replica-local condition: rotate within the group and re-send the
      // same pinned read.
      ++ro_rot_[body.group];
      const std::uint64_t version = ro_->cut[body.group];
      const std::uint64_t floor = ro_->cross ? 0 : ro_floors_[body.group];
      send_ro_read(ctx, body.group, version, floor);
      return;
    }
    // ro-stale (GC outran the cut), ro-moved, ro-split: the cut itself is
    // unusable — restart the attempt from classification.
    restart_ro_attempt(ctx);
    return;
  }
  // A pinned read must come back at the pinned version; an answer from an
  // abandoned attempt (same seq, older cut) must not tear this one. A
  // forwarded read legitimately reports the owner's version.
  if (ro_->cut[body.group] != 0 && body.served_group == body.group &&
      body.version != ro_->cut[body.group]) {
    return;
  }
  ro_->awaiting.erase(body.group);
  ro_->rows[body.group] = body.rows;
  // Single-shard reads learn their version from the answer; cross-shard cuts
  // keep the pinned snap position (the value torn-cut detection validated)
  // even if a migrated share was forwarded and served elsewhere.
  if (ro_->cut[body.group] == 0) ro_->cut[body.group] = body.version;
  if (ro_->awaiting.empty()) finish_ro(ctx);
}

void DbClient::finish_ro(net::NodeContext& ctx) {
  // Monotonic reads: later snapshot reads of these groups must not observe
  // an earlier cut.
  for (const auto& [g, v] : ro_->cut) {
    std::uint64_t& floor = ro_floors_[g];
    floor = std::max(floor, v);
  }
  if (options_.tracer) {
    for (const auto& [g, v] : ro_->cut) {
      options_.tracer->ro_cut(ctx.now(), self_, id_, in_flight_->seq, g, v,
                              ro_->cut.size());
    }
  }
  workload::TxnResponse resp;
  resp.client = id_;
  resp.seq = in_flight_->seq;
  resp.committed = true;
  for (const GroupId g : ro_->participants) {
    for (db::Row& row : ro_->rows[g]) resp.rows.push_back(std::move(row));
  }
  ++ro_committed_;
  ro_.reset();
  finish_current(ctx, resp);
}

}  // namespace shadow::core
