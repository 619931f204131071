#include "core/migrate.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/smr.hpp"
#include "obs/trace.hpp"
#include "tob/tob.hpp"

namespace shadow::core {

namespace {

constexpr net::Time kMigTickPeriod = 500000;  // pull/ready/commit retry sweep, 500 ms
constexpr std::uint32_t kMigMaxCommitResends = 2;

RangeSpec spec_from_params(const std::vector<db::Value>& p) {
  RangeSpec spec;
  spec.mid = static_cast<std::uint64_t>(p[0].as_int());
  spec.table = p[1].as_string();
  spec.lo = p[2].as_int();
  spec.hi = p[3].as_int();
  spec.from = static_cast<GroupId>(p[4].as_int());
  spec.to = static_cast<GroupId>(p[5].as_int());
  if (p.size() >= 7) spec.donor = NodeId{static_cast<std::uint32_t>(p[6].as_int())};
  return spec;
}

std::vector<db::Value> params_from_spec(const RangeSpec& spec) {
  return {db::Value(static_cast<std::int64_t>(spec.mid)),
          db::Value(spec.table),
          db::Value(spec.lo),
          db::Value(spec.hi),
          db::Value(static_cast<std::int64_t>(spec.from)),
          db::Value(static_cast<std::int64_t>(spec.to)),
          db::Value(static_cast<std::int64_t>(spec.donor.value))};
}

}  // namespace

workload::TxnRequest make_split_request(const RangeSpec& spec) {
  workload::TxnRequest req;
  req.client = ClientId{kMigAdminClientBit | static_cast<std::uint32_t>(spec.mid & kMigIdMask)};
  req.seq = 1;
  req.proc = kMigSplitProc;
  req.params = params_from_spec(spec);
  return req;
}

RangeMigrator::RangeMigrator(net::Transport& world, SmrReplica& replica, GroupId group,
                             RoutingView& view, TxnExecutor& executor, XsCoordinator* xs,
                             Config cfg)
    : world_(world),
      replica_(replica),
      self_(replica.node()),
      group_(group),
      view_(view),
      executor_(executor),
      xs_(xs),
      cfg_(std::move(cfg)) {
  world_.schedule_timer_for_node(self_, world_.now() + kMigTickPeriod,
                                 [this](net::NodeContext& ctx) { on_tick(ctx); });
}

RangeMigrator::Migration& RangeMigrator::add_migration(const RangeSpec& spec) {
  Migration& m = migrations_[spec.mid];
  m.spec = spec;
  repl::FetchSession::Mount mount;
  mount.headers = {kMigSnapBeginHeader, kMigSnapBatchHeader, kMigSnapDoneHeader,
                   kMigSnapDeleteHeader};
  mount.tag = spec.mid;
  mount.engine = &executor_.engine();
  mount.receiver = {cfg_.tracer, self_, /*buffer=*/true};
  repl::FetchSession::Hooks hooks;
  hooks.done = [this, &m](net::NodeContext& ctx, const repl::SnapDone2Body&, NodeId,
                          std::uint64_t) {
    m.batches = m.fetch.take_batches();
    m.buffered = true;
    broadcast_ready(ctx, m);
    maybe_commit(ctx, m);
  };
  // A gap, a malformed frame or a silent sweep: pull from the next donor.
  hooks.refetch = [this, &m](net::NodeContext& ctx, NodeId) { send_pull(ctx, m); };
  m.fetch = repl::FetchSession(std::move(mount), std::move(hooks));
  return m;
}

void RangeMigrator::count(const char* metric, std::uint64_t n) const {
  if (cfg_.tracer != nullptr) {
    for (std::uint64_t i = 0; i < n; ++i) cfg_.tracer->count(metric);
  }
}

bool RangeMigrator::on_deliver(net::NodeContext& ctx, std::uint64_t index,
                               const workload::TxnRequest& req) {
  (void)index;
  if (req.proc == kMigSplitProc) {
    handle_split(ctx, req);
    return true;
  }
  if (req.proc == kMigReadyProc) {
    handle_ready(ctx, req);
    return true;
  }
  if (req.proc == kMigCommitProc) {
    handle_commit(ctx, req);
    return true;
  }
  return false;
}

void RangeMigrator::handle_split(net::NodeContext& ctx, const workload::TxnRequest& req) {
  (void)ctx;
  SHADOW_CHECK(req.params.size() >= 6);
  const RangeSpec spec = spec_from_params(req.params);
  if (spec.from == spec.to || spec.lo >= spec.hi) return;
  if (spec.from >= view_.shard_count() || spec.to >= view_.shard_count()) return;
  if (migrations_.count(spec.mid) != 0) return;  // stale rebroadcast
  add_migration(spec);
  count("mig.freezes");
  // The pull handshake is timer-driven (on_tick): a split delivered into a
  // to-replica starts pulling at the next sweep.
}

void RangeMigrator::handle_ready(net::NodeContext& ctx, const workload::TxnRequest& req) {
  SHADOW_CHECK(req.params.size() >= 2);
  const auto mid = static_cast<std::uint64_t>(req.params[0].as_int());
  const auto node = static_cast<std::uint32_t>(req.params[1].as_int());
  const auto it = migrations_.find(mid);
  if (it == migrations_.end() || it->second.committed) return;
  it->second.ready.insert(node);
  maybe_commit(ctx, it->second);
}

void RangeMigrator::maybe_commit(net::NodeContext& ctx, Migration& m) {
  // Only the receiving group decides: commit when the delivered ready set
  // covers every CURRENT member the heartbeat view calls live, or a
  // majority of the membership. The first clause keeps a healthy group
  // lossless (nobody gets left behind while merely seconds slower); the
  // second breaks the deadlocks the first cannot see: a crashed member that
  // was never reconfigured out (replacement needs a free spare and the
  // one-shot removal proposal surviving the wire), or a member whose
  // heartbeats flow — they travel replica-to-replica — while its delivery
  // stream is stalled, so it will never pull, never broadcast ready, and
  // never look dead. Whoever a majority commit leaves behind recovers via
  // resync at its own commit delivery (handle_commit). Re-evaluated on
  // reconfigurations and every tick.
  if (m.committed || group_ != m.spec.to) return;
  const std::vector<NodeId>& members = replica_.group();
  std::size_t ready_members = 0;
  bool live_covered = true;
  for (const NodeId n : members) {
    if (m.ready.count(n.value) != 0) {
      ++ready_members;
    } else if (replica_.detector().live(n, ctx.now())) {
      live_covered = false;
    }
  }
  if (!live_covered && ready_members * 2 <= members.size()) return;
  broadcast_commit(ctx, m);
}

void RangeMigrator::handle_commit(net::NodeContext& ctx, const workload::TxnRequest& req) {
  SHADOW_CHECK(req.params.size() >= 6);
  const RangeSpec spec = spec_from_params(req.params);
  // Already flipped: a resync restored this override through the snapshot
  // rider (which drops committed migrations from the records), and this is
  // the commit's delivery arriving through the post-restore drain. Without
  // this guard the unknown mid would synthesize a record and "apply" an
  // empty buffer over already-correct rows.
  for (const RangeOverride& o : view_.overrides()) {
    if (o.table == spec.table && o.lo == spec.lo && o.hi == spec.hi && o.from == spec.from &&
        o.to == spec.to) {
      return;
    }
  }
  const auto it = migrations_.find(spec.mid);
  // The admin's split broadcast to this group may have been lost and only
  // the commit landed: synthesize the record (this group never froze, which
  // is safe — it owned none of the range's keys before OR after the flip
  // unless it is the to-group, where the missing buffer is counted below).
  Migration& m = it != migrations_.end() ? it->second : add_migration(spec);
  if (m.committed) return;  // stale rebroadcast
  m.committed = true;
  m.fetch.stop();
  db::Engine& engine = executor_.engine();
  if (group_ == m.spec.from) {
    // Drop the donated rows while the view still maps them here (the
    // override below flips ownership): the donor's digest of owned state
    // then matches a group that never held the range.
    if (cfg_.flush) cfg_.flush();
    const RangeSpec& s = m.spec;
    const std::size_t removed = engine.delete_where_key(s.table, [&](const db::Key& key) {
      if (key.empty()) return false;
      const std::int64_t k = key[0].as_int();
      return k >= s.lo && k < s.hi && view_.shard_of(s.table, k) == s.from;
    });
    count("mig.rows_out", removed);
  }
  if (group_ == m.spec.to) {
    if (!m.buffered) {
      // The group committed without this replica (majority commit over a
      // dead-looking or stalled member, or a promotion after coverage was
      // reached). The donor's copy of the range is already gone, so no pull
      // can fill the buffer any more — the only consistent continuation is
      // a full resync from a peer, whose snapshot carries the post-commit
      // rows and this override in the rejoin rider.
      count("mig.buffer_miss");
      replica_.resync();
      return;
    }
    if (cfg_.flush) cfg_.flush();
    std::uint64_t cost = 0;
    std::uint64_t rows = 0;
    for (const db::Engine::SnapshotBatch& batch : m.batches) {
      cost += engine.restore_upsert_batch(batch);
      rows += batch.rows;
    }
    ctx.charge(cost);
    count("mig.rows_in", rows);
  }
  m.batches.clear();
  RangeOverride flip{m.spec.table, m.spec.lo, m.spec.hi, m.spec.from, m.spec.to};
  // Versioned reads pinned below this position still reconstruct the donated
  // rows from the donor's version chains (delete_where_key captured their
  // pre-images at this very version); at or above it the owner serves.
  committed_flips_.emplace_back(flip, executor_.engine().state_version());
  view_.install(std::move(flip));
  count("mig.commits");
}

std::optional<GroupId> RangeMigrator::ro_forward_target(const std::string& table,
                                                        std::int64_t key,
                                                        std::uint64_t version) const {
  const GroupId owner = view_.shard_of(table, key);
  if (owner == group_) return std::nullopt;
  if (version != 0) {
    for (const auto& [o, flip_version] : committed_flips_) {
      if (o.from == group_ && o.table == table && key >= o.lo && key < o.hi &&
          version < flip_version) {
        return std::nullopt;  // pinned below the flip: serve from history here
      }
    }
  }
  return owner;
}

bool RangeMigrator::frozen(const std::string& table,
                           const std::vector<std::int64_t>& keys) const {
  for (const auto& [mid, m] : migrations_) {
    if (m.committed || m.spec.table != table) continue;
    for (const std::int64_t k : keys) {
      if (k >= m.spec.lo && k < m.spec.hi) return true;
    }
  }
  return false;
}

bool RangeMigrator::divert(net::NodeContext& ctx, const workload::TxnRequest& req) {
  if (req.client.value >= kControlClientBit) return false;
  if (migrations_.empty()) return false;  // no migration ever touched this deployment
  const ShardRouter::ProcInfo* info = view_.proc_info(req.proc);
  const std::string table = info != nullptr ? info->table : std::string();
  const std::vector<std::int64_t> keys = view_.keys_of(req);
  if (frozen(table, keys)) {
    // Retryable abort, NOT recorded in the dedup table: the client resubmits
    // with a fresh seq once the range lands.
    count("mig.frozen_aborts");
    workload::TxnResponse resp{req.client, req.seq, false, {}, "range-frozen"};
    ctx.send(req.reply_to, workload::make_response_msg(resp));
    return true;
  }
  const std::vector<GroupId> owners = view_.shards_of(req);
  if (std::find(owners.begin(), owners.end(), group_) != owners.end()) return false;
  // Misrouted: the client routed by the base partition function but the keys
  // migrated away. A retry of a transaction that already executed owner-side
  // could re-execute there (the begin was deduplicated HERE, not there), so
  // answer retries from our dedup table first — it was merged from the
  // pre-migration history at every replica of this group.
  const auto& dedup = executor_.dedup_table();
  if (const auto it = dedup.find(req.client.value);
      it != dedup.end() && req.seq <= it->second.first) {
    ctx.send(req.reply_to, workload::make_response_msg(it->second.second));
    return true;
  }
  ClientId wire = req.client;
  if (owners.size() > 1) {
    // Keep the cross-shard marker on the forwarded broadcast so the owner's
    // pipelined path flushes for it without decoding.
    wire = ClientId{kXsBeginBit | (req.client.value & kXsClientMask)};
  }
  count("mig.forwards");
  broadcast_into(ctx, owners.front(), wire, req.seq, req);
  return true;
}

bool RangeMigrator::on_message(net::NodeContext& ctx, const net::Message& msg) {
  if (msg.header == kMigPullHeader) {
    serve_pull(ctx, net::msg_body<MigPullBody>(msg).mid, msg.from);
    return true;
  }
  for (auto& [mid, m] : migrations_) {
    if (m.fetch.on_message(ctx, msg)) return true;
  }
  return false;
}

void RangeMigrator::serve_pull(net::NodeContext& ctx, std::uint64_t mid, NodeId to) {
  const auto it = migrations_.find(mid);
  if (it == migrations_.end() || it->second.committed) return;
  const RangeSpec spec = it->second.spec;  // copy: the filter outlives the map lookup
  if (group_ != spec.from || !replica_.active()) return;
  // Serve only once every in-flight 2PC share on the range has decided: new
  // prepares vote NO against the freeze, so a clear range stays clear and
  // the streamed state is final. The puller retries until then.
  if (xs_ != nullptr && !xs_->range_clear(spec.table, spec.lo, spec.hi)) return;
  if (cfg_.flush) cfg_.flush();
  repl::StateTransfer::SendV2 s;
  s.headers = {kMigSnapBeginHeader, kMigSnapBatchHeader, kMigSnapDoneHeader,
               kMigSnapDeleteHeader};
  s.batch_bytes = cfg_.batch_bytes;
  s.tag = mid;
  s.compress = cfg_.compress;
  const RoutingView& view = view_;
  s.filter = [spec, &view](const std::string& table, const db::Key& key) {
    if (table != spec.table || key.empty()) return false;
    const std::int64_t k = key[0].as_int();
    return k >= spec.lo && k < spec.hi && view.shard_of(table, k) == spec.from;
  };
  s.tracer = cfg_.tracer;
  const repl::SendStats stats =
      repl::StateTransfer::send_v2(ctx, executor_.engine(), to, std::move(s));
  count("mig.streams_served");
  count("mig.stream_rows", stats.rows);
}

void RangeMigrator::send_pull(net::NodeContext& ctx, Migration& m) {
  const std::vector<NodeId>& donors = view_.base().replica_targets(m.spec.from);
  if (donors.empty()) return;
  // Rotate over the donor group's base replica set, starting at the spec's
  // preferred donor: every replica holds the identical frozen range, so any
  // of them can serve (which is the whole donor-death story).
  std::size_t start = 0;
  for (std::size_t i = 0; i < donors.size(); ++i) {
    if (donors[i] == m.spec.donor) start = i;
  }
  const NodeId target = donors[(start + m.pull_attempts) % donors.size()];
  ++m.pull_attempts;
  m.fetch.start(ctx.now(), target);
  ctx.send(target, net::make_msg(kMigPullHeader, MigPullBody{m.spec.mid}));
}

void RangeMigrator::broadcast_ready(net::NodeContext& ctx, const Migration& m) {
  workload::TxnRequest req;
  req.client = ClientId{kMigReadyClientBit | (self_.value & kMigIdMask)};
  req.seq = m.spec.mid;
  req.reply_to = self_;
  req.proc = kMigReadyProc;
  req.params = {db::Value(static_cast<std::int64_t>(m.spec.mid)),
                db::Value(static_cast<std::int64_t>(self_.value))};
  broadcast_into(ctx, group_, req.client, req.seq, req);
}

void RangeMigrator::broadcast_commit(net::NodeContext& ctx, const Migration& m) {
  workload::TxnRequest req;
  req.client =
      ClientId{kMigCommitClientBit | static_cast<std::uint32_t>(m.spec.mid & kMigIdMask)};
  req.seq = 1;
  req.reply_to = self_;
  req.proc = kMigCommitProc;
  req.params = params_from_spec(m.spec);
  for (GroupId g = 0; g < view_.shard_count(); ++g) {
    broadcast_into(ctx, g, req.client, req.seq, req);
  }
}

void RangeMigrator::broadcast_into(net::NodeContext& ctx, GroupId g, ClientId client,
                                   RequestSeq seq, const workload::TxnRequest& req) {
  const std::vector<NodeId>& tobs = view_.tob_targets(g);
  SHADOW_CHECK(!tobs.empty());
  // Rotate the frontend per attempt: a fixed choice would black-hole every
  // retry of the same broadcast into the same crashed TOB node.
  const NodeId target = tobs[(self_.value + bcast_attempts_++) % tobs.size()];
  tob::BroadcastBody body{tob::Command{client, seq, workload::encode_request(req)}};
  ctx.send(target, net::make_msg(tob::kBroadcastHeader, std::move(body)));
}

void RangeMigrator::on_membership_change(net::NodeContext& ctx) {
  for (auto& [mid, m] : migrations_) maybe_commit(ctx, m);
}

bool RangeMigrator::needs_serial() const {
  for (const auto& [mid, m] : migrations_) {
    if (!m.committed) return true;
  }
  for (const RangeOverride& o : view_.overrides()) {
    if (o.from == group_) return true;
  }
  return false;
}

void RangeMigrator::on_tick(net::NodeContext& ctx) {
  if (replica_.active()) {
    for (auto& [mid, m] : migrations_) {
      if (m.committed) continue;
      if (group_ == m.spec.to && !m.buffered) {
        // Idle: pull. Stalled for a whole sweep (donor crashed mid-stream,
        // pull lost): the session re-pulls from the next donor replica.
        if (m.fetch.fetching()) {
          m.fetch.tick(ctx, kMigTickPeriod);
        } else {
          send_pull(ctx, m);
        }
      }
      if (group_ == m.spec.to && m.buffered && m.ready.count(self_.value) == 0) {
        broadcast_ready(ctx, m);  // lost on the wire; TOB dedup makes this free
      }
      maybe_commit(ctx, m);
    }
    // A commit broadcast to another group can be lost with nobody retrying
    // (our own delivery already happened): resend a bounded number of times.
    for (auto& [mid, m] : migrations_) {
      if (m.committed && group_ == m.spec.to && m.commit_resends < kMigMaxCommitResends) {
        ++m.commit_resends;
        broadcast_commit(ctx, m);
      }
    }
  }
  ctx.set_timer(kMigTickPeriod, [this](net::NodeContext& c) { on_tick(c); });
}

MigSnapBody RangeMigrator::snapshot() const {
  MigSnapBody body;
  body.overrides = view_.overrides();
  for (const auto& [mid, m] : migrations_) {
    if (m.committed) continue;
    MigSnapBody::Inflight e;
    e.spec = m.spec;
    e.ready.assign(m.ready.begin(), m.ready.end());
    e.buffered = m.buffered ? 1 : 0;
    e.batches = m.batches;
    body.inflight.push_back(std::move(e));
  }
  return body;
}

void RangeMigrator::restore(net::NodeContext& ctx, const MigSnapBody& body) {
  view_.reset_overrides(body.overrides);
  migrations_.clear();
  committed_flips_.clear();  // see the member comment: forward-everything is safe
  for (const auto& e : body.inflight) {
    Migration& m = add_migration(e.spec);
    m.ready.insert(e.ready.begin(), e.ready.end());
    m.buffered = e.buffered != 0;
    m.batches = e.batches;
  }
  // A promoted spare / rejoined replica completes the handshake itself: it
  // announces a complete inherited buffer (the donor's ready set may not
  // cover us yet), and pulls at the next tick otherwise.
  for (auto& [mid, m] : migrations_) {
    if (group_ == m.spec.to && m.buffered && m.ready.count(self_.value) == 0) {
      broadcast_ready(ctx, m);
    }
  }
}

}  // namespace shadow::core
