#include "core/smr.hpp"

#include <algorithm>

#include "core/migrate.hpp"
#include "core/rosnap.hpp"
#include "core/twopc.hpp"
#include "obs/trace.hpp"

namespace shadow::core {

namespace {

// SMR's state transfer uses the shared snapshot stream with config = 0 (the
// TOB index, not a configuration number, orders its epochs).
using SnapDoneBody = repl::SnapDone2Body;

constexpr const char* kHbHeader = "smr-hb";
/// Rejoin retry interval: the first request goes out after a short grace
/// period (the transport may still be connecting to peers), later ones when
/// the stream falls silent this long.
constexpr net::Time kRejoinGrace = 100000;
constexpr net::Time kRejoinRetry = 500000;
/// Decided batches in flight between a pipelined replica's consensus and
/// executor threads.
constexpr std::size_t kPipelineRingCapacity = 256;

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

}  // namespace

SmrReplica::SmrReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
                       std::shared_ptr<db::Engine> engine,
                       std::shared_ptr<const workload::ProcedureRegistry> registry,
                       std::vector<NodeId> replica_group, std::vector<NodeId> spares,
                       std::vector<NodeId> group_tobs, SmrConfig config, ServerCosts costs)
    : world_(world),
      self_(self),
      tob_(tob),
      executor_(std::move(engine), std::move(registry), costs),
      config_(config),
      group_(std::move(replica_group)),
      spares_(std::move(spares)),
      group_tobs_(std::move(group_tobs)),
      hb_(self, kHbHeader, config.suspect_timeout) {
  SHADOW_REQUIRE_MSG(world_.host_of(self_) == world_.host_of(tob_.node()),
                     "SMR replicas must be co-located with their broadcast service node");
  reconfig_client_id_ = ClientId{kControlClientBit + self_.value};

  // Promotion and rejoin streams, with the sharded riders: migration state
  // first (the 2PC restore recomputes ownership through the view it rebuilds).
  repl::FetchSession::Mount mount;
  mount.headers = snapshot_stream_headers();
  mount.riders = {kMigSnapRiderHeader, kXsSnapHeader};
  mount.engine = &executor_.engine();
  mount.receiver = {config_.tracer, self_};
  repl::FetchSession::Hooks fetch_hooks;
  fetch_hooks.begin = [this](net::NodeContext&, const repl::SnapBegin2Body& begin) {
    if (rejoining_) {
      // Rejoin keeps the dedup seqs around as the TOB resume floor too.
      rejoin_floor_ = begin.dedup_seqs;
      if (begin.mode == static_cast<std::uint8_t>(repl::TransferMode::kFull)) {
        // The reset wipes the state our delta baseline referred to; a retry
        // after a broken stream must fetch a full copy.
        rejoin_base_version_ = 0;
      }
    }
    install_snapshot_dedup(executor_, begin);
    return true;
  };
  fetch_hooks.rider = [this](net::NodeContext& ctx, const net::Message& msg) {
    if (msg.header == kXsSnapHeader) {
      if (xs_) xs_->restore(net::msg_body<XsSnapBody>(msg));
    } else if (mig_) {
      mig_->restore(ctx, net::msg_body<MigSnapBody>(msg));
    }
  };
  fetch_hooks.done = [this](net::NodeContext& ctx, const repl::SnapDone2Body& done, NodeId from,
                            std::uint64_t) { finish_join(ctx, done, from); };
  // A rejoin asks afresh (rotating its server); a promoted spare asks the
  // proposer again. A redundant stream is harmless: one arriving after the
  // join completed is ignored.
  fetch_hooks.refetch = [this](net::NodeContext& ctx, NodeId from) {
    if (rejoining_) {
      send_rejoin_request(ctx);
    } else {
      ctx.send(from, net::make_signal(kSnapRequestHeader));
    }
  };
  fetch_ = repl::FetchSession(std::move(mount), std::move(fetch_hooks));

  // The broadcast service hands deliveries to the co-located replica through
  // an in-process queue: model it as a loopback message so that (a) the
  // replica processes them under its own identity and (b) a crashed replica
  // process genuinely stops executing even if the service node survives.
  if (config_.pipelined_execution && world_.is_local(self_)) {
    // Pipelined: one loopback message per decided slot, carrying the decided
    // EncodedBatch; on_deliver_batch hands it to the executor
    // thread. The idle hook posts the executor's responses back into the
    // transport whenever the consensus loop completes an iteration.
    // Identical-assembly processes construct every replica in the cluster
    // but spawn an executor thread only for the one that runs here.
    tob_.subscribe_local_batch([this](net::NodeContext& ctx, Slot slot,
                                      std::uint64_t base_index,
                                      const tob::EncodedBatch& batch) {
      ctx.send(self_, net::make_msg(kSmrDeliverBatchHeader,
                                    DeliverBatchHandoff{slot, base_index, batch}));
    });
    pipeline_ = std::make_unique<ExecutorPipeline>(
        world_, self_, executor_, kPipelineRingCapacity, config_.tracer, config_.metric_scope);
    world_.add_idle_hook([this] { return pipeline_->drain_completions(); });
  } else {
    tob_.subscribe_local([this](net::NodeContext& ctx, Slot slot, std::uint64_t index,
                                const tob::Command& cmd) {
      ctx.send(self_, net::make_msg(kSmrDeliverHeader, DeliverHandoff{slot, index, cmd}));
    });
  }
  world_.set_handler(self_, [this](net::NodeContext& ctx, const net::Message& msg) {
    on_message(ctx, msg);
  });
  world_.schedule_timer_for_node(self_, world_.now() + config_.hb_period,
                                 [this](net::NodeContext& ctx) { on_heartbeat_tick(ctx); });
  if (config_.router != nullptr && config_.router->shard_count() > 1) {
    view_ = std::make_unique<RoutingView>(config_.router);
    // The parked-drain re-entry runs the same diversion checks as a fresh
    // delivery: a migration may have committed while the transaction sat
    // parked, in which case it must forward, not execute here.
    xs_ = std::make_unique<XsCoordinator>(
        world_, self_, config_.group, *view_, executor_,
        [this](net::NodeContext& ctx, std::uint64_t index, const workload::TxnRequest& req) {
          if (mig_ && mig_->divert(ctx, req)) return;
          execute_txn(ctx, index, req);
        },
        config_.tracer);
    RangeMigrator::Config mcfg;
    mcfg.tracer = config_.tracer;
    mcfg.batch_bytes = config_.snapshot_batch_bytes;
    mcfg.compress = config_.transfer_compression;
    mcfg.flush = [this] {
      if (pipeline_) pipeline_->flush();
    };
    mig_ = std::make_unique<RangeMigrator>(world_, *this, config_.group, *view_, executor_,
                                           xs_.get(), std::move(mcfg));
    xs_->set_range_block(
        [this](const std::string& table, const std::vector<std::int64_t>& keys) {
          return mig_->frozen(table, keys);
        });
    RoServer::Hooks ro_hooks;
    ro_hooks.serving = [this] { return active_ && !joining_ && !rejoining_; };
    ro_hooks.flush = [this] {
      if (pipeline_) pipeline_->flush();
    };
    ro_hooks.tracer = config_.tracer;
    ro_hooks.costs = costs;
    ro_ = std::make_unique<RoServer>(self_, config_.group, *view_, executor_, xs_.get(),
                                     mig_.get(), std::move(ro_hooks));
    // Sharded responses carry the commit coordinates read-only sessions use
    // as per-group floors; the pipelined response path stamps its own.
    if (pipeline_) pipeline_->set_commit_group(config_.group);
  }
}

SmrReplica::~SmrReplica() = default;

void SmrReplica::on_deliver(net::NodeContext& ctx, Slot slot, std::uint64_t index,
                            const tob::Command& cmd) {
  delivered_index_ = index;
  if (cmd.client.value >= kControlClientBit) {
    // Remember every delivered control command by exact key: they ride along
    // with rejoin snapshots so the joiner's TOB node deduplicates retries.
    seen_control_keys_.emplace_back(cmd.client.value, cmd.seq);
  }
  const workload::TxnRequest req = workload::decode_request(cmd.payload);
  if (req.proc == kSmrReconfigProc) {
    handle_reconfig(ctx, req);
    return;
  }
  if (req.proc == kSmrRejoinProc) {
    handle_rejoin(ctx, req, slot, index);
    return;
  }
  if (!active_) {
    // A promoted spare applies what it buffered on top of its snapshot. A
    // rejoiner drops these: they precede its rejoin command, so its snapshot
    // already covers them, and its TOB node redelivers everything after.
    if (joining_ && !rejoining_) buffered_.emplace_back(index, req);
    return;
  }
  apply_delivered(ctx, index, req);
}

void SmrReplica::apply_delivered(net::NodeContext& ctx, std::uint64_t index,
                                 const workload::TxnRequest& req) {
  stamp_state_version(index);
  if (mig_ && mig_->on_deliver(ctx, index, req)) return;
  if (xs_ && xs_->on_deliver(ctx, index, req)) return;
  if (mig_ && mig_->divert(ctx, req)) return;
  execute_txn(ctx, index, req);
}

void SmrReplica::stamp_state_version(std::uint64_t index) {
  // Deliveries are stamped as index + 1 so version 0 stays reserved for
  // pre-delivery (loader) writes: the TOB's first delivery has index 0.
  db::Engine& engine = executor_.engine();
  if (index + 1 > engine.state_version()) engine.set_state_version(index + 1);
}

void SmrReplica::on_deliver_batch(net::NodeContext& ctx, Slot slot, std::uint64_t base_index,
                                  const consensus::EncodedBatch& batch) {
  const tob::Batch& cmds = batch.commands();
  if (cmds.empty()) return;
  bool control = false;
  for (const tob::Command& cmd : cmds) {
    if (cmd.client.value >= kControlClientBit) {
      control = true;
      break;
    }
  }
  if (control || !active_ || (xs_ && xs_->busy()) || (mig_ && mig_->needs_serial())) {
    // Control commands mutate group/replica state on the consensus thread,
    // inactive replicas buffer or discard, and a busy 2PC engine must see
    // every delivery serially so lock-conflict parking stays a deterministic
    // function of the delivery prefix: drain the executor first so delivery
    // order is preserved, then take the single-threaded path.
    pipeline_->flush();
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      on_deliver(ctx, slot, base_index + i, cmds[i]);
    }
    return;
  }
  delivered_index_ = base_index + cmds.size() - 1;
  pipeline_->push(DeliverBatchHandoff{slot, base_index, batch});
}

void SmrReplica::execute_txn(net::NodeContext& ctx, std::uint64_t index,
                             const workload::TxnRequest& req) {
  TxnExecutor::Execution exec = executor_.execute(req);
  ctx.charge(exec.cost_us);
  if (view_) {
    // Commit coordinates for read-only session floors (rosnap.hpp): the
    // write is visible at this group's state at or after this position.
    exec.response.commit_group = config_.group;
    exec.response.commit_pos = executor_.engine().state_version();
  }
  if (config_.tracer) {
    config_.tracer->txn_execute(ctx.now(), self_, req.client, req.seq, index, exec.duplicate,
                                exec.response.committed, req.proc);
  }
  ctx.send(req.reply_to, workload::make_response_msg(exec.response));
}

void SmrReplica::handle_reconfig(net::NodeContext& ctx, const workload::TxnRequest& req) {
  SHADOW_CHECK(req.params.size() >= 3);
  const NodeId removed{static_cast<std::uint32_t>(req.params[0].as_int())};
  const NodeId added{static_cast<std::uint32_t>(req.params[1].as_int())};
  const NodeId proposer{static_cast<std::uint32_t>(req.params[2].as_int())};

  // Only the first valid proposal against the current group applies.
  if (!contains(group_, removed) || contains(group_, added)) return;
  std::erase(group_, removed);
  group_.push_back(added);

  if (removed == self_) {
    active_ = false;  // deposed (possibly a false suspicion)
    return;
  }
  if (added == self_ && !active_) {
    // We are the replacement: fetch the snapshot from the proposer and
    // buffer every delivery past this reconfiguration point.
    joining_ = true;
    buffered_.clear();
    fetch_.start(ctx.now(), proposer);
    ctx.send(proposer, net::make_signal(kSnapRequestHeader));
  }
  // The membership just changed under any in-flight migration: its ready
  // coverage is over the CURRENT group, so re-evaluate (the removed replica
  // may have been the only one still missing from the ready set).
  if (mig_) mig_->on_membership_change(ctx);
}

void SmrReplica::handle_rejoin(net::NodeContext& ctx, const workload::TxnRequest& req,
                               Slot slot, std::uint64_t index) {
  SHADOW_CHECK(req.params.size() >= 3);
  const NodeId joiner{static_cast<std::uint32_t>(req.params[0].as_int())};
  const NodeId proposer{static_cast<std::uint32_t>(req.params[1].as_int())};
  if (proposer != self_ || joiner == self_ || !active_) return;
  const auto base_version = static_cast<std::uint64_t>(req.params[2].as_int());
  // Serve the snapshot at this deterministic point: every active replica has
  // applied the same prefix. The joiner resumes its TOB node at this very
  // slot — commands delivered before this one (including earlier in this
  // slot) are covered by the dedup floor and the control keys; commands
  // after it the joiner delivers itself, at indexes continuing from
  // resume_index.
  SnapDoneBody done;
  done.resume_slot = slot;
  done.resume_index = index + 1;
  done.control_keys = seen_control_keys_;
  // Version 0 conflates "empty" with "freshly loaded" across process
  // incarnations, so only a positive base is offered as a delta baseline.
  std::optional<std::uint64_t> delta_since;
  if (base_version > 0) delta_since = base_version;
  send_snapshot_stream(ctx, joiner, done, delta_since);
}

void SmrReplica::send_snapshot_stream(net::NodeContext& ctx, NodeId to,
                                      const SnapDoneBody& done_template,
                                      std::optional<std::uint64_t> delta_since) {
  // Serialize at the deterministic point we are at now (all actives have
  // applied the same prefix), then stream ~50 KB batches. Row serialization
  // cost is charged here. A pipelined replica drains its executor first —
  // the engine belongs to the executor thread until the pipeline is
  // quiescent.
  if (pipeline_) pipeline_->flush();
  repl::StateTransfer::SendV2 spec;
  spec.headers = snapshot_stream_headers();
  spec.batch_bytes = config_.snapshot_batch_bytes;
  collect_snapshot_dedup(executor_, spec.begin_base);
  spec.done_base = done_template;
  spec.compress = config_.transfer_compression;
  spec.delta_since = delta_since;
  // Sharded deployments ship the migration state (routing overrides +
  // in-flight migrations) and the 2PC engine's in-flight state (prepared
  // votes, parked transactions, coordinator entries) as their own stream
  // elements between the row batches and `done` — migration first, because
  // the 2PC restore recomputes key ownership through the RoutingView the
  // migration rider rebuilds. Classic clusters have neither.
  spec.mid_stream = [this, &ctx, to] {
    if (mig_) ctx.send(to, net::make_msg(kMigSnapRiderHeader, mig_->snapshot()));
    if (xs_) ctx.send(to, net::make_msg(kXsSnapHeader, xs_->snapshot()));
  };
  spec.tracer = config_.tracer;
  repl::StateTransfer::send_v2(ctx, executor_.engine(), to, std::move(spec));
}

void SmrReplica::start_rejoin(NodeId via_tob, NodeId proposer, RequestSeq seq) {
  begin_rejoin(via_tob, proposer, seq, /*live_log=*/false);
}

void SmrReplica::begin_rejoin(NodeId via_tob, NodeId proposer, RequestSeq seq, bool live_log) {
  active_ = false;
  joining_ = true;
  rejoining_ = true;
  buffered_.clear();
  rejoin_via_ = via_tob;
  rejoin_proposer_ = proposer;
  rejoin_seq_ = seq;
  rejoin_attempts_ = 0;
  // Offer the engine's version as a delta baseline: nonzero when this
  // replica object survived the crash with its state intact (simulator
  // crash-restart); 0 after a real process restart, which gets a full copy.
  rejoin_base_version_ = executor_.engine().state_version();
  fetch_.stop();
  // Hold TOB delivery until the snapshot tells us where to resume. A
  // restarted process's empty log holds proposing too; a live log keeps
  // ordering for its group.
  tob_.pause_for_rejoin(/*keep_ordering=*/live_log);
  rejoin_timer_ = world_.schedule_timer_for_node(
      self_, world_.now() + kRejoinGrace, [this](net::NodeContext& ctx) { rejoin_tick(ctx); });
}

void SmrReplica::resync() {
  if (joining_ || !active_) return;
  // Served by the first live peer (a rejoin names no server of its own).
  // Seq is the current virtual millisecond: unique across this node's
  // resyncs and disjoint from restart incarnation counters.
  begin_rejoin(tob_.node(), self_, static_cast<RequestSeq>(world_.now() / 1000),
               /*live_log=*/true);
  // Our engine skipped the effects of the delivery that triggered this
  // resync, so its version is no base for a delta: fetch a full copy.
  rejoin_base_version_ = 0;
}

void SmrReplica::rejoin_tick(net::NodeContext& ctx) {
  if (!rejoining_) return;
  if (rejoin_attempts_ == 0) {
    send_rejoin_request(ctx);
  } else {
    fetch_.tick(ctx, kRejoinRetry);
  }
  rejoin_timer_ = ctx.set_timer(kRejoinRetry, [this](net::NodeContext& c) { rejoin_tick(c); });
}

void SmrReplica::send_rejoin_request(net::NodeContext& ctx) {
  // A retry means no complete stream answered the previous request. Either
  // it was never delivered (transport still connecting, a dead TOB
  // frontend), its server is dead, or the stream broke mid-air (sender
  // crash, frames lost to checksum corruption) — and then a same-(client,
  // seq) retry is deduplicated by TOB and serves nothing. The joiner cannot
  // tell these apart, so every retry takes a fresh seq and the next live
  // group member as server, broadcasting through that member's TOB node.
  if (rejoin_attempts_++ > 0) ++rejoin_seq_;
  if (rejoin_attempts_ > 1 || rejoin_proposer_ == self_) {
    const auto at = static_cast<std::size_t>(
        std::find(group_.begin(), group_.end(), rejoin_proposer_) - group_.begin());
    for (std::size_t i = 1; i <= group_.size(); ++i) {
      const NodeId peer = group_[(at + i) % group_.size()];
      if (peer != self_ && hb_.live(peer, ctx.now())) {
        rejoin_proposer_ = peer;
        rejoin_via_ = tob_of(peer);
        break;
      }
    }
  }
  // After a restart our own TOB node holds its proposals until resume: it
  // would leave the request unproposed.
  if (rejoin_via_ == tob_.node()) rejoin_via_ = tob_of(rejoin_proposer_);
  fetch_.start(ctx.now(), rejoin_proposer_);
  workload::TxnRequest req;
  req.client = ClientId{kRejoinClientBit + self_.value};
  req.seq = rejoin_seq_;
  req.reply_to = self_;
  req.proc = kSmrRejoinProc;
  req.params = {db::Value(static_cast<std::int64_t>(self_.value)),
                db::Value(static_cast<std::int64_t>(rejoin_proposer_.value)),
                db::Value(static_cast<std::int64_t>(rejoin_base_version_))};
  tob::BroadcastBody body{tob::Command{req.client, req.seq, workload::encode_request(req)}};
  ctx.send(rejoin_via_, net::make_msg(tob::kBroadcastHeader, std::move(body)));
}

NodeId SmrReplica::tob_of(NodeId replica) const {
  for (const NodeId tob : group_tobs_) {
    if (world_.host_of(tob) == world_.host_of(replica)) return tob;
  }
  SHADOW_CHECK_MSG(false, "no TOB node shares the replica's machine");
  return tob_.node();
}

void SmrReplica::on_message(net::NodeContext& ctx, const net::Message& msg) {
  if (msg.header == kSmrDeliverHeader) {
    const auto& handoff = net::msg_body<DeliverHandoff>(msg);
    on_deliver(ctx, handoff.slot, handoff.index, handoff.command);
    return;
  }
  if (msg.header == kSmrDeliverBatchHeader) {
    const auto& handoff = net::msg_body<DeliverBatchHandoff>(msg);
    on_deliver_batch(ctx, handoff.slot, handoff.base_index, handoff.batch);
    return;
  }
  if (msg.header == kHbHeader) {
    hb_.heard(msg.from, ctx.now());
    return;
  }
  if (msg.header == kSnapRequestHeader) {
    // Proposer side of a spare-promotion state transfer. Zeroed resume
    // fields: the spare's TOB node was live all along, so no resume point
    // travels.
    send_snapshot_stream(ctx, msg.from, SnapDoneBody{});
    return;
  }
  if (fetch_.on_message(ctx, msg)) return;
  if (mig_ && mig_->on_message(ctx, msg)) return;
  if (ro_) ro_->on_message(ctx, msg);
}

void SmrReplica::finish_join(net::NodeContext& ctx, const SnapDoneBody& done, NodeId from) {
  if (rejoining_) {
    if (rejoin_timer_) {
      world_.cancel(*rejoin_timer_);
      rejoin_timer_.reset();
    }
    delivered_index_ = done.resume_index == 0 ? 0 : done.resume_index - 1;
    tob::TobNode::ResumePoint rp;
    rp.slot = done.resume_slot;
    rp.index_base = done.resume_index;
    rp.floor = std::move(rejoin_floor_);
    rp.control_keys = done.control_keys;
    tob_.resume_from(rp);
    // Seed our own control-key history so a later rejoiner we serve gets
    // the full set, not just what we saw post-restart.
    seen_control_keys_ = done.control_keys;
    rejoining_ = false;
  }
  active_ = true;
  joining_ = false;
  if (config_.tracer) {
    config_.tracer->state_transfer(ctx.now(), self_, obs::StatePhase::kDone, done.rows, from);
    config_.tracer->recover(ctx.now(), self_, delivered_index_);
  }
  for (const auto& [index, req] : buffered_) apply_delivered(ctx, index, req);
  buffered_.clear();
}

void SmrReplica::on_heartbeat_tick(net::NodeContext& ctx) {
  // A promoted spare whose stream went silent for a whole heartbeat interval
  // (request or epilogue lost) asks its proposer again.
  if (joining_ && !rejoining_) fetch_.tick(ctx, config_.hb_period);
  if (active_) {
    for (const NodeId suspect : hb_.tick(ctx, group_, 0)) propose_replacement(ctx, suspect);
  }
  ctx.set_timer(config_.hb_period, [this](net::NodeContext& c) { on_heartbeat_tick(c); });
}

void SmrReplica::propose_replacement(net::NodeContext& ctx, NodeId suspect) {
  const auto spare = std::find_if(spares_.begin(), spares_.end(),
                                  [this](NodeId s) { return !contains(group_, s); });
  if (spare == spares_.end()) return;  // no spare available: stay degraded
  workload::TxnRequest req;
  req.client = reconfig_client_id_;
  req.seq = ++reconfig_seq_;
  req.reply_to = self_;
  req.proc = kSmrReconfigProc;
  req.params = {db::Value(static_cast<std::int64_t>(suspect.value)),
                db::Value(static_cast<std::int64_t>(spare->value)),
                db::Value(static_cast<std::int64_t>(self_.value))};
  tob::BroadcastBody body{tob::Command{req.client, req.seq, workload::encode_request(req)}};
  ctx.send(tob_.node(), net::make_msg(tob::kBroadcastHeader, std::move(body)));
}

}  // namespace shadow::core
