#include "core/pbr.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace shadow::core {

namespace {

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

constexpr std::uint64_t kAckCost = 18;      // µs to process one ack
constexpr std::uint64_t kForwardCost = 34;  // µs to marshal one forward

}  // namespace

PbrReplica::PbrReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
                       std::shared_ptr<db::Engine> engine,
                       std::shared_ptr<const workload::ProcedureRegistry> registry,
                       std::vector<NodeId> initial_group, std::vector<NodeId> spares,
                       PbrConfig config, ServerCosts costs)
    : world_(world),
      self_(self),
      tob_(tob),
      executor_(std::move(engine), std::move(registry), costs),
      config_(config),
      costs_(costs),
      members_(std::move(initial_group)),
      spares_(std::move(spares)) {
  SHADOW_REQUIRE(!members_.empty());
  SHADOW_REQUIRE_MSG(world_.host_of(self_) == world_.host_of(tob_.node()),
                     "PBR replicas are co-located with their broadcast service node");
  primary_ = members_[0];
  group_size_target_ = members_.size();
  reconfig_client_id_ = ClientId{0x50000000u + self_.value};
  snap_rx_ = repl::StateTransfer::Receiver({config_.tracer, self_});
  if (!contains(members_, self_)) state_ = State::kSpare;
  for (NodeId b : members_) {
    if (b != self_) recovered_backups_.insert(b.value);
  }

  // Hand TOB deliveries to the replica process through a loopback message so
  // the replica acts under its own identity (and stops acting when crashed).
  tob_.subscribe_local([this](net::NodeContext& ctx, Slot, std::uint64_t, const tob::Command& cmd) {
    ctx.send(self_, net::make_msg(kPbrDeliverHeader, cmd));
  });
  world_.set_handler(self_, [this](net::NodeContext& ctx, const net::Message& msg) {
    on_message(ctx, msg);
  });
  if (config_.enable_failure_detection) {
    world_.schedule_timer_for_node(self_, world_.now() + config_.hb_period,
                                   [this](net::NodeContext& ctx) { on_heartbeat_tick(ctx); });
  }
}

// --------------------------------------------------------------- messages --

void PbrReplica::on_message(net::NodeContext& ctx, const net::Message& msg) {
  // Any traffic from a configuration member counts as a liveness signal.
  last_heard_[msg.from.value] = ctx.now();

  if (msg.header == kPbrDeliverHeader) {
    on_deliver(ctx, net::msg_body<tob::Command>(msg));
    return;
  }
  if (msg.header == workload::kTxnRequestHeader) {
    on_client_request(ctx, net::msg_body<workload::TxnRequest>(msg));
    return;
  }
  if (msg.header == kReplFwdHeader) {
    on_forward(ctx, net::msg_body<ForwardBody>(msg));
    return;
  }
  if (msg.header == kPbrAckHeader) {
    on_ack(ctx, msg.from, net::msg_body<AckBody>(msg));
    return;
  }
  if (msg.header == kPbrElectHeader) {
    on_elect(ctx, msg.from, net::msg_body<ElectBody>(msg));
    return;
  }
  if (msg.header == kPbrHbHeader) {
    return;  // the blanket last_heard_ update above is all a heartbeat does
  }
  if (msg.header == kPbrCatchupHeader) {
    const auto& body = net::msg_body<CatchupBody>(msg);
    if (body.config != config_seq_) return;
    for (const auto& [order, req] : body.txns) {
      if (order != executed_order_ + 1) continue;  // already have it
      execute_and_cache(ctx, order, req, /*send_response=*/false);
    }
    state_ = State::kNormal;
    if (config_.tracer) config_.tracer->recover(ctx.now(), self_, executed_order_);
    ctx.send(msg.from, net::make_msg(kPbrRecoveredHeader, AckBody{config_seq_, executed_order_}));
    apply_buffered_forwards(ctx);
    return;
  }
  if (msg.header == kSnapBegin2Header) {
    const auto& body = net::msg_body<repl::SnapBegin2Body>(msg);
    if (body.config != config_seq_) return;
    last_stream_frame_ = ctx.now();
    snap_rx_.begin_v2(executor_.engine(), body);
    install_snapshot_dedup(executor_, body);
    return;
  }
  if (msg.header == kSnapBatch2Header) {
    const auto& body = net::msg_body<repl::SnapBatch2Body>(msg);
    last_stream_frame_ = ctx.now();
    if (!snap_rx_.on_batch2(ctx, executor_.engine(), body, msg.from)) snap_rx_.reset();
    return;
  }
  if (msg.header == kSnapDone2Header) {
    const auto& done = net::msg_body<repl::SnapDone2Body>(msg);
    if (done.config != config_seq_ || state_ == State::kNormal) return;
    if (!snap_rx_.awaiting() || !snap_rx_.complete(done)) {
      // A stream with a lost or malformed frame is never installed. Presenting
      // our position again makes the primary send a fresh one.
      refetch_state(ctx, msg.from);
      return;
    }
    executed_order_ = snap_rx_.finish(executor_.engine());
    next_order_ = std::max(next_order_, executed_order_);
    state_ = State::kNormal;
    if (config_.tracer) {
      config_.tracer->state_transfer(ctx.now(), self_, obs::StatePhase::kDone, 0, msg.from);
      config_.tracer->recover(ctx.now(), self_, executed_order_);
    }
    ctx.send(msg.from, net::make_msg(kPbrRecoveredHeader, AckBody{config_seq_, executed_order_}));
    apply_buffered_forwards(ctx);
    return;
  }
  if (msg.header == kPbrRecoveredHeader) {
    const auto& body = net::msg_body<AckBody>(msg);
    if (body.config != config_seq_) return;
    backup_recovered(ctx, msg.from);
    return;
  }
}

// ------------------------------------------------------------- normal case --

void PbrReplica::on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req) {
  // A deposed replica (or a spare) is not part of the configuration at all:
  // point the client at the new membership rather than asking it to wait.
  if (!contains(members_, self_) && !members_.empty()) {
    ctx.send(req.reply_to, net::make_msg(kPbrRedirectHeader,
                                         RedirectBody{members_.front(), config_seq_, false}));
    return;
  }
  if (state_ != State::kNormal || primary_ != self_ || stopped_) {
    redirect(ctx, req.reply_to, /*busy=*/primary_ == self_ || stopped_);
    return;
  }
  if (!accepting()) {
    redirect(ctx, req.reply_to, /*busy=*/true);
    return;
  }

  // (ii) upon first reception, execute and commit; duplicates are no-ops
  // answered from the dedup table.
  const TxnExecutor::Execution exec = executor_.execute(req);
  ctx.charge(exec.cost_us);
  if (exec.duplicate) {
    if (config_.tracer) {
      config_.tracer->txn_execute(ctx.now(), self_, req.client, req.seq, obs::kUnordered, true,
                                  exec.response.committed, req.proc);
    }
    ctx.send(req.reply_to, workload::make_response_msg(exec.response));
    return;
  }
  const std::uint64_t order = ++next_order_;
  executed_order_ = order;
  if (config_.tracer) {
    config_.tracer->txn_execute(ctx.now(), self_, req.client, req.seq, order, false,
                                exec.response.committed, req.proc);
  }
  txn_cache_.emplace_back(order, req);
  if (txn_cache_.size() > config_.txn_cache_max) txn_cache_.pop_front();

  // (iii) forward to every backup, recovered or still recovering (the
  // latter buffer); (iv) wait for acks from recovered backups only.
  Outstanding out;
  out.request = req;
  out.response = exec.response;
  out.waiting = recovered_backups_;
  const net::Message fwd = net::make_msg(kReplFwdHeader, ForwardBody{config_seq_, order, req});
  for (NodeId member : members_) {
    if (member == self_) continue;
    ctx.charge(kForwardCost);
    ctx.send(member, fwd);
  }
  if (out.waiting.empty()) {
    ctx.send(req.reply_to, workload::make_response_msg(out.response));
    ++responses_sent_;
    return;
  }
  outstanding_.emplace(order, std::move(out));
}

void PbrReplica::on_forward(net::NodeContext& ctx, const ForwardBody& fwd) {
  if (fwd.config != config_seq_ || stopped_) return;  // stale configuration
  if (state_ == State::kRecovering) {
    buffered_forwards_.push_back(fwd);
    return;
  }
  if (state_ != State::kNormal || primary_ == self_) return;
  if (fwd.order != executed_order_ + 1) return;  // duplicate (FIFO channels)
  execute_and_cache(ctx, fwd.order, fwd.request, /*send_response=*/false);
  ctx.send(primary_, net::make_msg(kPbrAckHeader, AckBody{config_seq_, fwd.order}));
}

void PbrReplica::on_ack(net::NodeContext& ctx, NodeId from, const AckBody& ack) {
  if (ack.config != config_seq_) return;
  ctx.charge(kAckCost);
  auto it = outstanding_.find(ack.order);
  if (it == outstanding_.end()) return;
  it->second.waiting.erase(from.value);
  if (it->second.waiting.empty()) {
    // (iv) all recovered backups acknowledged: notify the client.
    ctx.send(it->second.request.reply_to, workload::make_response_msg(it->second.response));
    ++responses_sent_;
    outstanding_.erase(it);
  }
}

void PbrReplica::execute_and_cache(net::NodeContext& ctx, std::uint64_t order,
                                   const workload::TxnRequest& req, bool send_response) {
  const TxnExecutor::Execution exec = executor_.execute(req);
  ctx.charge(exec.cost_us);
  if (config_.tracer) {
    config_.tracer->txn_execute(ctx.now(), self_, req.client, req.seq, order, exec.duplicate,
                                exec.response.committed, req.proc);
  }
  executed_order_ = order;
  next_order_ = std::max(next_order_, order);
  txn_cache_.emplace_back(order, req);
  if (txn_cache_.size() > config_.txn_cache_max) txn_cache_.pop_front();
  if (send_response) ctx.send(req.reply_to, workload::make_response_msg(exec.response));
}

void PbrReplica::apply_buffered_forwards(net::NodeContext& ctx) {
  while (!buffered_forwards_.empty()) {
    const ForwardBody fwd = buffered_forwards_.front();
    buffered_forwards_.pop_front();
    if (fwd.config != config_seq_) continue;
    if (fwd.order != executed_order_ + 1) continue;
    execute_and_cache(ctx, fwd.order, fwd.request, /*send_response=*/false);
    ctx.send(primary_, net::make_msg(kPbrAckHeader, AckBody{config_seq_, fwd.order}));
  }
}

void PbrReplica::redirect(net::NodeContext& ctx, NodeId to, bool busy) {
  // An unknown primary (mid-election) is a "try again later", not a target.
  if (primary_.value == UINT32_MAX) busy = true;
  ctx.send(to, net::make_msg(kPbrRedirectHeader, RedirectBody{primary_, config_seq_, busy}));
}

// ---------------------------------------------------------------- recovery --

void PbrReplica::on_deliver(net::NodeContext& ctx, const tob::Command& cmd) {
  const workload::TxnRequest req = workload::decode_request(cmd.payload);
  if (req.proc != kPbrReconfigProc) return;
  SHADOW_CHECK(req.params.size() >= 3);
  const auto g = static_cast<ConfigSeq>(req.params[0].as_int());
  if (g != config_seq_) return;  // only the first proposal counts (step 3)

  std::vector<NodeId> new_members;
  for (std::size_t i = 2; i < req.params.size(); ++i) {
    new_members.push_back(NodeId{static_cast<std::uint32_t>(req.params[i].as_int())});
  }
  config_seq_ = g + 1;
  members_ = new_members;
  outstanding_.clear();
  recovered_backups_.clear();
  buffered_forwards_.clear();
  snap_rx_.reset();
  stopped_ = false;
  primary_ = NodeId{UINT32_MAX};

  if (!contains(members_, self_)) {
    state_ = state_ == State::kSpare ? State::kSpare : State::kDeposed;
    return;
  }
  state_ = State::kElecting;
  const net::Time now = ctx.now();
  for (NodeId member : members_) last_heard_[member.value] = now;

  // Step 3: send (g+1, seq_r) to all members of the new configuration.
  const net::Message elect = net::make_msg(kPbrElectHeader, ElectBody{config_seq_, executed_order_});
  for (NodeId member : members_) {
    if (member != self_) ctx.send(member, elect);
  }
  pending_elects_[config_seq_][self_.value] = executed_order_;
  maybe_finish_election(ctx);
}

void PbrReplica::on_elect(net::NodeContext& ctx, NodeId from, const ElectBody& elect) {
  pending_elects_[elect.config][from.value] = elect.executed;
  if (elect.config != config_seq_) return;
  if (state_ == State::kElecting) {
    maybe_finish_election(ctx);
  } else if (primary_ == self_ && state_ == State::kNormal && contains(members_, from) &&
             recovered_backups_.count(from.value) == 0) {
    // The election already had every member's position, so this is a backup
    // that refused a damaged snapshot stream asking for another.
    send_state_to(ctx, from, elect.executed);
  }
}

void PbrReplica::maybe_finish_election(net::NodeContext& ctx) {
  const auto& elects = pending_elects_[config_seq_];
  for (NodeId member : members_) {
    if (elects.count(member.value) == 0) return;  // step 4: wait for all
  }
  // Largest sequence number wins; ties go to the smallest identifier.
  NodeId leader = members_[0];
  std::uint64_t best = elects.at(members_[0].value);
  for (NodeId member : members_) {
    const std::uint64_t seq = elects.at(member.value);
    if (seq > best || (seq == best && member.value < leader.value)) {
      leader = member;
      best = seq;
    }
  }
  primary_ = leader;

  if (primary_ != self_) {
    // Step 5/6 happen when the primary's catch-up or snapshot arrives; until
    // then we are recovering (we might already be fully up to date — the
    // primary sends an empty catch-up in that case).
    state_ = executed_order_ == best ? State::kNormal : State::kRecovering;
    last_stream_frame_ = ctx.now();
    if (state_ == State::kNormal) {
      ctx.send(primary_, net::make_msg(kPbrRecoveredHeader, AckBody{config_seq_, executed_order_}));
    }
    return;
  }

  // We are the new primary.
  state_ = State::kNormal;
  next_order_ = executed_order_;
  for (NodeId member : members_) {
    if (member == self_) continue;
    const std::uint64_t seq = elects.at(member.value);
    if (seq == executed_order_) {
      recovered_backups_.insert(member.value);
    } else {
      send_state_to(ctx, member, seq);
    }
  }
}

void PbrReplica::send_state_to(net::NodeContext& ctx, NodeId backup, std::uint64_t backup_seq) {
  // Step 5: catch-up from the bounded cache where possible, else snapshot.
  const bool cache_covers =
      !txn_cache_.empty() && txn_cache_.front().first <= backup_seq + 1;
  if (cache_covers || backup_seq == executed_order_) {
    CatchupBody body;
    body.config = config_seq_;
    for (const auto& [order, req] : txn_cache_) {
      if (order > backup_seq) body.txns.emplace_back(order, req);
    }
    ctx.send(backup, net::make_msg(kPbrCatchupHeader, std::move(body)));
    return;
  }

  // Snapshot path: delegate to the shared state-transfer engine (serialize
  // here, cost charged on this machine; the backup pays insertion per batch).
  repl::StateTransfer::SendV2 spec;
  spec.headers = snapshot_stream_headers();
  spec.batch_bytes = config_.snapshot_batch_bytes;
  spec.begin_base.config = config_seq_;
  spec.begin_base.order = executed_order_;
  collect_snapshot_dedup(executor_, spec.begin_base);
  spec.done_base.config = config_seq_;
  spec.tracer = config_.tracer;
  repl::StateTransfer::send_v2(ctx, executor_.engine(), backup, std::move(spec));
}

void PbrReplica::refetch_state(net::NodeContext& ctx, NodeId sender) {
  snap_rx_.reset();
  last_stream_frame_ = ctx.now();
  ctx.send(sender, net::make_msg(kPbrElectHeader, ElectBody{config_seq_, executed_order_}));
}

void PbrReplica::backup_recovered(net::NodeContext& ctx, NodeId backup) {
  (void)ctx;
  if (!contains(members_, backup) || primary_ != self_) return;
  recovered_backups_.insert(backup.value);
}

// --------------------------------------------------------- failure detection --

void PbrReplica::on_heartbeat_tick(net::NodeContext& ctx) {
  if (state_ == State::kRecovering &&
      ctx.now() - last_stream_frame_ >= config_.suspect_timeout) {
    // No catch-up or stream frame for a whole suspicion interval: the
    // transfer was lost (a done frame, say). Ask the primary again.
    refetch_state(ctx, primary_);
  }
  if (state_ == State::kNormal || state_ == State::kElecting ||
      state_ == State::kRecovering) {
    for (NodeId member : members_) {
      if (member != self_) ctx.send(member, net::make_signal(kPbrHbHeader));
    }
    const net::Time now = ctx.now();
    std::vector<NodeId> suspects;
    for (NodeId member : members_) {
      if (member == self_) continue;
      auto [it, first] = last_heard_.try_emplace(member.value, now);
      (void)first;
      if (now - it->second >= config_.suspect_timeout) {
        const std::uint64_t key = (config_seq_ << 32) | member.value;
        if (proposed_.insert(key).second) suspects.push_back(member);
      }
    }
    if (!suspects.empty()) suspect_and_propose(ctx, suspects);
  }
  ctx.set_timer(config_.hb_period, [this](net::NodeContext& c) { on_heartbeat_tick(c); });
}

void PbrReplica::suspect_and_propose(net::NodeContext& ctx, const std::vector<NodeId>& suspects) {
  // Step 1: stop executing in the current configuration.
  stopped_ = true;
  outstanding_.clear();

  // Step 2: propose the new configuration via the total order broadcast.
  std::vector<NodeId> proposal;
  for (NodeId member : members_) {
    if (!contains(suspects, member)) proposal.push_back(member);
  }
  for (NodeId spare : spares_) {
    if (proposal.size() >= group_size_target_) break;
    if (!contains(proposal, spare) && !contains(suspects, spare)) proposal.push_back(spare);
  }
  if (proposal.empty()) return;  // nobody left to run the system

  workload::TxnRequest req;
  req.client = reconfig_client_id_;
  req.seq = ++reconfig_seq_;
  req.reply_to = self_;
  req.proc = kPbrReconfigProc;
  req.params = {db::Value(static_cast<std::int64_t>(config_seq_)),
                db::Value(static_cast<std::int64_t>(self_.value))};
  for (NodeId member : proposal) {
    req.params.push_back(db::Value(static_cast<std::int64_t>(member.value)));
  }
  tob::BroadcastBody body{tob::Command{req.client, req.seq, workload::encode_request(req)}};
  ctx.send(tob_.node(), net::make_msg(tob::kBroadcastHeader, std::move(body)));
}

}  // namespace shadow::core
