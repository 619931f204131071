#include "core/recovery.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace shadow::core {

namespace {

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

}  // namespace

RecoveryCore::RecoveryCore(net::Transport& world, NodeId self, tob::TobNode& tob,
                           TxnExecutor& executor, std::vector<NodeId> members,
                           std::vector<NodeId> spares, RecoveryConfig config, Hooks hooks)
    : self_(self),
      tob_(tob),
      executor_(executor),
      config_(config),
      hooks_(std::move(hooks)),
      members_(std::move(members)),
      spares_(std::move(spares)),
      fetch_({.headers = snapshot_stream_headers(),
              .engine = &executor.engine(),
              .receiver = {config.tracer, self}},
             {.begin =
                  [this](net::NodeContext&, const repl::SnapBegin2Body& begin) {
                    if (begin.config != config_seq_) return false;
                    install_snapshot_dedup(executor_, begin);
                    return true;
                  },
              .done =
                  [this](net::NodeContext& ctx, const repl::SnapDone2Body&, NodeId from,
                         std::uint64_t order) {
                    executed_order_ = order;
                    next_order_ = std::max(next_order_, executed_order_);
                    if (config_.tracer) {
                      config_.tracer->state_transfer(ctx.now(), self_, obs::StatePhase::kDone,
                                                     0, from);
                    }
                    finish_recovery(ctx, from);
                  },
              .refetch = [this](net::NodeContext& ctx, NodeId from) { refetch_state(ctx, from); }}),
      hb_(self, kReplHbHeader, config.suspect_timeout) {
  SHADOW_REQUIRE(!members_.empty());
  SHADOW_REQUIRE_MSG(world.host_of(self_) == world.host_of(tob_.node()),
                     "replicas are co-located with their broadcast service node");
  leader_ = members_[0];
  group_size_target_ = members_.size();
  reconfig_client_id_ = ClientId{kReplReconfigClientBase + self_.value};
  if (!contains(members_, self_)) state_ = State::kSpare;
  for (NodeId member : members_) {
    if (member != self_) recovered_.insert(member.value);
  }

  // Hand TOB deliveries to the replica process through a loopback message so
  // the replica acts under its own identity (and stops acting when crashed).
  tob_.subscribe_local([this](net::NodeContext& ctx, Slot, std::uint64_t, const tob::Command& cmd) {
    ctx.send(self_, net::make_msg(kReplDeliverHeader, cmd));
  });
  world.schedule_timer_for_node(self_, world.now() + config_.hb_period,
                                [this](net::NodeContext& ctx) { on_heartbeat_tick(ctx); });
}

bool RecoveryCore::is_member(NodeId node) const { return contains(members_, node); }

// ---------------------------------------------------------------- messages --

bool RecoveryCore::on_message(net::NodeContext& ctx, const net::Message& msg) {
  // Any traffic from a configuration member counts as a liveness signal.
  hb_.heard(msg.from, ctx.now());

  if (fetch_.on_message(ctx, msg)) return true;
  if (msg.header == kReplDeliverHeader) {
    on_deliver(ctx, net::msg_body<tob::Command>(msg));
  } else if (msg.header == kReplElectHeader) {
    on_elect(ctx, msg.from, net::msg_body<ReplElectBody>(msg));
  } else if (msg.header == kReplHbHeader) {
    // The blanket liveness update above is all a heartbeat does.
  } else if (msg.header == kReplCatchupHeader) {
    const auto& body = net::msg_body<ReplCatchupBody>(msg);
    if (body.config != config_seq_) return true;
    for (const auto& [order, req] : body.txns) {
      if (order != executed_order_ + 1) continue;  // already have it
      execute_and_cache(ctx, order, req, /*answer_client=*/false);
    }
    finish_recovery(ctx, msg.from);
  } else if (msg.header == kReplRecoveredHeader) {
    const auto& body = net::msg_body<ReplAckBody>(msg);
    if (body.config != config_seq_ || !contains(members_, msg.from) || leader_ != self_) {
      return true;
    }
    recovered_.insert(msg.from.value);
    if (hooks_.recovered) hooks_.recovered();
  } else {
    return false;
  }
  return true;
}

void RecoveryCore::finish_recovery(net::NodeContext& ctx, NodeId winner) {
  fetch_.stop();
  state_ = State::kNormal;
  if (config_.tracer) config_.tracer->recover(ctx.now(), self_, executed_order_);
  ctx.send(winner, net::make_msg(kReplRecoveredHeader, ReplAckBody{config_seq_, executed_order_}));
}

// ------------------------------------------------------------ execution --

RecoveryCore::Ordered RecoveryCore::execute_first(net::NodeContext& ctx,
                                                  const workload::TxnRequest& req) {
  // Duplicates are no-ops answered from the dedup table.
  const TxnExecutor::Execution exec = executor_.execute(req);
  ctx.charge(exec.cost_us);
  if (exec.duplicate) {
    trace_execute(ctx, req, obs::kUnordered, exec);
    ctx.send(req.reply_to, workload::make_response_msg(exec.response));
    return {};
  }
  const std::uint64_t order = ++next_order_;
  executed_order_ = order;
  trace_execute(ctx, req, order, exec);
  cache(order, req);
  return {order, exec.response};
}

void RecoveryCore::execute_and_cache(net::NodeContext& ctx, std::uint64_t order,
                                     const workload::TxnRequest& req, bool answer_client) {
  const TxnExecutor::Execution exec = executor_.execute(req);
  ctx.charge(exec.cost_us);
  trace_execute(ctx, req, order, exec);
  executed_order_ = order;
  next_order_ = std::max(next_order_, order);
  cache(order, req);
  if (answer_client) ctx.send(req.reply_to, workload::make_response_msg(exec.response));
}

void RecoveryCore::cache(std::uint64_t order, const workload::TxnRequest& req) {
  txn_cache_.emplace_back(order, req);
  if (txn_cache_.size() > config_.txn_cache_max) txn_cache_.pop_front();
}

void RecoveryCore::trace_execute(net::NodeContext& ctx, const workload::TxnRequest& req,
                                 std::uint64_t order, const TxnExecutor::Execution& exec) const {
  if (config_.tracer) {
    config_.tracer->txn_execute(ctx.now(), self_, req.client, req.seq, order, exec.duplicate,
                                exec.response.committed, req.proc);
  }
}

// ---------------------------------------------------------------- election --

void RecoveryCore::on_deliver(net::NodeContext& ctx, const tob::Command& cmd) {
  const workload::TxnRequest req = workload::decode_request(cmd.payload);
  if (req.proc != kReplReconfigProc) return;
  SHADOW_CHECK(req.params.size() >= 3);
  const auto g = static_cast<ConfigSeq>(req.params[0].as_int());
  if (g != config_seq_) return;  // only the first proposal counts (step 3)

  std::vector<NodeId> new_members;
  for (std::size_t i = 2; i < req.params.size(); ++i) {
    new_members.push_back(NodeId{static_cast<std::uint32_t>(req.params[i].as_int())});
  }
  config_seq_ = g + 1;
  members_ = new_members;
  recovered_.clear();
  fetch_.stop();
  leader_ = NodeId{UINT32_MAX};
  hooks_.reset();

  if (!contains(members_, self_)) {
    state_ = state_ == State::kSpare ? State::kSpare : State::kDeposed;
    return;
  }
  state_ = State::kElecting;
  const net::Time now = ctx.now();
  for (NodeId member : members_) hb_.heard(member, now);
  // The winner may stream before our own election completes.
  fetch_.start(now, leader_);

  // Step 3: send (g+1, seq_r) to all members of the new configuration.
  const net::Message elect =
      net::make_msg(kReplElectHeader, ReplElectBody{config_seq_, executed_order_});
  for (NodeId member : members_) {
    if (member != self_) ctx.send(member, elect);
  }
  pending_elects_[config_seq_][self_.value] = executed_order_;
  maybe_finish_election(ctx);
}

void RecoveryCore::on_elect(net::NodeContext& ctx, NodeId from, const ReplElectBody& elect) {
  pending_elects_[elect.config][from.value] = elect.executed;
  if (elect.config != config_seq_) return;
  if (state_ == State::kElecting) {
    maybe_finish_election(ctx);
  } else if (leader_ == self_ && state_ == State::kNormal && contains(members_, from) &&
             recovered_.count(from.value) == 0) {
    // The election already had every member's position, so this is a member
    // that refused a damaged snapshot stream asking for another.
    send_state_to(ctx, from, elect.executed);
  }
}

void RecoveryCore::maybe_finish_election(net::NodeContext& ctx) {
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
  leader_ = leader;

  if (leader_ != self_) {
    // Steps 5/6 happen when the winner's catch-up or snapshot arrives; until
    // then we are recovering (we might already be fully up to date — then we
    // acknowledge right away).
    state_ = executed_order_ == best ? State::kNormal : State::kRecovering;
    if (state_ == State::kNormal) {
      fetch_.stop();
      ctx.send(leader_,
               net::make_msg(kReplRecoveredHeader, ReplAckBody{config_seq_, executed_order_}));
    } else {
      fetch_.start(ctx.now(), leader_);
    }
    return;
  }

  // We won: bring every other member up to date.
  fetch_.stop();
  state_ = State::kNormal;
  next_order_ = executed_order_;
  for (NodeId member : members_) {
    if (member == self_) continue;
    const std::uint64_t seq = elects.at(member.value);
    if (seq == executed_order_) {
      recovered_.insert(member.value);
    } else {
      send_state_to(ctx, member, seq);
    }
  }
  if (hooks_.recovered) hooks_.recovered();
}

// ---------------------------------------------------------- state transfer --

void RecoveryCore::send_state_to(net::NodeContext& ctx, NodeId member, std::uint64_t member_seq) {
  // Step 5: catch-up from the bounded cache where possible, else snapshot.
  const bool cache_covers = !txn_cache_.empty() && txn_cache_.front().first <= member_seq + 1;
  if (cache_covers || member_seq == executed_order_) {
    ReplCatchupBody body;
    body.config = config_seq_;
    for (const auto& [order, req] : txn_cache_) {
      if (order > member_seq) body.txns.emplace_back(order, req);
    }
    ctx.send(member, net::make_msg(kReplCatchupHeader, std::move(body)));
    return;
  }

  // Snapshot path: delegate to the shared state-transfer engine (serialize
  // here, cost charged on this machine; the member pays insertion per batch).
  repl::StateTransfer::SendV2 spec;
  spec.headers = snapshot_stream_headers();
  spec.batch_bytes = config_.snapshot_batch_bytes;
  spec.begin_base.config = config_seq_;
  spec.begin_base.order = executed_order_;
  collect_snapshot_dedup(executor_, spec.begin_base);
  spec.done_base.config = config_seq_;
  spec.tracer = config_.tracer;
  repl::StateTransfer::send_v2(ctx, executor_.engine(), member, std::move(spec));
}

void RecoveryCore::refetch_state(net::NodeContext& ctx, NodeId sender) {
  ctx.send(sender, net::make_msg(kReplElectHeader, ReplElectBody{config_seq_, executed_order_}));
}

// ------------------------------------------------------- failure detection --

void RecoveryCore::on_heartbeat_tick(net::NodeContext& ctx) {
  // No catch-up or stream frame for a whole suspicion interval: the transfer
  // was lost (a done frame, say). Ask the winner again.
  if (state_ == State::kRecovering) fetch_.tick(ctx, config_.suspect_timeout);
  if (state_ == State::kNormal || state_ == State::kElecting ||
      state_ == State::kRecovering) {
    const std::vector<NodeId> suspects = hb_.tick(ctx, members_, config_seq_);
    if (!suspects.empty()) suspect_and_propose(ctx, suspects);
  }
  ctx.set_timer(config_.hb_period, [this](net::NodeContext& c) { on_heartbeat_tick(c); });
}

void RecoveryCore::suspect_and_propose(net::NodeContext& ctx, const std::vector<NodeId>& suspects) {
  // Step 1: stop executing in the current configuration.
  hooks_.stop();

  // Step 2: propose the new configuration via the total order broadcast:
  // the suspects spliced out, spares appended up to the original size.
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
  req.proc = kReplReconfigProc;
  req.params = {db::Value(static_cast<std::int64_t>(config_seq_)),
                db::Value(static_cast<std::int64_t>(self_.value))};
  for (NodeId member : proposal) {
    req.params.push_back(db::Value(static_cast<std::int64_t>(member.value)));
  }
  tob::BroadcastBody body{tob::Command{req.client, req.seq, workload::encode_request(req)}};
  ctx.send(tob_.node(), net::make_msg(tob::kBroadcastHeader, std::move(body)));
}

}  // namespace shadow::core
