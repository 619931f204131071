#include "core/chain.hpp"

#include "core/pbr.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace shadow::core {

namespace {

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

constexpr std::uint64_t kForwardCost = 20;  // µs to relay one update down-chain

}  // namespace

ChainReplica::ChainReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
                           std::shared_ptr<db::Engine> engine,
                           std::shared_ptr<const workload::ProcedureRegistry> registry,
                           std::vector<NodeId> chain, std::vector<NodeId> spares,
                           ChainConfig config, ServerCosts costs)
    : world_(world),
      self_(self),
      tob_(tob),
      executor_(std::move(engine), std::move(registry), costs),
      config_(std::move(config)),
      chain_(std::move(chain)),
      spares_(std::move(spares)) {
  SHADOW_REQUIRE(!chain_.empty());
  SHADOW_REQUIRE_MSG(world_.host_of(self_) == world_.host_of(tob_.node()),
                     "chain replicas are co-located with their broadcast service node");
  chain_size_target_ = chain_.size();
  reconfig_client_id_ = ClientId{0x60000000u + self_.value};
  snap_rx_ = repl::StateTransfer::Receiver({config_.tracer, self_});
  if (!contains(chain_, self_)) state_ = State::kSpare;

  tob_.subscribe_local([this](net::NodeContext& ctx, Slot, std::uint64_t, const tob::Command& cmd) {
    ctx.send(self_, net::make_msg(kChainDeliverHeader, cmd));
  });
  world_.set_handler(self_, [this](net::NodeContext& ctx, const net::Message& msg) {
    on_message(ctx, msg);
  });
  if (config_.enable_failure_detection) {
    world_.schedule_timer_for_node(self_, world_.now() + config_.hb_period,
                                   [this](net::NodeContext& ctx) { on_heartbeat_tick(ctx); });
  }
}

std::optional<NodeId> ChainReplica::successor() const {
  auto it = std::find(chain_.begin(), chain_.end(), self_);
  if (it == chain_.end() || it + 1 == chain_.end()) return std::nullopt;
  return *(it + 1);
}

// ---------------------------------------------------------------- messages --

void ChainReplica::on_message(net::NodeContext& ctx, const net::Message& msg) {
  last_heard_[msg.from.value] = ctx.now();

  if (msg.header == kChainDeliverHeader) {
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
  if (msg.header == kChainElectHeader) {
    on_elect(ctx, msg.from, net::msg_body<ElectBody>(msg));
    return;
  }
  if (msg.header == kChainHbHeader) {
    return;  // liveness recorded above
  }
  if (msg.header == kChainCatchupHeader) {
    const auto& body = net::msg_body<CatchupBody>(msg);
    if (body.config != config_seq_) return;
    for (const auto& [order, req] : body.txns) {
      if (order != executed_order_ + 1) continue;
      execute_and_cache(ctx, order, req, /*answer_client=*/false);
    }
    state_ = State::kNormal;
    if (config_.tracer) config_.tracer->recover(ctx.now(), self_, executed_order_);
    ctx.send(msg.from,
             net::make_msg(kChainRecoveredHeader, ReplAckBody{config_seq_, executed_order_}));
    apply_buffered(ctx);
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
      // our position again makes the source send a fresh one.
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
    ctx.send(msg.from,
             net::make_msg(kChainRecoveredHeader, ReplAckBody{config_seq_, executed_order_}));
    apply_buffered(ctx);
    return;
  }
  if (msg.header == kChainRecoveredHeader) {
    const auto& body = net::msg_body<ReplAckBody>(msg);
    if (body.config != config_seq_) return;
    recovered_.insert(msg.from.value);
    if (recovered_.size() >= chain_.size() - 1) accepting_ = true;
    return;
  }
}

// -------------------------------------------------------------- normal case --

void ChainReplica::on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req) {
  const bool read_only = config_.read_only_procs.count(req.proc) > 0;
  if (state_ != State::kNormal || chain_.empty()) {
    ctx.send(req.reply_to,
             net::make_msg(kPbrRedirectHeader,
                           RedirectBody{NodeId{UINT32_MAX}, config_seq_, true}));
    return;
  }

  if (read_only) {
    // Queries are the tail's job: it only knows fully-replicated updates.
    if (chain_.back() != self_) {
      ctx.send(req.reply_to, net::make_msg(kPbrRedirectHeader,
                                           RedirectBody{chain_.back(), config_seq_, false}));
      return;
    }
    const TxnExecutor::Execution exec = executor_.execute(req);
    ctx.charge(exec.cost_us);
    if (config_.tracer) {
      config_.tracer->txn_execute(ctx.now(), self_, req.client, req.seq, obs::kUnordered,
                                  exec.duplicate, exec.response.committed, req.proc);
    }
    ctx.send(req.reply_to, workload::make_response_msg(exec.response));
    return;
  }

  // Updates enter at the head.
  if (chain_.front() != self_) {
    ctx.send(req.reply_to, net::make_msg(kPbrRedirectHeader,
                                         RedirectBody{chain_.front(), config_seq_, false}));
    return;
  }
  if (!accepting_) {
    ctx.send(req.reply_to, net::make_msg(kPbrRedirectHeader,
                                         RedirectBody{self_, config_seq_, true}));
    return;
  }
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
  if (chain_.size() == 1) {
    // Degenerate chain: head is tail; answer directly.
    ctx.send(req.reply_to, workload::make_response_msg(exec.response));
    return;
  }
  forward_down(ctx, order, req);
}

void ChainReplica::forward_down(net::NodeContext& ctx, std::uint64_t order,
                                const workload::TxnRequest& req) {
  const auto next = successor();
  if (!next) return;
  ctx.charge(kForwardCost);
  ctx.send(*next, net::make_msg(kReplFwdHeader, ForwardBody{config_seq_, order, req}));
}

void ChainReplica::on_forward(net::NodeContext& ctx, const ForwardBody& fwd) {
  if (fwd.config != config_seq_) return;
  if (state_ == State::kRecovering) {
    buffered_forwards_.push_back(fwd);
    return;
  }
  if (state_ != State::kNormal || !contains(chain_, self_)) return;
  if (fwd.order != executed_order_ + 1) return;  // FIFO links make gaps impossible
  // The tail answers the client: the update is now in every replica.
  execute_and_cache(ctx, fwd.order, fwd.request, /*answer_client=*/chain_.back() == self_);
  forward_down(ctx, fwd.order, fwd.request);
}

void ChainReplica::execute_and_cache(net::NodeContext& ctx, std::uint64_t order,
                                     const workload::TxnRequest& req, bool answer_client) {
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
  if (answer_client) ctx.send(req.reply_to, workload::make_response_msg(exec.response));
}

void ChainReplica::apply_buffered(net::NodeContext& ctx) {
  while (!buffered_forwards_.empty()) {
    const ForwardBody fwd = buffered_forwards_.front();
    buffered_forwards_.pop_front();
    if (fwd.config != config_seq_ || fwd.order != executed_order_ + 1) continue;
    execute_and_cache(ctx, fwd.order, fwd.request, chain_.back() == self_);
    forward_down(ctx, fwd.order, fwd.request);
  }
}

// ------------------------------------------------------------------ recovery --

void ChainReplica::on_deliver(net::NodeContext& ctx, const tob::Command& cmd) {
  const workload::TxnRequest req = workload::decode_request(cmd.payload);
  if (req.proc != kChainReconfigProc) return;
  const auto g = static_cast<ConfigSeq>(req.params[0].as_int());
  if (g != config_seq_) return;  // only the first proposal counts

  std::vector<NodeId> new_chain;
  for (std::size_t i = 2; i < req.params.size(); ++i) {
    new_chain.push_back(NodeId{static_cast<std::uint32_t>(req.params[i].as_int())});
  }
  config_seq_ = g + 1;
  chain_ = new_chain;
  buffered_forwards_.clear();
  snap_rx_.reset();
  recovered_.clear();
  accepting_ = false;

  if (!contains(chain_, self_)) {
    state_ = state_ == State::kSpare ? State::kSpare : State::kDeposed;
    return;
  }
  state_ = State::kElecting;
  const net::Time now = ctx.now();
  for (NodeId member : chain_) last_heard_[member.value] = now;
  const net::Message elect =
      net::make_msg(kChainElectHeader, ElectBody{config_seq_, executed_order_});
  for (NodeId member : chain_) {
    if (member != self_) ctx.send(member, elect);
  }
  pending_elects_[config_seq_][self_.value] = executed_order_;
  maybe_finish_election(ctx);
}

void ChainReplica::on_elect(net::NodeContext& ctx, NodeId from, const ElectBody& elect) {
  pending_elects_[elect.config][from.value] = elect.executed;
  if (elect.config != config_seq_) return;
  if (state_ == State::kElecting) {
    maybe_finish_election(ctx);
  } else if (state_ == State::kNormal && contains(chain_, from) &&
             recovered_.count(from.value) == 0) {
    // The election already had every member's position, so this is a member
    // that refused a damaged snapshot stream from us (the source) asking for
    // another.
    send_state_to(ctx, from, elect.executed);
  }
}

void ChainReplica::maybe_finish_election(net::NodeContext& ctx) {
  const auto& elects = pending_elects_[config_seq_];
  for (NodeId member : chain_) {
    if (elects.count(member.value) == 0) return;
  }
  // In a chain the most-advanced survivor is authoritative (updates flow
  // head → tail, so prefixes only shrink down-chain). It brings the others
  // up to date and the configured chain order then resumes.
  NodeId source = chain_[0];
  std::uint64_t best = elects.at(chain_[0].value);
  for (NodeId member : chain_) {
    const std::uint64_t seq = elects.at(member.value);
    if (seq > best || (seq == best && member.value < source.value)) {
      source = member;
      best = seq;
    }
  }
  if (source != self_) {
    source_ = source;
    state_ = executed_order_ == best ? State::kNormal : State::kRecovering;
    last_stream_frame_ = ctx.now();
    if (state_ == State::kNormal) {
      ctx.send(source,
               net::make_msg(kChainRecoveredHeader, ReplAckBody{config_seq_, executed_order_}));
    }
    return;
  }

  state_ = State::kNormal;
  next_order_ = executed_order_;
  recovered_.clear();
  std::size_t up_to_date = 0;
  for (NodeId member : chain_) {
    if (member == self_) continue;
    const std::uint64_t seq = elects.at(member.value);
    if (seq == executed_order_) {
      recovered_.insert(member.value);
      ++up_to_date;
    } else {
      send_state_to(ctx, member, seq);
    }
  }
  accepting_ = recovered_.size() >= chain_.size() - 1;
  (void)up_to_date;
}

void ChainReplica::refetch_state(net::NodeContext& ctx, NodeId sender) {
  snap_rx_.reset();
  last_stream_frame_ = ctx.now();
  ctx.send(sender, net::make_msg(kChainElectHeader, ElectBody{config_seq_, executed_order_}));
}

void ChainReplica::send_state_to(net::NodeContext& ctx, NodeId member, std::uint64_t member_seq) {
  const bool cache_covers =
      !txn_cache_.empty() && txn_cache_.front().first <= member_seq + 1;
  if (cache_covers || member_seq == executed_order_) {
    CatchupBody body;
    body.config = config_seq_;
    for (const auto& [order, req] : txn_cache_) {
      if (order > member_seq) body.txns.emplace_back(order, req);
    }
    ctx.send(member, net::make_msg(kChainCatchupHeader, std::move(body)));
    return;
  }
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

// ----------------------------------------------------------- failure detection --

void ChainReplica::on_heartbeat_tick(net::NodeContext& ctx) {
  if (state_ == State::kRecovering &&
      ctx.now() - last_stream_frame_ >= config_.suspect_timeout) {
    // No catch-up or stream frame for a whole suspicion interval: the
    // transfer was lost (a done frame, say). Ask the source again.
    refetch_state(ctx, source_);
  }
  if (state_ == State::kNormal || state_ == State::kElecting ||
      state_ == State::kRecovering) {
    for (NodeId member : chain_) {
      if (member != self_) ctx.send(member, net::make_signal(kChainHbHeader));
    }
    const net::Time now = ctx.now();
    std::vector<NodeId> suspects;
    for (NodeId member : chain_) {
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

void ChainReplica::suspect_and_propose(net::NodeContext& ctx, const std::vector<NodeId>& suspects) {
  accepting_ = false;
  // Splice the suspects out of the chain and append spares at the tail (the
  // canonical chain-replication repair).
  std::vector<NodeId> proposal;
  for (NodeId member : chain_) {
    if (!contains(suspects, member)) proposal.push_back(member);
  }
  for (NodeId spare : spares_) {
    if (proposal.size() >= chain_size_target_) break;
    if (!contains(proposal, spare) && !contains(suspects, spare)) proposal.push_back(spare);
  }
  if (proposal.empty()) return;

  workload::TxnRequest req;
  req.client = reconfig_client_id_;
  req.seq = ++reconfig_seq_;
  req.reply_to = self_;
  req.proc = kChainReconfigProc;
  req.params = {db::Value(static_cast<std::int64_t>(config_seq_)),
                db::Value(static_cast<std::int64_t>(self_.value))};
  for (NodeId member : proposal) {
    req.params.push_back(db::Value(static_cast<std::int64_t>(member.value)));
  }
  tob::BroadcastBody body{tob::Command{req.client, req.seq, workload::encode_request(req)}};
  ctx.send(tob_.node(), net::make_msg(tob::kBroadcastHeader, std::move(body)));
}

}  // namespace shadow::core
