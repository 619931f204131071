#include "core/pbr.hpp"

#include "obs/trace.hpp"

namespace shadow::core {

namespace {

constexpr std::uint64_t kAckCost = 18;      // µs to process one ack
constexpr std::uint64_t kForwardCost = 34;  // µs to marshal one forward

}  // namespace

PbrReplica::PbrReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
                       std::shared_ptr<db::Engine> engine,
                       std::shared_ptr<const workload::ProcedureRegistry> registry,
                       std::vector<NodeId> initial_group, std::vector<NodeId> spares,
                       PbrConfig config, ServerCosts costs)
    : self_(self),
      executor_(std::move(engine), std::move(registry), costs),
      config_(config),
      recovery_(world, self, tob, executor_, std::move(initial_group), std::move(spares), config_,
                {.stop =
                     [this] {
                       stopped_ = true;
                       outstanding_.clear();
                     },
                 .reset =
                     [this] {
                       outstanding_.clear();
                       stopped_ = false;
                     }}) {
  world.set_handler(self_, [this](net::NodeContext& ctx, const net::Message& msg) {
    on_message(ctx, msg);
  });
}

void PbrReplica::on_message(net::NodeContext& ctx, const net::Message& msg) {
  if (recovery_.on_message(ctx, msg)) return;
  if (msg.header == workload::kTxnRequestHeader) {
    on_client_request(ctx, net::msg_body<workload::TxnRequest>(msg));
  } else if (msg.header == kReplFwdHeader) {
    on_forward(ctx, net::msg_body<ReplForwardBody>(msg));
  } else if (msg.header == kPbrAckHeader) {
    on_ack(ctx, msg.from, net::msg_body<ReplAckBody>(msg));
  }
}

void PbrReplica::on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req) {
  const NodeId primary = recovery_.leader();
  // A deposed replica (or a spare) is not part of the configuration at all:
  // point the client at the new membership rather than asking it to wait.
  if (!recovery_.is_member(self_)) {
    const RedirectBody to_members{recovery_.members().front(), recovery_.config_seq(), false};
    ctx.send(req.reply_to, net::make_msg(kPbrRedirectHeader, to_members));
    return;
  }
  if (!recovery_.normal() || primary != self_ || stopped_) {
    redirect(ctx, req.reply_to, /*busy=*/primary == self_ || stopped_);
    return;
  }
  if (!accepting()) {
    redirect(ctx, req.reply_to, /*busy=*/true);
    return;
  }

  // (ii) upon first reception, execute and commit.
  const RecoveryCore::Ordered first = recovery_.execute_first(ctx, req);
  if (first.order == 0) return;  // a duplicate, already answered

  // (iii) forward to every backup, recovered or still recovering (the
  // latter apply it after their snapshot, which is ahead of it on the link);
  // (iv) wait for acks from recovered backups only.
  Outstanding out;
  out.request = req;
  out.response = first.response;
  out.waiting = recovery_.recovered();
  const net::Message fwd = net::make_msg(
      kReplFwdHeader, ReplForwardBody{recovery_.config_seq(), first.order, req});
  for (NodeId member : recovery_.members()) {
    if (member == self_) continue;
    ctx.charge(kForwardCost);
    ctx.send(member, fwd);
  }
  if (out.waiting.empty()) {
    ctx.send(req.reply_to, workload::make_response_msg(out.response));
    return;
  }
  outstanding_.emplace(first.order, std::move(out));
}

void PbrReplica::on_forward(net::NodeContext& ctx, const ReplForwardBody& fwd) {
  if (fwd.config != recovery_.config_seq() || stopped_) return;  // stale configuration
  // A recovering backup's state transfer already covers this forward.
  if (!recovery_.normal() || recovery_.leader() == self_) return;
  if (fwd.order != recovery_.executed_order() + 1) return;  // duplicate (FIFO channels)
  recovery_.execute_and_cache(ctx, fwd.order, fwd.request, /*answer_client=*/false);
  ctx.send(recovery_.leader(),
           net::make_msg(kPbrAckHeader, ReplAckBody{recovery_.config_seq(), fwd.order}));
}

void PbrReplica::on_ack(net::NodeContext& ctx, NodeId from, const ReplAckBody& ack) {
  if (ack.config != recovery_.config_seq()) return;
  ctx.charge(kAckCost);
  auto it = outstanding_.find(ack.order);
  if (it == outstanding_.end()) return;
  it->second.waiting.erase(from.value);
  if (it->second.waiting.empty()) {
    // (iv) all recovered backups acknowledged: notify the client.
    ctx.send(it->second.request.reply_to, workload::make_response_msg(it->second.response));
    outstanding_.erase(it);
  }
}

void PbrReplica::redirect(net::NodeContext& ctx, NodeId to, bool busy) {
  // An unknown primary (mid-election) is a "try again later", not a target.
  const NodeId primary = recovery_.leader();
  if (primary.value == UINT32_MAX) busy = true;
  ctx.send(to, net::make_msg(kPbrRedirectHeader,
                             RedirectBody{primary, recovery_.config_seq(), busy}));
}

}  // namespace shadow::core
