#include "core/chain.hpp"

#include "core/pbr.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace shadow::core {

namespace {

constexpr std::uint64_t kForwardCost = 20;  // µs to relay one update down-chain

}  // namespace

ChainReplica::ChainReplica(net::Transport& world, NodeId self, tob::TobNode& tob,
                           std::shared_ptr<db::Engine> engine,
                           std::shared_ptr<const workload::ProcedureRegistry> registry,
                           std::vector<NodeId> chain, std::vector<NodeId> spares,
                           ChainConfig config, ServerCosts costs)
    : self_(self),
      executor_(std::move(engine), std::move(registry), costs),
      config_(std::move(config)),
      recovery_(world, self, tob, executor_, std::move(chain), std::move(spares), config_,
                {.stop = [this] { accepting_ = false; },
                 .reset = [this] { accepting_ = false; },
                 .recovered =
                     [this] {
                       if (recovery_.recovered().size() >= this->chain().size() - 1) {
                         accepting_ = true;
                       }
                     }}) {
  world.set_handler(self_, [this](net::NodeContext& ctx, const net::Message& msg) {
    on_message(ctx, msg);
  });
}

std::optional<NodeId> ChainReplica::successor() const {
  auto it = std::find(chain().begin(), chain().end(), self_);
  if (it == chain().end() || it + 1 == chain().end()) return std::nullopt;
  return *(it + 1);
}

void ChainReplica::on_message(net::NodeContext& ctx, const net::Message& msg) {
  if (recovery_.on_message(ctx, msg)) return;
  if (msg.header == workload::kTxnRequestHeader) {
    on_client_request(ctx, net::msg_body<workload::TxnRequest>(msg));
  } else if (msg.header == kReplFwdHeader) {
    on_forward(ctx, net::msg_body<ReplForwardBody>(msg));
  }
}

void ChainReplica::on_client_request(net::NodeContext& ctx, const workload::TxnRequest& req) {
  const ConfigSeq config = recovery_.config_seq();
  if (!recovery_.normal()) {
    ctx.send(req.reply_to, net::make_msg(kPbrRedirectHeader,
                                         RedirectBody{NodeId{UINT32_MAX}, config, true}));
    return;
  }

  if (config_.read_only_procs.count(req.proc) > 0) {
    // Queries are the tail's job: it only knows fully-replicated updates.
    if (chain().back() != self_) {
      ctx.send(req.reply_to,
               net::make_msg(kPbrRedirectHeader, RedirectBody{chain().back(), config, false}));
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
  if (chain().front() != self_) {
    ctx.send(req.reply_to,
             net::make_msg(kPbrRedirectHeader, RedirectBody{chain().front(), config, false}));
    return;
  }
  if (!accepting_) {
    ctx.send(req.reply_to, net::make_msg(kPbrRedirectHeader, RedirectBody{self_, config, true}));
    return;
  }
  const RecoveryCore::Ordered first = recovery_.execute_first(ctx, req);
  if (first.order == 0) return;  // a duplicate, already answered
  if (chain().size() == 1) {
    // Degenerate chain: head is tail; answer directly.
    ctx.send(req.reply_to, workload::make_response_msg(first.response));
    return;
  }
  forward_down(ctx, first.order, req);
}

void ChainReplica::forward_down(net::NodeContext& ctx, std::uint64_t order,
                                const workload::TxnRequest& req) {
  const auto next = successor();
  if (!next) return;
  ctx.charge(kForwardCost);
  ctx.send(*next,
           net::make_msg(kReplFwdHeader, ReplForwardBody{recovery_.config_seq(), order, req}));
}

void ChainReplica::on_forward(net::NodeContext& ctx, const ReplForwardBody& fwd) {
  if (fwd.config != recovery_.config_seq()) return;
  // A recovering member's state transfer already covers this forward.
  if (!recovery_.normal() || !recovery_.is_member(self_)) return;
  if (fwd.order != recovery_.executed_order() + 1) return;  // FIFO links make gaps impossible
  // The tail answers the client: the update is now in every replica.
  recovery_.execute_and_cache(ctx, fwd.order, fwd.request,
                              /*answer_client=*/chain().back() == self_);
  forward_down(ctx, fwd.order, fwd.request);
}

}  // namespace shadow::core
