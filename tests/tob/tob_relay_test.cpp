// Tests for the broadcast service's leader-relay path: non-leader frontends
// forward pending commands to the Paxos leader instead of racing slot
// proposals; relays fall back to local proposal when the leader dies.
#include <gtest/gtest.h>

#include "common/batch_copies.hpp"
#include "common/consensus_check.hpp"
#include "common/delivery_logs.hpp"
#include "consensus/paxos.hpp"
#include "loe/properties.hpp"
#include "sim/world.hpp"
#include "tob/tob.hpp"

namespace shadow::tob {
namespace {

struct RelayFixture {
  sim::World world;
  obs::Tracer tracer;
  TobConfig config;
  TobService service;
  std::vector<std::vector<Command>> logs;  // per node, via subscribe_local
  NodeId client;
  std::vector<AckBody> acks;

  explicit RelayFixture(std::uint64_t seed = 5) : world(seed) {
    config.protocol = Protocol::kPaxos;
    for (int i = 0; i < 3; ++i) config.nodes.push_back(world.add_node("tob" + std::to_string(i)));
    config.relay_timeout = 300000;  // quick fallback for the crash test
    shadow::testing::trace_consensus(config, tracer);
    service = make_service(world, config);
    shadow::testing::record_deliveries(service, logs);
    client = world.add_node("client");
    world.set_handler(client, [this](net::NodeContext&, const sim::Message& msg) {
      if (msg.header == kAckHeader) acks.push_back(sim::msg_body<AckBody>(msg));
    });
  }

  void broadcast(std::size_t target, RequestSeq seq) {
    world.post(client, config.nodes[target],
               sim::make_msg(kBroadcastHeader,
                             BroadcastBody{Command{ClientId{1}, seq, "x"}}));
  }
};

TEST(TobRelay, NonLeaderFrontendsRelayToTheLeader) {
  RelayFixture fx;
  // Warm up so node 0 is the established leader.
  fx.broadcast(0, 1);
  fx.world.run_until(1000000);

  struct Counter final : sim::WorldObserver {
    int relays = 0;
    int proposes = 0;
    void on_send(net::Time, NodeId, NodeId, const sim::Message& m) override {
      if (m.header == "tob-relay") ++relays;
      if (m.header == "px-propose") ++proposes;
    }
  } counter;
  fx.world.add_observer(&counter);

  // Commands entering at the non-leader frontends get relayed, and only the
  // leader proposes (3 px-propose fan-outs per batch, no slot races).
  for (RequestSeq s = 2; s <= 11; ++s) fx.broadcast(1 + s % 2, s);
  fx.world.run_until(5000000);
  EXPECT_EQ(fx.acks.size(), 11u);
  EXPECT_GT(counter.relays, 0);

  // All delivery logs identical.
  EXPECT_TRUE(loe::check_prefix_consistency(fx.logs).ok);
  for (const auto& log : fx.logs) EXPECT_EQ(log.size(), 11u);
}

TEST(TobRelay, RelayToDeadLeaderFallsBackToLocalProposal) {
  RelayFixture fx(7);
  fx.broadcast(0, 1);
  fx.world.run_until(1000000);
  ASSERT_EQ(fx.acks.size(), 1u);

  // Kill the leader, then inject via a surviving non-leader frontend: the
  // relay times out, node 1 proposes itself, Paxos elects a new leader.
  fx.world.crash(fx.config.nodes[0]);
  for (RequestSeq s = 2; s <= 6; ++s) fx.broadcast(1, s);
  fx.world.run_until(60000000);
  EXPECT_EQ(fx.acks.size(), 6u);
  EXPECT_EQ(fx.service.nodes[1]->delivered_count(), 6u);
  EXPECT_EQ(fx.service.nodes[2]->delivered_count(), 6u);
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
}

TEST(TobRelay, RelayForwardsTheOriginalEncodedBytes) {
  // Encode-once claim on the relay path, with real bytes on every link: a
  // command entering at a non-leader frontend is encoded exactly once (the
  // relay wrap); the leader's proposal and every Paxos hop copy those bytes.
  // The 2a the leader sends must carry a batch byte-identical to the relayed
  // one.
  RelayFixture fx;
  fx.world.set_wire_fidelity(true);
  fx.broadcast(0, 1);
  fx.world.run_until(1000000);  // node 0 is now the established leader
  ASSERT_EQ(fx.acks.size(), 1u);

  struct Capture final : sim::WorldObserver {
    std::vector<consensus::EncodedBatch> relayed;
    std::vector<consensus::EncodedBatch> proposed_2a;
    void on_send(net::Time, NodeId, NodeId, const sim::Message& m) override {
      if (m.header == kRelayHeader) {
        relayed.push_back(net::msg_body<RelayBody>(m).batch);
      }
      if (m.header == consensus::kP2aHeader) {
        proposed_2a.push_back(net::msg_body<consensus::P2aBody>(m).pvalue.batch);
      }
    }
  } capture;
  fx.world.add_observer(&capture);
  shadow::testing::BatchCopies copies;
  fx.world.add_observer(&copies);

  const SpliceStats base = splice_stats();
  fx.broadcast(1, 2);
  fx.world.run_until(5000000);
  EXPECT_EQ(fx.acks.size(), 2u);
  for (const auto& node : fx.service.nodes) EXPECT_EQ(node->delivered_count(), 2u);

  ASSERT_FALSE(capture.relayed.empty());
  bool reproposed_verbatim = false;
  for (const consensus::EncodedBatch& batch : capture.proposed_2a) {
    if (batch == capture.relayed.front()) reproposed_verbatim = true;
  }
  EXPECT_TRUE(reproposed_verbatim) << "no 2a carried the relayed bytes";

  const SpliceStats& now = splice_stats();
  EXPECT_EQ(now.batch_encodes - base.batch_encodes, 1u)
      << "the relay wrap must be the batch's only encode";
  // The batch's bytes were copied exactly once per frame carrying them, once
  // when the leader folded the relayed unit into its proposal, and once per
  // delivery by the fidelity check's re-encode — nowhere else.
  EXPECT_EQ(copies.folded, capture.relayed.front().payload_size());
  EXPECT_EQ(now.batch_bytes_copied - base.batch_bytes_copied,
            copies.framed + copies.folded + copies.delivered);
}

TEST(TobRelay, ReproposalAfterLeaderChangeReusesTheOriginalBytes) {
  // Failover re-proposal: slot 0 is accepted at the survivors but never
  // learned (the proposer died before any decision), so the next leader must
  // adopt the pvalue from the 1b responses and re-propose it — reusing the
  // encoded bytes the acceptors already hold, never serializing them again.
  RelayFixture fx(7);
  fx.world.set_wire_fidelity(true);

  const Command cmd1{ClientId{1}, 1, "x"};
  const consensus::EncodedBatch slot0_batch{Batch{cmd1}};  // THE one encode of cmd1
  const NodeId dead_leader = fx.config.nodes[0];

  struct Capture final : sim::WorldObserver {
    consensus::EncodedBatch expected;
    NodeId dead;
    int slot0_reproposals = 0;
    void on_send(net::Time, NodeId from, NodeId, const sim::Message& m) override {
      if (from == dead || m.header != consensus::kP2aHeader) return;
      const auto& pv = net::msg_body<consensus::P2aBody>(m).pvalue;
      if (pv.slot == 0 && pv.batch == expected) ++slot0_reproposals;
    }
  } capture;
  capture.expected = slot0_batch;
  capture.dead = dead_leader;
  fx.world.add_observer(&capture);
  shadow::testing::BatchCopies copies;
  fx.world.add_observer(&copies);

  const SpliceStats base = splice_stats();
  // The dying proposer's 2a reaches both survivors; its decision never will:
  // the 2a is put on the wire first, then the proposer crashes before
  // running anything (in-flight frames still arrive — only the destination
  // is checked at delivery).
  for (const std::size_t acceptor : {std::size_t{1}, std::size_t{2}}) {
    fx.world.post(dead_leader, fx.config.nodes[acceptor],
                  sim::make_msg(consensus::kP2aHeader,
                                consensus::P2aBody{consensus::PValue{
                                    consensus::Ballot{1, dead_leader}, 0, slot0_batch}}));
  }
  fx.world.crash(dead_leader);
  fx.world.run_until(200000);

  fx.broadcast(1, 2);
  fx.world.run_until(60000000);

  EXPECT_EQ(fx.acks.size(), 1u);  // only cmd 2 entered through a frontend
  ASSERT_EQ(fx.logs[1].size(), 2u);
  EXPECT_EQ(fx.logs[1][0], cmd1) << "the re-proposed slot must deliver first";
  EXPECT_EQ(fx.logs[2], fx.logs[1]);
  // The injected 2a stands for a proposal whose trace died with its
  // proposer: agreement holds, and validity reports the one thing the trace
  // cannot show, a decided value no traced node proposed for slot 0.
  const obs::CheckResult check = obs::check_trace(fx.tracer.snapshot());
  EXPECT_GT(check.slots_checked, 0u);
  for (const obs::Violation& v : check.violations) {
    EXPECT_EQ(v.invariant, "consensus-validity") << check.summary();
  }
  EXPECT_GT(capture.slot0_reproposals, 0)
      << "no survivor re-proposed slot 0 with the original bytes";

  // cmd1's batch was never encoded again: the only encodes charged to the
  // failover window belong to cmd2 (its relay wrap toward the dead leader,
  // the fallback local proposal, and at most one rebuild after losing a
  // slot race). Encoded bytes were copied only into the frames that carried
  // them (the relay toward the dead leader included) and by the fidelity
  // check's re-encode of each delivery.
  const SpliceStats& now = splice_stats();
  EXPECT_GE(now.batch_encodes - base.batch_encodes, 1u);
  EXPECT_LE(now.batch_encodes - base.batch_encodes, 3u);
  EXPECT_EQ(now.batch_bytes_copied - base.batch_bytes_copied,
            copies.framed + copies.folded + copies.delivered);
}

TEST(TobRelay, ClientRetryDuringFailoverIsDeduplicated) {
  RelayFixture fx(9);
  fx.broadcast(0, 1);
  fx.world.run_until(1000000);
  fx.world.crash(fx.config.nodes[0]);
  // The same command retried at both surviving frontends (a client timeout
  // retry): delivered exactly once, acked to both submissions at most.
  fx.broadcast(1, 2);
  fx.broadcast(2, 2);
  fx.world.run_until(60000000);
  std::size_t delivered_twos = 0;
  for (const Command& cmd : fx.logs[1]) {
    if (cmd.seq == 2) ++delivered_twos;
  }
  EXPECT_EQ(delivered_twos, 1u) << "no-duplication across frontends";
}

}  // namespace
}  // namespace shadow::tob
