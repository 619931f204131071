// Bounded ordering state: a TOB node forgets each decided slot once it is
// delivered, keeps one dedup window per client instead of every delivered
// key, and its Paxos module forgets the slots every peer has delivered (the
// stable prefix, consensus/paxos.hpp). These tests pin the dedup window's
// exact semantics, bound the retained state under load, and check that a
// partitioned node still catches up and a leader change still finds every
// value it needs.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/delivery_logs.hpp"
#include "consensus/paxos.hpp"
#include "core/group.hpp"
#include "loe/properties.hpp"
#include "net/tcp_transport.hpp"
#include "sim/world.hpp"
#include "tob/tob.hpp"

namespace shadow::tob {
namespace {

// -- dedup window ---------------------------------------------------------------

struct WindowFixture {
  sim::World world{3};
  consensus::SafetyRecorder safety;
  std::vector<NodeId> nodes;
  NodeId client;
  TobService service;
  std::vector<std::vector<Command>> delivered;
  std::vector<AckBody> acks;

  WindowFixture() {
    TobConfig config;
    for (int i = 0; i < 3; ++i) nodes.push_back(world.add_node("tob" + std::to_string(i)));
    config.nodes = nodes;
    service = make_service(world, config, &safety);
    shadow::testing::record_deliveries(service, delivered);
    client = world.add_node("client");
    world.set_handler(client, [this](net::NodeContext&, const sim::Message& msg) {
      if (msg.header == kAckHeader) acks.push_back(sim::msg_body<AckBody>(msg));
    });
  }

  /// Broadcasts through node 0 and runs until everything settles.
  void send(std::uint32_t client_id, RequestSeq seq) {
    world.post(client, nodes[0],
               sim::make_msg(kBroadcastHeader, BroadcastBody{Command{ClientId{client_id}, seq,
                                                                     "w"}}));
    world.run_until(world.now() + 500000);
  }

  std::size_t count(std::size_t node, std::uint32_t client_id, RequestSeq seq) const {
    return static_cast<std::size_t>(
        std::count_if(delivered[node].begin(), delivered[node].end(), [&](const Command& c) {
          return c.client.value == client_id && c.seq == seq;
        }));
  }
};

TEST(TobDedupWindow, OutOfOrderSeqsDeliverOnceAndTheWindowShrinksBack) {
  WindowFixture fx;
  fx.send(1, 2);  // seq 2 before seq 1
  EXPECT_EQ(fx.service[0].dedup_runs(), 1u);
  fx.send(1, 1);
  fx.send(1, 2);  // retries of each are duplicates
  fx.send(1, 1);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(fx.count(n, 1, 1), 1u);
    EXPECT_EQ(fx.count(n, 1, 2), 1u);
    // [1, 3) is one run; seq 0 was never delivered, so it is not covered.
    EXPECT_EQ(fx.service[n].dedup_runs(), 1u) << "node " << n;
  }
  EXPECT_EQ(fx.acks.size(), 4u) << "a retry of a delivered command is re-acked";

  fx.send(1, 0);  // seq 0 is a real seq, fresh until delivered
  fx.send(1, 0);
  fx.send(1, 5);  // a gap: [0, 3) and [5, 6)
  EXPECT_EQ(fx.count(0, 1, 0), 1u);
  EXPECT_EQ(fx.service[0].dedup_runs(), 2u);
  fx.send(1, 4);
  fx.send(1, 3);  // the gap closes: back to one run
  fx.send(1, 4);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(fx.delivered[n].size(), 6u);
    EXPECT_TRUE(loe::check_no_duplicates(fx.delivered[n]).ok);
    EXPECT_EQ(fx.service[n].dedup_runs(), 1u) << "node " << n;
    EXPECT_EQ(fx.service[n].retained_decisions(), 0u) << "delivered slots are forgotten";
  }
  EXPECT_TRUE(loe::check_prefix_consistency(fx.delivered).ok);
}

TEST(TobDedupWindow, RejoinFloorAndControlKeysFeedTheSameWindow) {
  WindowFixture fx;
  fx.send(1, 1);
  fx.send(1, 2);
  fx.send(1, 6);  // partial window on every node: [1, 3) and [6, 7)
  ASSERT_EQ(fx.service[2].dedup_runs(), 2u);

  // Node 2 resumes from a snapshot covering client 1 up to seq 4 and two
  // sparse control keys (a rejoin seq is wall-clock µs).
  constexpr std::uint32_t kControl = 0x50000002u;
  constexpr RequestSeq kRejoinSeq = 1'700'000'000'000'000ull;
  TobNode::ResumePoint rp;
  rp.index_base = 3;
  rp.floor = {{1, 4}};
  rp.control_keys = {{kControl, kRejoinSeq}, {kControl, kRejoinSeq + 7}};
  fx.service[2].resume_from(rp);
  fx.world.run_until(fx.world.now() + 1000);
  // Client 1: the floor [0, 5) merges with [1, 3) but not with [6, 7); the
  // control client keeps its two sparse seqs.
  EXPECT_EQ(fx.service[2].dedup_runs(), 4u);

  const std::size_t before = fx.delivered[2].size();
  fx.send(1, 3);  // covered by the floor here, fresh at nodes 0 and 1
  fx.send(1, 0);
  EXPECT_EQ(fx.count(0, 1, 3), 1u);
  EXPECT_EQ(fx.count(2, 1, 3), 0u) << "the snapshot covers seq 3";
  EXPECT_EQ(fx.count(2, 1, 0), 0u) << "the snapshot covers seq 0";
  fx.send(kControl, kRejoinSeq);  // a retried control command
  EXPECT_EQ(fx.count(2, kControl, kRejoinSeq), 0u);
  EXPECT_EQ(fx.count(0, kControl, kRejoinSeq), 1u);
  fx.send(1, 5);  // closes client 1's gap everywhere
  EXPECT_EQ(fx.delivered[2].size(), before + 1);
  EXPECT_EQ(fx.count(2, 1, 5), 1u);
  EXPECT_EQ(fx.service[2].dedup_runs(), 1u + 2u);  // client 1: [0, 7)
  EXPECT_EQ(fx.service[0].dedup_runs(), 2u + 1u);  // client 1: [0, 4) and [5, 7)
  fx.send(1, 4);
  EXPECT_EQ(fx.count(0, 1, 4), 1u);
  EXPECT_EQ(fx.count(2, 1, 4), 0u);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(fx.service[n].dedup_runs(), n == 2 ? 3u : 2u) << "client 1 is one run: [0, 7)";
  }
}

// -- retained state under load ----------------------------------------------------

constexpr std::uint32_t kClients = 8;

/// A 3-node Paxos TOB under a steady open-loop load spread over every
/// frontend, with per-node retained-state gauges.
struct LoadFixture {
  sim::World world{11};
  consensus::SafetyRecorder safety;
  TobConfig config;
  TobService service;
  std::vector<std::vector<Command>> delivered;
  NodeId client;
  RequestSeq sent = 0;
  bool sending = false;

  LoadFixture() {
    for (int i = 0; i < 3; ++i) config.nodes.push_back(world.add_node("tob" + std::to_string(i)));
    service = make_service(world, config, &safety);
    shadow::testing::record_deliveries(service, delivered);
    client = world.add_node("client");
    world.set_handler(client, [](net::NodeContext&, const sim::Message&) {});
  }

  /// One command every 2.5 ms (400/s, well below the service's capacity),
  /// round-robin over clients and live frontends.
  void start_load() {
    sending = true;
    tick();
  }
  void tick() {
    if (!sending) return;
    const std::uint32_t c = static_cast<std::uint32_t>(sent % kClients);
    const RequestSeq seq = 1 + sent / kClients;  // clients number from 1
    std::size_t frontend = sent % 3;
    while (world.crashed(config.nodes[frontend])) frontend = (frontend + 1) % 3;
    world.post(client, config.nodes[frontend],
               sim::make_msg(kBroadcastHeader, BroadcastBody{Command{ClientId{c}, seq, "load"}}));
    ++sent;
    world.schedule(2500, [this] { tick(); });
  }
  void run_for(net::Time t) { world.run_until(world.now() + t); }

  consensus::PaxosModule& paxos(std::size_t i) {
    return static_cast<consensus::PaxosModule&>(service[i].module());
  }
  /// Learned + accepted slots, undelivered decisions and dedup runs.
  std::size_t retained(std::size_t i) {
    return paxos(i).retained_slots() + service[i].retained_decisions() +
           service[i].dedup_runs();
  }
  std::size_t max_retained() {
    std::size_t m = 0;
    for (std::size_t i = 0; i < service.size(); ++i) m = std::max(m, retained(i));
    return m;
  }
};

// Steady state: a few slots in flight plus one run per client, whatever the
// length of the history.
constexpr std::size_t kRetainedBound = 64;

TEST(TobBoundedState, RetainedStateStaysBoundedUnderLoad) {
  LoadFixture fx;
  fx.start_load();
  std::size_t peak = 0;
  while (fx.sent < 20000) {
    fx.run_for(500000);
    peak = std::max(peak, fx.max_retained());
  }
  fx.sending = false;
  fx.run_for(2000000);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fx.delivered[i].size(), fx.sent) << "node " << i;
    EXPECT_EQ(fx.service[i].dedup_runs(), kClients);
    EXPECT_GT(fx.paxos(i).floor(), 0u) << "node " << i << " never pruned";
  }
  EXPECT_LE(peak, kRetainedBound) << "retained ordering state grows with history";
  EXPECT_TRUE(loe::check_prefix_consistency(fx.delivered).ok);
  EXPECT_TRUE(fx.safety.check_agreement().ok) << fx.safety.check_agreement().detail;
  EXPECT_TRUE(fx.safety.check_chosen_stability(2).ok);
}

TEST(TobBoundedState, PartitionedPeerHoldsTheStablePrefixBackThenCatchesUp) {
  LoadFixture fx;
  fx.start_load();
  fx.run_for(3000000);
  ASSERT_LE(fx.max_retained(), kRetainedBound);

  // Cut node 2 off from the other service nodes for 4 s under load: it
  // delivers nothing, so `stable` stops and the others' Paxos state grows
  // (and their dedup windows gain a gap for every command stuck at node 2).
  const NodeId cut = fx.config.nodes[2];
  for (int i = 0; i < 2; ++i) fx.world.set_partitioned(cut, fx.config.nodes[i], true);
  const std::uint64_t cut_at = fx.delivered[2].size();
  fx.run_for(4000000);
  EXPECT_GT(fx.paxos(0).retained_slots(), 2 * kRetainedBound)
      << "the stable prefix did not wait for the cut-off peer";
  EXPECT_GT(fx.max_retained(), 2 * kRetainedBound);
  EXPECT_LE(fx.delivered[2].size(), cut_at + 10);

  // Heal, keep the load on for 2 s, then let node 2 fetch everything it
  // missed: the state falls back once it has.
  for (int i = 0; i < 2; ++i) fx.world.set_partitioned(cut, fx.config.nodes[i], false);
  fx.run_for(2000000);
  fx.sending = false;
  fx.run_for(20000000);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fx.delivered[i].size(), fx.sent) << "node " << i;
  }
  EXPECT_TRUE(loe::check_prefix_consistency(fx.delivered).ok);
  for (const auto& log : fx.delivered) EXPECT_TRUE(loe::check_no_duplicates(log).ok);
  EXPECT_LE(fx.max_retained(), kRetainedBound) << "state was not released after the heal";
  EXPECT_TRUE(fx.safety.check_agreement().ok) << fx.safety.check_agreement().detail;
  EXPECT_TRUE(fx.safety.check_chosen_stability(2).ok);
}

TEST(TobBoundedState, NewLeaderPhaseOneCarriesOnlyTheInFlightWindow) {
  LoadFixture fx;
  fx.start_load();
  fx.run_for(5000000);

  struct P1bSizes final : sim::WorldObserver {
    std::size_t count = 0;
    std::size_t largest = 0;
    void on_send(net::Time, NodeId, NodeId, const sim::Message& m) override {
      if (m.header != consensus::kP1bHeader) return;
      ++count;
      largest = std::max(largest, net::msg_body<consensus::P1bBody>(m).accepted.size());
    }
  } p1b;
  fx.world.add_observer(&p1b);

  // Pause the load for a moment so no command is stranded at the leader
  // (the clients here never retry), then kill it and resume.
  fx.sending = false;
  fx.run_for(100000);
  std::size_t leader = 0;
  while (leader < 3 && !fx.paxos(leader).is_active_leader()) ++leader;
  ASSERT_LT(leader, 3u);
  fx.world.crash(fx.config.nodes[leader]);
  fx.start_load();
  fx.run_for(3000000);
  fx.sending = false;
  fx.run_for(3000000);

  EXPECT_GT(p1b.count, 0u) << "no leader change happened";
  EXPECT_LE(p1b.largest, kRetainedBound) << "phase 1 shipped pruned history";
  std::vector<std::vector<Command>> survivors;
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != leader) survivors.push_back(fx.delivered[i]);
  }
  EXPECT_EQ(survivors[0].size(), fx.sent);
  EXPECT_EQ(survivors[1].size(), fx.sent);
  EXPECT_TRUE(loe::check_prefix_consistency(fx.delivered).ok);
  EXPECT_TRUE(fx.safety.check_agreement().ok) << fx.safety.check_agreement().detail;
  EXPECT_TRUE(fx.safety.check_validity().ok) << fx.safety.check_validity().detail;
  EXPECT_TRUE(fx.safety.check_chosen_stability(2).ok)
      << fx.safety.check_chosen_stability(2).detail;
}

// -- the safety recorder lives only where it can check agreement -------------------

TEST(GroupSafety, RecorderOnlyWhenEveryTobNodeIsLocal) {
  sim::World world(1);
  std::vector<NodeId> sim_nodes;
  for (int i = 0; i < 3; ++i) sim_nodes.push_back(world.add_node("tob" + std::to_string(i)));
  EXPECT_NE(core::detail::make_group_safety(world, sim_nodes), nullptr);

  net::TcpOptions options;
  options.local_host = 0;
  options.hosts.resize(3);
  net::TcpTransport tcp(options);
  std::vector<NodeId> tcp_nodes;
  for (int i = 0; i < 3; ++i) {
    tcp_nodes.push_back(tcp.add_node("tob" + std::to_string(i), tcp.add_host()));
  }
  EXPECT_EQ(core::detail::make_group_safety(tcp, tcp_nodes), nullptr)
      << "a TCP process sees one acceptor and cannot check agreement";
}

}  // namespace
}  // namespace shadow::tob
