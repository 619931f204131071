// End-to-end smoke tests of the total order broadcast service over both
// consensus modules: delivery, total order, acks, safety properties.
#include <gtest/gtest.h>

#include "common/consensus_check.hpp"
#include "common/delivery_logs.hpp"
#include "loe/properties.hpp"
#include "sim/world.hpp"
#include "tob/tob.hpp"

namespace shadow::tob {
namespace {

struct Fixture {
  sim::World world;
  obs::Tracer tracer;
  std::vector<NodeId> service_nodes;
  NodeId client_node;
  TobService service;
  std::vector<std::vector<Command>> delivered;  // per node, via subscribe_local
  std::vector<AckBody> acks;

  explicit Fixture(Protocol protocol, std::size_t n, std::uint64_t seed = 1) : world(seed) {
    TobConfig config;
    config.protocol = protocol;
    for (std::size_t i = 0; i < n; ++i) {
      config.nodes.push_back(world.add_node("tob" + std::to_string(i)));
    }
    service_nodes = config.nodes;
    client_node = world.add_node("client");
    world.set_handler(client_node, [this](net::NodeContext&, const sim::Message& msg) {
      if (msg.header == kAckHeader) acks.push_back(sim::msg_body<AckBody>(msg));
    });
    shadow::testing::trace_consensus(config, tracer);
    service = make_service(world, config);
    shadow::testing::record_deliveries(service, delivered);
  }

  void broadcast(std::size_t target, ClientId client, RequestSeq seq,
                 std::string payload = "p") {
    Command cmd{client, seq, std::move(payload)};
    world.post(client_node, service_nodes[target],
               sim::make_msg(kBroadcastHeader, BroadcastBody{std::move(cmd)}));
  }

  const std::vector<std::vector<Command>>& logs() const { return delivered; }
};

TEST(TobPaxos, SingleBroadcastDeliversEverywhereAndAcks) {
  Fixture fx(Protocol::kPaxos, 3);
  fx.broadcast(0, ClientId{1}, 1);
  fx.world.run_until(2000000);
  for (const auto& node : fx.service.nodes) {
    ASSERT_EQ(node->delivered_count(), 1u) << "node " << to_string(node->node());
  }
  ASSERT_EQ(fx.acks.size(), 1u);
  EXPECT_EQ(fx.acks[0].client.value, 1u);
  EXPECT_EQ(fx.acks[0].seq, 1u);
}

TEST(TobPaxos, ManyBroadcastsTotallyOrdered) {
  Fixture fx(Protocol::kPaxos, 3);
  // Spray commands across all three service nodes.
  for (RequestSeq s = 1; s <= 60; ++s) fx.broadcast(s % 3, ClientId{static_cast<std::uint32_t>(1 + s % 4)}, s);
  fx.world.run_until(30000000);
  const auto logs = fx.logs();
  for (const auto& log : logs) EXPECT_EQ(log.size(), 60u);
  EXPECT_TRUE(loe::check_prefix_consistency(logs).ok);
  for (const auto& log : logs) EXPECT_TRUE(loe::check_no_duplicates(log).ok);
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
  EXPECT_EQ(fx.acks.size(), 60u);
}

TEST(TobPaxos, SurvivesMinorityCrash) {
  Fixture fx(Protocol::kPaxos, 3);
  for (RequestSeq s = 1; s <= 10; ++s) fx.broadcast(0, ClientId{1}, s);
  fx.world.run_until(5000000);
  // Crash a non-proposing service node (a minority), keep broadcasting.
  fx.world.crash(fx.service_nodes[2]);
  for (RequestSeq s = 11; s <= 20; ++s) fx.broadcast(0, ClientId{1}, s);
  fx.world.run_until(20000000);
  EXPECT_EQ(fx.service.nodes[0]->delivered_count(), 20u);
  EXPECT_EQ(fx.service.nodes[1]->delivered_count(), 20u);
  auto logs = fx.logs();
  logs.pop_back();  // the crashed node's log is a (shorter) prefix
  EXPECT_TRUE(loe::check_prefix_consistency(fx.logs()).ok);
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
  EXPECT_EQ(fx.acks.size(), 20u);
}

TEST(TobPaxos, LeaderCrashFailsOver) {
  Fixture fx(Protocol::kPaxos, 3);
  for (RequestSeq s = 1; s <= 5; ++s) fx.broadcast(1, ClientId{1}, s);
  fx.world.run_until(5000000);
  EXPECT_EQ(fx.service.nodes[1]->delivered_count(), 5u);
  // Node 0 bootstraps as leader; crash it and broadcast via node 1.
  fx.world.crash(fx.service_nodes[0]);
  for (RequestSeq s = 6; s <= 10; ++s) fx.broadcast(1, ClientId{1}, s);
  fx.world.run_until(60000000);
  EXPECT_EQ(fx.service.nodes[1]->delivered_count(), 10u);
  EXPECT_EQ(fx.service.nodes[2]->delivered_count(), 10u);
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
}

TEST(TobTwoThird, BroadcastsDeliverTotallyOrdered) {
  Fixture fx(Protocol::kTwoThird, 4);
  for (RequestSeq s = 1; s <= 40; ++s) fx.broadcast(s % 4, ClientId{2}, s);
  fx.world.run_until(30000000);
  for (const auto& node : fx.service.nodes) EXPECT_EQ(node->delivered_count(), 40u);
  EXPECT_TRUE(loe::check_prefix_consistency(fx.logs()).ok);
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
  EXPECT_EQ(fx.acks.size(), 40u);
}

TEST(TobTwoThird, SurvivesOneCrashOfFour) {
  Fixture fx(Protocol::kTwoThird, 4);
  for (RequestSeq s = 1; s <= 10; ++s) fx.broadcast(0, ClientId{1}, s);
  fx.world.run_until(10000000);
  fx.world.crash(fx.service_nodes[3]);
  for (RequestSeq s = 11; s <= 20; ++s) fx.broadcast(1, ClientId{1}, s);
  fx.world.run_until(60000000);
  EXPECT_EQ(fx.service.nodes[0]->delivered_count(), 20u);
  EXPECT_EQ(fx.service.nodes[1]->delivered_count(), 20u);
  EXPECT_EQ(fx.service.nodes[2]->delivered_count(), 20u);
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
}

}  // namespace
}  // namespace shadow::tob
