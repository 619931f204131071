// Property-based safety sweeps for the consensus modules.
//
// The paper proves safety in Nuprl; our substitution checks the same
// invariants on every execution across many seeded schedules with crash and
// partition injection (DESIGN.md §2). Each parameterized instance is one
// random schedule, traced and replayed through the offline checker
// (agreement, validity, integrity and the Paxos acceptor invariants). The
// checker's seeded-violation tests are in tests/obs/checker_test.cpp.
#include <gtest/gtest.h>

#include <memory>

#include "common/consensus_check.hpp"
#include "common/delivery_logs.hpp"
#include "sim/world.hpp"
#include "consensus/paxos.hpp"
#include "consensus/two_third.hpp"
#include "loe/properties.hpp"
#include "tob/tob.hpp"

namespace shadow::consensus {
namespace {

/// One randomized failure schedule over a TOB deployment.
struct Schedule {
  std::uint64_t seed;
  tob::Protocol protocol;
  std::size_t nodes;
  std::size_t crashes;      // how many service nodes to crash
  bool use_partition;       // additionally cut one link for a while
};

class ConsensusScheduleTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(ConsensusScheduleTest, SafetyHoldsUnderRandomSchedules) {
  const Schedule schedule = GetParam();
  Rng rng(schedule.seed);
  sim::World world(schedule.seed);
  obs::Tracer tracer;

  tob::TobConfig config;
  config.protocol = schedule.protocol;
  for (std::size_t i = 0; i < schedule.nodes; ++i) {
    config.nodes.push_back(world.add_node("tob" + std::to_string(i)));
  }
  shadow::testing::trace_consensus(config, tracer);
  tob::TobService service = tob::make_service(world, config);
  std::vector<std::vector<Command>> delivered;
  shadow::testing::record_deliveries(service, delivered);

  const NodeId client = world.add_node("client");
  std::size_t acks = 0;
  world.set_handler(client, [&acks](net::NodeContext&, const sim::Message& msg) {
    if (msg.header == tob::kAckHeader) ++acks;
  });

  // Broadcast a stream of commands spread over virtual time and nodes,
  // interleaved with the failure schedule.
  constexpr RequestSeq kCommands = 60;
  for (RequestSeq s = 1; s <= kCommands; ++s) {
    const net::Time at = s * 50000 + rng.uniform(0, 20000);
    const std::size_t target = rng.index(schedule.nodes);
    world.schedule(at - world.now() + 1, [&world, &config, client, target, s]() {
      tob::BroadcastBody body{Command{ClientId{1}, s, "payload"}};
      world.post(client, config.nodes[target],
                 sim::make_msg(tob::kBroadcastHeader, std::move(body)));
    });
  }

  // Crash schedule: crash up to `crashes` distinct non-zero nodes at random
  // times. (Node 0 stays alive so at least one stable proposer exists; the
  // dedicated failover tests cover leader crashes.)
  std::set<std::size_t> crashed;
  for (std::size_t c = 0; c < schedule.crashes; ++c) {
    const std::size_t victim = 1 + rng.index(schedule.nodes - 1);
    if (!crashed.insert(victim).second) continue;
    const net::Time at = rng.uniform(100000, 2500000);
    world.schedule(at, [&world, &config, victim]() { world.crash(config.nodes[victim]); });
  }
  if (schedule.use_partition) {
    const std::size_t a = rng.index(schedule.nodes);
    std::size_t b = rng.index(schedule.nodes);
    if (b == a) b = (b + 1) % schedule.nodes;
    world.schedule(rng.uniform(100000, 1000000), [&world, &config, a, b]() {
      world.set_partitioned(config.nodes[a], config.nodes[b], true);
    });
    world.schedule(rng.uniform(1500000, 2500000), [&world, &config, a, b]() {
      world.set_partitioned(config.nodes[a], config.nodes[b], false);
    });
  }

  world.run_until(120000000);

  // Safety: machine-checked from the trace.
  EXPECT_TRUE(shadow::testing::consensus_checked(tracer));

  // Total order across the surviving nodes' delivery logs.
  std::vector<std::vector<Command>> logs;
  for (std::size_t i = 0; i < service.size(); ++i) {
    if (!world.crashed(service[i].node())) logs.push_back(delivered[i]);
  }
  EXPECT_TRUE(loe::check_prefix_consistency(logs).ok);
  for (const auto& log : logs) EXPECT_TRUE(loe::check_no_duplicates(log).ok);

  // Liveness (under the schedule's failure budget): the surviving majority/
  // two-thirds keeps delivering everything that was broadcast to a live node.
  const std::size_t f_budget =
      schedule.protocol == tob::Protocol::kPaxos ? (schedule.nodes - 1) / 2
                                                 : (schedule.nodes - 1) / 3;
  if (crashed.size() <= f_budget) {
    for (const auto& log : logs) {
      EXPECT_GT(log.size(), kCommands / 2)
          << "surviving nodes should deliver most commands";
    }
  }
}

std::vector<Schedule> make_schedules() {
  std::vector<Schedule> schedules;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    schedules.push_back({seed, tob::Protocol::kPaxos, 3, 1, false});
    schedules.push_back({seed + 100, tob::Protocol::kPaxos, 5, 2, seed % 2 == 0});
    schedules.push_back({seed + 200, tob::Protocol::kTwoThird, 4, 1, false});
    schedules.push_back({seed + 300, tob::Protocol::kTwoThird, 7, 2, seed % 2 == 1});
  }
  return schedules;
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, ConsensusScheduleTest,
                         ::testing::ValuesIn(make_schedules()),
                         [](const ::testing::TestParamInfo<Schedule>& info) {
                           const Schedule& s = info.param;
                           return std::string(s.protocol == tob::Protocol::kPaxos ? "paxos"
                                                                                  : "twothird") +
                                  "_n" + std::to_string(s.nodes) + "_c" +
                                  std::to_string(s.crashes) + (s.use_partition ? "_part" : "") +
                                  "_seed" + std::to_string(s.seed);
                         });

// ---- targeted Paxos invariants -----------------------------------------------

TEST(TwoThirdInvariants, RequiresEnoughPeers) {
  TwoThirdConfig config;
  config.peers = {NodeId{0}, NodeId{1}, NodeId{2}};  // n=3 cannot tolerate f=1
  EXPECT_THROW(TwoThirdModule(NodeId{0}, config), PreconditionViolation);
}

TEST(PaxosInvariants, RequiresThreePeers) {
  PaxosConfig config;
  config.peers = {NodeId{0}, NodeId{1}};
  EXPECT_THROW(PaxosModule(NodeId{0}, config), PreconditionViolation);
}

}  // namespace
}  // namespace shadow::consensus
