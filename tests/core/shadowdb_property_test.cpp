// Randomized failure-schedule sweeps for both ShadowDB protocols.
//
// Each parameterized case crashes a random replica at a random time while a
// client stream runs, then machine-checks the paper's properties: every
// answered transaction survives (Durability, via balance conservation),
// replicas of the final configuration agree (State-agreement, via digests
// across *diverse* engines), execution is at-most-once despite retries, and
// the run's trace passes the offline checker, consensus safety included.
#include <gtest/gtest.h>

#include <memory>

#include "common/consensus_check.hpp"
#include "sim/world.hpp"
#include "core/shadowdb.hpp"
#include "workload/bank.hpp"

namespace shadow::core {
namespace {

struct Scenario {
  std::uint64_t seed;
  bool smr;            // SMR or PBR
  std::size_t victim;  // which replica to crash (0 = primary for PBR)
  net::Time crash_at;
};

class ShadowDbScheduleTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ShadowDbScheduleTest, PropertiesHoldAcrossCrashSchedules) {
  const Scenario scenario = GetParam();
  sim::World world(scenario.seed);
  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);
  const workload::bank::BankConfig bank{800, 0};

  obs::Tracer tracer({.record_messages = false});
  ClusterOptions opts;
  opts.tracer = &tracer;
  opts.registry = registry;
  opts.loader = [&bank](db::Engine& e) { workload::bank::load(e, bank); };
  // Diverse engines on purpose: digests must agree across implementations.
  opts.pbr.suspect_timeout = 1500000;
  opts.pbr.hb_period = 300000;
  opts.smr.suspect_timeout = 1500000;
  opts.smr.hb_period = 300000;

  std::optional<PbrCluster> pbr;
  std::optional<SmrCluster> smr;
  std::vector<NodeId> replica_nodes;
  if (scenario.smr) {
    smr.emplace(make_smr_cluster(world, opts));
    replica_nodes = smr->replica_nodes;
  } else {
    pbr.emplace(make_pbr_cluster(world, opts));
    replica_nodes = pbr->replica_nodes;
  }

  std::int64_t generated_total = 0;
  const NodeId client_node = world.add_node("client");
  DbClient::Options copts;
  copts.txn_limit = 260;
  copts.retry_timeout = 700000;
  copts.tracer = &tracer;
  if (scenario.smr) {
    copts.mode = DbClient::Mode::kTob;
    copts.targets = smr->broadcast_targets();
  } else {
    copts.mode = DbClient::Mode::kDirect;
    copts.targets = pbr->request_targets();
  }
  auto rng = std::make_shared<Rng>(scenario.seed * 31);
  DbClient client(world, client_node, ClientId{1}, copts,
                  [rng, &bank, &generated_total]() {
                    auto params = workload::bank::make_deposit(*rng, bank);
                    generated_total += params[1].as_int();
                    return std::make_pair(std::string(workload::bank::kDepositProc),
                                          std::move(params));
                  });
  client.start();

  world.run_until(scenario.crash_at);
  world.crash(replica_nodes[scenario.victim]);
  world.run_until(1200000000);

  ASSERT_TRUE(client.done()) << "committed only " << client.committed();
  EXPECT_EQ(client.committed() + client.aborted(), 260u);
  EXPECT_EQ(client.aborted(), 0u);

  // Consensus safety held throughout the run (recovery used the TOB).
  EXPECT_TRUE(shadow::testing::consensus_checked(tracer));

  // Identify the final configuration's live members.
  std::vector<db::Engine*> survivors;
  if (scenario.smr) {
    for (std::size_t i = 0; i < replica_nodes.size(); ++i) {
      if (world.crashed(replica_nodes[i])) continue;
      auto& replica = *smr->replicas[i];
      const auto& group = replica.group();
      if (replica.active() &&
          std::find(group.begin(), group.end(), replica_nodes[i]) != group.end()) {
        survivors.push_back(&replica.engine());
      }
    }
  } else {
    ConfigSeq latest = 0;
    for (std::size_t i = 0; i < replica_nodes.size(); ++i) {
      if (!world.crashed(replica_nodes[i])) {
        latest = std::max(latest, pbr->replicas[i]->config_seq());
      }
    }
    for (std::size_t i = 0; i < replica_nodes.size(); ++i) {
      if (world.crashed(replica_nodes[i])) continue;
      auto& replica = *pbr->replicas[i];
      const auto& members = replica.members();
      if (replica.config_seq() == latest &&
          std::find(members.begin(), members.end(), replica_nodes[i]) != members.end()) {
        survivors.push_back(&replica.engine());
      }
    }
  }
  ASSERT_FALSE(survivors.empty());

  // Durability + at-most-once: conservation of money on every survivor of
  // the final configuration, and State-agreement between them.
  const std::int64_t expected = 1000 * bank.accounts + generated_total;
  for (db::Engine* engine : survivors) {
    EXPECT_EQ(workload::bank::total_balance(*engine), expected)
        << "durability/at-most-once violated on " << engine->traits().name;
  }
  for (std::size_t i = 1; i < survivors.size(); ++i) {
    EXPECT_EQ(survivors[0]->state_digest(), survivors[i]->state_digest())
        << "state-agreement violated";
  }
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> scenarios;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const net::Time crash_at = 50000 + seed * 37000;
    scenarios.push_back({seed, false, 0, crash_at});       // PBR: crash primary
    scenarios.push_back({seed + 50, false, 1, crash_at});  // PBR: crash backup
    scenarios.push_back({seed + 100, true, 0, crash_at});  // SMR: crash replica 0
    scenarios.push_back({seed + 150, true, 1, crash_at});  // SMR: crash replica 1
  }
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(CrashSchedules, ShadowDbScheduleTest,
                         ::testing::ValuesIn(make_scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           const Scenario& s = info.param;
                           return std::string(s.smr ? "smr" : "pbr") + "_victim" +
                                  std::to_string(s.victim) + "_seed" +
                                  std::to_string(s.seed);
                         });

}  // namespace
}  // namespace shadow::core
