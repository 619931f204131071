// Chain replication tests (extension module): head/tail routing, pipelined
// update flow, tail-read consistency, and crash recovery at each chain
// position via the TOB-agreed reconfiguration.
#include <gtest/gtest.h>

#include "sim/world.hpp"
#include "core/shadowdb.hpp"
#include "workload/bank.hpp"

namespace shadow::core {
namespace {

struct ChainFixture {
  sim::World world;
  ChainCluster cluster;
  workload::bank::BankConfig bank{500, 0};
  std::int64_t generated_total = 0;

  explicit ChainFixture(std::uint64_t seed = 1, std::size_t chain_len = 3,
                        net::Time suspect_timeout = 2000000)
      : world(seed) {
    auto registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*registry);
    ClusterOptions opts;
    opts.registry = registry;
    opts.machines = chain_len + 1;
    opts.db_replicas = chain_len;
    opts.db_spares = 1;
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank); };
    ChainConfig chain_config;
    chain_config.suspect_timeout = suspect_timeout;
    chain_config.hb_period = 400000;
    chain_config.read_only_procs = {workload::bank::kBalanceProc,
                                    workload::bank::kAuditProc};
    cluster = make_chain_cluster(world, opts, chain_config);
  }

  std::unique_ptr<DbClient> make_client(ClientId id, std::size_t txns,
                                        double read_fraction = 0.0) {
    const NodeId node = world.add_node("client" + std::to_string(id.value));
    DbClient::Options options;
    options.mode = DbClient::Mode::kDirect;
    options.targets = cluster.request_targets();
    options.txn_limit = txns;
    options.retry_timeout = 1000000;
    auto rng = std::make_shared<Rng>(id.value * 97 + 3);
    auto cfg = bank;
    return std::make_unique<DbClient>(
        world, node, id, options, [this, rng, cfg, read_fraction]() {
          if (rng->uniform01() < read_fraction) {
            return std::make_pair(
                std::string(workload::bank::kBalanceProc),
                workload::Params{db::Value(static_cast<std::int64_t>(
                    rng->uniform(0, static_cast<std::uint64_t>(cfg.accounts - 1))))});
          }
          auto params = workload::bank::make_deposit(*rng, cfg);
          generated_total += params[1].as_int();
          return std::make_pair(std::string(workload::bank::kDepositProc),
                                std::move(params));
        });
  }
};

TEST(ChainReplication, UpdatesFlowHeadToTailAndTailAnswers) {
  ChainFixture fx;
  auto client = fx.make_client(ClientId{1}, 50);
  client->start();
  fx.world.run_until(60000000);
  ASSERT_TRUE(client->done());
  EXPECT_EQ(client->committed(), 50u);
  // Every chain member executed every update, in order.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fx.cluster.replicas[i]->executed(), 50u) << "position " << i;
  }
  EXPECT_TRUE(fx.cluster.replicas[0]->is_head());
  EXPECT_TRUE(fx.cluster.replicas[2]->is_tail());
  EXPECT_EQ(fx.cluster.replicas[0]->state_digest(), fx.cluster.replicas[2]->state_digest());
}

TEST(ChainReplication, ReadsAreServedByTheTail) {
  ChainFixture fx;
  auto client = fx.make_client(ClientId{1}, 60, /*read_fraction=*/0.5);
  client->start();
  fx.world.run_until(120000000);
  ASSERT_TRUE(client->done());
  EXPECT_EQ(client->committed(), 60u);
  // The tail executed everything (updates + reads); the head only updates.
  EXPECT_GT(fx.cluster.replicas[2]->executed(), fx.cluster.replicas[0]->executed());
}

TEST(ChainReplication, AnsweredUpdateIsInEveryReplica) {
  // Chain's durability is stronger than PBR's: the tail answers only after
  // the update passed through the whole chain.
  ChainFixture fx;
  auto client = fx.make_client(ClientId{1}, 40);
  client->start();
  fx.world.run_until(60000000);
  ASSERT_TRUE(client->done());
  const std::int64_t expected = 1000 * fx.bank.accounts + fx.generated_total;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(workload::bank::total_balance(fx.cluster.replicas[i]->engine()), expected);
  }
}

class ChainCrashTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainCrashTest, RecoversFromCrashAtAnyPosition) {
  const std::size_t victim = GetParam();
  ChainFixture fx(11 + victim);
  auto client = fx.make_client(ClientId{1}, 250);
  client->start();
  fx.world.run_until(150000);
  fx.world.crash(fx.cluster.replica_nodes[victim]);
  fx.world.run_until(900000000);
  ASSERT_TRUE(client->done()) << "committed " << client->committed();
  EXPECT_EQ(client->committed(), 250u);

  // The new chain: old members minus the victim, spare appended at the tail.
  const std::int64_t expected = 1000 * fx.bank.accounts + fx.generated_total;
  std::size_t verified = 0;
  for (std::size_t i = 0; i < fx.cluster.replicas.size(); ++i) {
    if (fx.world.crashed(fx.cluster.replica_nodes[i])) continue;
    auto& replica = *fx.cluster.replicas[i];
    const auto& chain = replica.chain();
    if (std::find(chain.begin(), chain.end(), fx.cluster.replica_nodes[i]) == chain.end()) {
      continue;
    }
    EXPECT_EQ(replica.config_seq(), 1u);
    EXPECT_EQ(workload::bank::total_balance(replica.engine()), expected)
        << "replica " << i;
    ++verified;
  }
  EXPECT_EQ(verified, 3u);  // two survivors + the activated spare
}

std::string position_name(const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* names[] = {"head", "middle", "tail"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Positions, ChainCrashTest, ::testing::Values(0u, 1u, 2u),
                         position_name);

TEST(ChainReplication, NoAckTrafficInNormalCase) {
  // Structural property: the chain answers from the tail without any
  // up-chain acknowledgements (count messages by header).
  ChainFixture fx;
  struct Counter final : sim::WorldObserver {
    std::map<std::string, int> sends;
    void on_send(net::Time, NodeId, NodeId, const sim::Message& m) override {
      ++sends[m.header];
    }
  } counter;
  fx.world.add_observer(&counter);
  auto client = fx.make_client(ClientId{1}, 30);
  client->start();
  fx.world.run_until(60000000);
  ASSERT_TRUE(client->done());
  EXPECT_EQ(counter.sends["repl-fwd"], 2 * 30);  // head→mid, mid→tail per txn
  EXPECT_EQ(counter.sends["pbr-ack"], 0);
  EXPECT_EQ(counter.sends["repl-recovered"], 0);
}

}  // namespace
}  // namespace shadow::core
