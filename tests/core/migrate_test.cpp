// End-to-end tests of dynamic shard rebalancing (core/migrate.hpp): a
// TOB-ordered `::mig-split` freezes a key range, the receiving group pulls
// the frozen rows from any donor replica as a filtered state-transfer
// stream, and a delivery-ordered `::mig-commit` atomically flips routing in
// every group's RoutingView — all under live transfer load, with the merged
// trace passing the full offline checker.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/migrate.hpp"
#include "core/shadowdb.hpp"
#include "db/sql.hpp"
#include "obs/checker.hpp"
#include "sim/world.hpp"
#include "tob/tob.hpp"
#include "workload/bank.hpp"

namespace shadow::core {
namespace {

// Keys of `accounts mod 2 == 0` in [kLo, kHi) migrate from group 0 to 1.
constexpr std::int64_t kLo = 50;
constexpr std::int64_t kHi = 100;

struct MigrateFixture {
  sim::World world;
  obs::Tracer tracer{{.capacity = 1 << 20, .record_messages = false}};
  ShardedSmrCluster cluster;
  std::vector<std::unique_ptr<DbClient>> clients;
  workload::bank::BankConfig bank{200, 0};

  explicit MigrateFixture(std::uint64_t seed = 1, std::size_t db_replicas = 2,
                          std::size_t db_spares = 1)
      : world(seed) {
    tracer.attach(world);
    auto registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*registry);
    ClusterOptions opts;
    opts.registry = registry;
    opts.tracer = &tracer;
    opts.db_replicas = db_replicas;
    opts.db_spares = db_spares;
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank); };
    cluster = make_sharded_smr_cluster(world, opts, 2);
  }

  RangeSpec split_spec() const {
    RangeSpec spec;
    spec.mid = 1;
    spec.table = workload::bank::kTable;
    spec.lo = kLo;
    spec.hi = kHi;
    spec.from = 0;
    spec.to = 1;
    spec.donor = cluster.groups[0].replica_nodes[0];
    return spec;
  }

  /// Schedules an administrator that broadcasts the split into EVERY group's
  /// log, with unconditional rebroadcasts (TOB dedup collapses them).
  void broadcast_split_at(net::Time at, const RangeSpec& spec, int rebroadcasts = 6) {
    const NodeId admin = world.add_node("mig-admin");
    for (int i = 0; i < rebroadcasts; ++i) {
      world.schedule_timer_for_node(
          admin, at + static_cast<net::Time>(i) * 500000,
          [this, spec, admin](net::NodeContext& ctx) {
            workload::TxnRequest req = make_split_request(spec);
            req.reply_to = admin;
            for (GroupId g = 0; g < cluster.router->shard_count(); ++g) {
              tob::BroadcastBody body{
                  tob::Command{req.client, req.seq, workload::encode_request(req)}};
              ctx.send(cluster.router->tob_targets(g)[0],
                       net::make_msg(tob::kBroadcastHeader, std::move(body)));
            }
          });
    }
  }

  /// Transfers only (conserving, amount 1): adjacent pairs are cross-shard
  /// from the start; same-parity (k, k+2) pairs are single-shard under the
  /// base partition and straddle groups once exactly one endpoint migrates.
  DbClient& add_transfer_client(std::size_t txns, std::uint64_t seed) {
    const ClientId id{static_cast<std::uint32_t>(clients.size() + 1)};
    const NodeId node = world.add_node("client" + std::to_string(id.value));
    DbClient::Options options;
    options.mode = DbClient::Mode::kTob;
    options.router = cluster.router.get();
    options.retry_conflict_aborts = true;
    options.txn_limit = txns;
    options.tracer = &tracer;
    auto rng = std::make_shared<Rng>(seed);
    const auto cfg = bank;
    clients.push_back(std::make_unique<DbClient>(world, node, id, options, [rng, cfg]() {
      const auto from =
          static_cast<std::int64_t>(rng->next() % static_cast<std::uint64_t>(cfg.accounts - 2));
      const std::int64_t to = rng->next() % 2 == 0 ? from + 1 : from + 2;
      return std::make_pair(
          std::string(workload::bank::kTransferProc),
          workload::Params{db::Value(from), db::Value(to), db::Value(std::int64_t{1})});
    }));
    return *clients.back();
  }

  void run_all(net::Time limit) {
    for (auto& c : clients) c->start();
    world.run_until(limit);
  }

  /// Post-migration owner of `key`: the base partition with the one override
  /// the tests perform applied.
  GroupId owner_of(std::int64_t key) const {
    const GroupId base = cluster.router->shard_of_key(key);
    if (base == 0 && key >= kLo && key < kHi) return 1;
    return base;
  }

  /// Balance of `key` read from a live replica of its (post-flip) owner.
  std::int64_t owned_balance(std::int64_t key) {
    db::Engine& engine = live_engine(owner_of(key));
    const db::TxnId txn = engine.begin();
    const db::ExecResult r =
        engine.execute(txn, db::make_select(workload::bank::kTable, {db::Value(key)}));
    engine.commit(txn);
    EXPECT_TRUE(r.ok() && !r.rows.empty()) << "account " << key;
    return r.rows.empty() ? 0 : r.rows[0][2].as_int();
  }

  db::Engine& live_engine(GroupId g) {
    for (auto& r : cluster.groups[g].replicas) {
      if (r->active() && !world.crashed(r->node())) return r->engine();
    }
    ADD_FAILURE() << "no live replica in group " << g;
    return cluster.groups[g].replicas[0]->engine();
  }

  std::uint64_t metric(const std::string& name) {
    return tracer.metrics().counter(name).value();
  }

  obs::CheckResult check() const { return obs::check_trace(tracer.snapshot()); }
};

TEST(ShardMigration, SplitRangeMovesKeysUnderLoad) {
  MigrateFixture fx(7);
  const std::int64_t initial_total = fx.bank.accounts * 1000;
  DbClient& a = fx.add_transfer_client(220, 101);
  DbClient& b = fx.add_transfer_client(220, 102);
  fx.broadcast_split_at(3000000, fx.split_spec());
  fx.run_all(300000000);
  ASSERT_TRUE(a.done());
  ASSERT_TRUE(b.done());
  EXPECT_EQ(a.committed() + b.committed(), 440u)
      << "frozen-range and epoch aborts must be retried to commitment";

  // The migration committed in every replica of both groups (2 active x 2
  // groups; a stale rebroadcast must never double-commit).
  EXPECT_EQ(fx.metric("mig.commits"), 4u);
  EXPECT_EQ(fx.metric("mig.buffer_miss"), 0u);
  // The donor kept forwarding base-routed traffic for the moved range.
  EXPECT_GT(fx.metric("mig.forwards"), 0u);

  // Conservation over the POST-FLIP owners: the moved rows live in group 1
  // at their donor-frozen-plus-later-writes values, and nowhere else served.
  std::int64_t total = 0;
  for (std::int64_t k = 0; k < fx.bank.accounts; ++k) total += fx.owned_balance(k);
  EXPECT_EQ(total, initial_total);

  // The donor dropped its copy of the moved rows at the flip.
  db::Engine& donor = fx.cluster.groups[0].replicas[0]->engine();
  const db::TxnId txn = donor.begin();
  const db::ExecResult gone =
      donor.execute(txn, db::make_select(workload::bank::kTable, {db::Value(std::int64_t{50})}));
  donor.commit(txn);
  EXPECT_TRUE(gone.ok() && gone.rows.empty()) << "moved row still present on the donor";

  // Replica agreement within each group, and the merged trace passes every
  // offline checker (total order, at-most-once, strict serializability,
  // durability, cross-shard atomicity).
  for (const ReplicationGroup& g : fx.cluster.groups) {
    EXPECT_EQ(g.replicas[0]->state_digest(), g.replicas[1]->state_digest()) << "group " << g.id;
  }
  const obs::CheckResult check = fx.check();
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(check.committed_txns_checked, 440u);
}

TEST(ShardMigration, DonorKilledMidTransferIsTakenOver) {
  MigrateFixture fx(13);
  const std::int64_t initial_total = fx.bank.accounts * 1000;
  DbClient& a = fx.add_transfer_client(180, 201);
  const RangeSpec spec = fx.split_spec();
  fx.broadcast_split_at(3000000, spec);
  // Kill the preferred donor right as the pull handshake starts: the
  // receivers rotate to the surviving donor replica (identical frozen
  // state), and the donor group's failure detector later promotes the spare,
  // which inherits the routing overrides through the snapshot rider.
  fx.world.schedule_timer_for_node(fx.world.add_node("killer"), 3030000,
                                   [&fx, spec](net::NodeContext&) {
                                     fx.world.crash(spec.donor);
                                   });
  fx.run_all(400000000);
  ASSERT_TRUE(a.done());
  EXPECT_EQ(a.committed(), 180u);

  EXPECT_GE(fx.metric("mig.commits"), 3u) << "both groups' survivors must commit the flip";
  EXPECT_EQ(fx.metric("mig.buffer_miss"), 0u);

  std::int64_t total = 0;
  for (std::int64_t k = 0; k < fx.bank.accounts; ++k) total += fx.owned_balance(k);
  EXPECT_EQ(total, initial_total);

  const obs::CheckResult check = fx.check();
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST(ShardMigration, LeaderHostLaggardResyncsThroughLivePeer) {
  // Three active replicas per group, so a majority commit can leave one
  // behind. The to-group replica on the TOB leader's machine never gets its
  // buffer: every donor replica's stream to it is corrupted on the wire until
  // the other two commit the flip. It then delivers a `::mig-commit` it has
  // no buffer for and must resync from a live peer — through that peer's TOB
  // node, since its own holds delivery for the rejoin.
  MigrateFixture fx(7, /*db_replicas=*/3, /*db_spares=*/0);
  const std::int64_t initial_total = fx.bank.accounts * 1000;
  DbClient& a = fx.add_transfer_client(200, 301);
  const SmrReplica& lag = *fx.cluster.groups[1].replicas[0];
  const NodeId laggard = lag.node();
  const std::vector<NodeId> donors = fx.cluster.groups[0].replica_nodes;
  for (const NodeId donor : donors) fx.world.set_link_fault(donor, laggard, {.corrupt_prob = 1.0});
  fx.broadcast_split_at(3000000, fx.split_spec());
  for (auto& c : fx.clients) c->start();
  // Advance in 1 ms steps, testing the loop conditions every 100 ms, and
  // note when the laggard leaves and re-enters the active set.
  net::Time t = 0;
  net::Time resync_began = 0;
  net::Time resync_ended = 0;
  const auto advance_100ms = [&] {
    for (int ms = 0; ms < 100; ++ms) {
      fx.world.run_until(t += 1000);
      if (!lag.active() && resync_began == 0) resync_began = t;
      if (lag.active() && resync_began != 0 && resync_ended == 0) resync_ended = t;
    }
  };
  while (fx.metric("mig.commits") == 0 && t < 60000000) advance_100ms();
  ASSERT_GT(fx.metric("mig.commits"), 0u) << "the majority never committed";
  for (const NodeId donor : donors) fx.world.clear_link_fault(donor, laggard);
  while (!a.done() && t < 300000000) advance_100ms();
  ASSERT_TRUE(a.done());
  EXPECT_EQ(a.committed(), 200u);
  // The laggard's TOB node was the leader: once resumed it must propose
  // again, or every command waits out a relay timeout at some other node.
  EXPECT_LT(t, 10000000) << "the group crawled after the resync";
  // Its log stayed live through the resync, so it kept ordering for its
  // group: the rejoin request was ordered at once, not after a relay
  // timeout (500 ms) at the frontend it entered through.
  ASSERT_GT(resync_began, 0u) << "the laggard never resynced";
  ASSERT_GT(resync_ended, resync_began) << "the laggard never came back";
  EXPECT_LT(resync_ended - resync_began, 300000) << "the resync waited on a paused leader";
  fx.world.run_until(t + 5000000);
  EXPECT_GE(fx.metric("mig.buffer_miss"), 1u) << "the laggard must have missed its buffer";

  const ReplicationGroup& to = fx.cluster.groups[1];
  for (const auto& r : to.replicas) {
    r->quiesce();
    EXPECT_TRUE(r->active()) << "replica " << r->node().value << " never resynced";
    EXPECT_EQ(r->state_digest(), to.replicas[1]->state_digest())
        << "replica " << r->node().value;
  }

  std::int64_t total = 0;
  for (std::int64_t k = 0; k < fx.bank.accounts; ++k) total += fx.owned_balance(k);
  EXPECT_EQ(total, initial_total);

  const obs::CheckResult check = fx.check();
  EXPECT_TRUE(check.ok()) << check.summary();
}

}  // namespace
}  // namespace shadow::core
