// Edge cases of the recovery procedures: "If failures occur during recovery,
// the procedure is restarted" (Sec. III-A step 7), double crashes, catch-up
// vs snapshot selection, and recovery under continuous client load.
#include <gtest/gtest.h>

#include "common/consensus_check.hpp"
#include "sim/world.hpp"
#include "core/shadowdb.hpp"
#include "workload/bank.hpp"

namespace shadow::core {
namespace {

struct Fixture {
  sim::World world;
  obs::Tracer tracer{{.record_messages = false}};
  PbrCluster cluster;
  workload::bank::BankConfig bank{600, 0};
  std::int64_t generated_total = 0;
  std::unique_ptr<DbClient> client;

  explicit Fixture(std::uint64_t seed, std::size_t replicas = 2, std::size_t spares = 2)
      : world(seed) {
    tracer.attach(world);
    auto registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*registry);
    ClusterOptions opts;
    opts.tracer = &tracer;
    opts.registry = registry;
    opts.machines = replicas + spares;
    opts.db_replicas = replicas;
    opts.db_spares = spares;
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank); };
    opts.pbr.suspect_timeout = 1500000;
    opts.pbr.hb_period = 300000;
    cluster = make_pbr_cluster(world, opts);

    const NodeId node = world.add_node("client");
    DbClient::Options copts;
    copts.mode = DbClient::Mode::kDirect;
    copts.targets = cluster.request_targets();
    copts.txn_limit = 300;
    copts.retry_timeout = 700000;
    auto rng = std::make_shared<Rng>(seed * 7 + 1);
    auto cfg = bank;
    client = std::make_unique<DbClient>(world, node, ClientId{1}, copts,
                                        [this, rng, cfg]() {
                                          auto params = workload::bank::make_deposit(*rng, cfg);
                                          generated_total += params[1].as_int();
                                          return std::make_pair(
                                              std::string(workload::bank::kDepositProc),
                                              std::move(params));
                                        });
  }

  std::int64_t expected_total() const { return 1000 * bank.accounts + generated_total; }
};

TEST(RecoveryEdge, SecondCrashAfterRecoveryPreservesDurability) {
  // Sequential failures, each within the f=1 budget of its configuration:
  // crash the primary, let the recovery complete, then crash the new
  // primary. Every answered transaction must survive into configuration 2.
  Fixture fx(3);
  fx.client->start();
  fx.world.run_until(100000);
  fx.world.crash(fx.cluster.replica_nodes[0]);
  fx.world.run_until(8000000);  // recovery 1 completes; the client finishes
  ASSERT_TRUE(fx.client->done());
  ASSERT_EQ(fx.client->committed(), 300u);
  fx.world.crash(fx.cluster.replica_nodes[1]);  // the config-1 primary
  fx.world.run_until(1200000000);

  ConfigSeq latest = 0;
  for (std::size_t i = 2; i < fx.cluster.replicas.size(); ++i) {
    latest = std::max(latest, fx.cluster.replicas[i]->config_seq());
  }
  EXPECT_GE(latest, 2u) << "the recovery procedure must run again";
  EXPECT_EQ(workload::bank::total_balance(fx.cluster.replicas[2]->engine()),
            fx.expected_total());
  EXPECT_EQ(fx.cluster.replicas[2]->state_digest(), fx.cluster.replicas[3]->state_digest());
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
}

TEST(RecoveryEdge, SecondCrashDuringRecoveryStillRestoresAvailability) {
  // "If failures occur during recovery, the procedure is restarted." Here
  // the second crash lands *inside* the first recovery, killing both
  // replicas that held the committed data — beyond the f=1 budget, so
  // durability of already-answered transactions is not guaranteed. What the
  // protocol does promise is that the procedure restarts, the spares take
  // over, and the service becomes available again (clients complete).
  Fixture fx(3);
  fx.client->start();
  fx.world.run_until(100000);
  fx.world.crash(fx.cluster.replica_nodes[0]);
  fx.world.run_until(1800000);  // suspicion fired, recovery under way
  fx.world.crash(fx.cluster.replica_nodes[1]);
  fx.world.run_until(1200000000);

  ASSERT_TRUE(fx.client->done()) << "committed " << fx.client->committed();
  EXPECT_EQ(fx.client->committed(), 300u);
  ConfigSeq latest = 0;
  for (std::size_t i = 2; i < fx.cluster.replicas.size(); ++i) {
    latest = std::max(latest, fx.cluster.replicas[i]->config_seq());
  }
  EXPECT_GE(latest, 2u);
  // The new configuration's members agree with each other (state-agreement
  // holds per configuration even when durability across >f failures can't).
  EXPECT_EQ(fx.cluster.replicas[2]->state_digest(), fx.cluster.replicas[3]->state_digest());
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
}

TEST(RecoveryEdge, CatchupUsedWhenCacheCovers) {
  // A freshly-started spare has sequence 0; with a cache larger than the
  // executed history, the new primary must use catch-up, not a snapshot.
  Fixture fx(5);
  struct Counter final : sim::WorldObserver {
    int catchups = 0;
    int snapshots = 0;
    void on_send(net::Time, NodeId, NodeId, const sim::Message& m) override {
      if (m.header == kReplCatchupHeader) ++catchups;
      if (m.header == kSnapBegin2Header) ++snapshots;
    }
  } counter;
  fx.world.add_observer(&counter);
  fx.client->start();
  fx.world.run_until(100000);
  fx.world.crash(fx.cluster.replica_nodes[0]);
  fx.world.run_until(600000000);
  ASSERT_TRUE(fx.client->done());
  EXPECT_GT(counter.catchups, 0);
  EXPECT_EQ(counter.snapshots, 0) << "cache covered the gap; no snapshot needed";
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
}

PbrCluster small_cache_pbr(sim::World& world, ClusterOptions opts) {
  opts.pbr.suspect_timeout = 1500000;
  opts.pbr.hb_period = 300000;
  opts.pbr.txn_cache_max = 16;  // far less than the executed history
  return make_pbr_cluster(world, opts);
}

ChainCluster small_cache_chain(sim::World& world, ClusterOptions opts) {
  ChainConfig chain;
  chain.suspect_timeout = 1500000;
  chain.hb_period = 300000;
  chain.txn_cache_max = 16;
  return make_chain_cluster(world, opts, chain);
}

/// Which frame of the first snapshot stream sent to the promoted spare is
/// lost on the way.
enum class Damage { kNone, kBegin, kDone };

/// Counts the snapshot streams sent to `to` and the frames of the first one.
/// kBegin loses the first stream's begin: the sender's link is faulted when
/// that begin is sent and healed when the fault drops it (faults strike at
/// delivery), so the stream's batches and done arrive with no stream open.
/// kDone loses the first stream's done and nothing else: the link is cut
/// right after the frame before it is sent (cuts strike at send) and healed
/// once the sender's job has released the stream. That frame's index comes
/// from an undamaged run of the same seed.
struct StreamWatch final : sim::WorldObserver {
  sim::World& world;
  NodeId to;
  Damage damage;
  int done_index;  // kDone: position of the first stream's done (from 1)
  int streams = 0;
  int first_stream_frames = 0;
  StreamWatch(sim::World& w, NodeId t, Damage d, int done_at)
      : world(w), to(t), damage(d), done_index(done_at) {}
  void on_send(net::Time, NodeId from, NodeId dest, const sim::Message& m) override {
    if (dest != to) return;
    if (m.header == kSnapBegin2Header) {
      if (++streams == 1 && damage == Damage::kBegin) {
        world.set_link_fault(from, to, {.corrupt_prob = 1.0});
      }
    }
    const bool stream_frame = m.header == kSnapBegin2Header || m.header == kSnapBatch2Header ||
                              m.header == kSnapDelete2Header || m.header == kSnapDone2Header;
    if (streams != 1 || !stream_frame || done_index < 0) return;
    ++first_stream_frames;
    if (m.header == kSnapDone2Header) done_index = -1;  // the first stream is over
    if (damage == Damage::kDone && first_stream_frames + 1 == done_index) {
      world.set_partitioned(from, to, true);
      world.schedule(0, [this, from] { world.set_partitioned(from, to, false); });
    }
  }
  void on_wire_drop(net::Time, NodeId from, NodeId dest, const std::string& header, std::size_t,
                    wire::FrameStatus) override {
    if (dest == to && header == kSnapBegin2Header) world.clear_link_fault(from, to);
  }
};

struct SpareRecovery {
  int streams = 0;              // snapshot streams sent to the spare
  int first_stream_frames = 0;  // frames of the first, begin through done
};

/// Three machines and a 16-transaction cache: after replica 0 crashes, the
/// promoted spare (replica 2) can only be brought up by a snapshot stream.
template <typename MakeCluster>
SpareRecovery recover_spare_by_snapshot(MakeCluster make_cluster, Damage damage,
                                        int done_index = 0) {
  sim::World world(7);
  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);
  const workload::bank::BankConfig bank{600, 0};
  obs::Tracer tracer({.record_messages = false});
  ClusterOptions opts;
  opts.tracer = &tracer;
  opts.registry = registry;
  opts.machines = 3;
  opts.loader = [&bank](db::Engine& e) { workload::bank::load(e, bank); };
  auto cluster = make_cluster(world, opts);

  StreamWatch watch(world, cluster.replica_nodes[2], damage, done_index);
  world.add_observer(&watch);

  const NodeId node = world.add_node("client");
  DbClient::Options copts;
  copts.mode = DbClient::Mode::kDirect;
  copts.targets = cluster.request_targets();
  copts.txn_limit = 200;
  copts.retry_timeout = 700000;
  auto rng = std::make_shared<Rng>(11);
  DbClient client(world, node, ClientId{1}, copts, [rng, bank]() {
    return std::make_pair(std::string(workload::bank::kDepositProc),
                          workload::bank::make_deposit(*rng, bank));
  });
  client.start();
  world.run_until(200000);  // well more than 16 transactions executed
  world.crash(cluster.replica_nodes[0]);
  world.run_until(600000000);
  EXPECT_TRUE(client.done()) << "committed " << client.committed();
  EXPECT_EQ(cluster.replicas[1]->state_digest(), cluster.replicas[2]->state_digest());
  EXPECT_TRUE(shadow::testing::consensus_checked(tracer));
  return {watch.streams, watch.first_stream_frames};
}

TEST(RecoveryEdge, SnapshotUsedWhenCacheTooSmall) {
  EXPECT_GT(recover_spare_by_snapshot(small_cache_pbr, Damage::kNone).streams, 0)
      << "spare at seq 0 needed a full snapshot";
}

// A backup never installs a stream with a lost frame. It presents its
// position to the stream's sender again, which sends a fresh stream; without
// that the backup would stay recovering and the new configuration would
// never accept a transaction.
TEST(RecoveryEdge, DamagedPbrSnapshotStreamIsFetchedAgain) {
  EXPECT_EQ(recover_spare_by_snapshot(small_cache_pbr, Damage::kBegin).streams, 2);
}

TEST(RecoveryEdge, DamagedChainSnapshotStreamIsFetchedAgain) {
  EXPECT_EQ(recover_spare_by_snapshot(small_cache_chain, Damage::kBegin).streams, 2);
}

// A stream that loses its done frame shows no gap: it just never ends. The
// backup notices the silence after a suspicion interval without a stream
// frame and presents its position again.
template <typename MakeCluster>
void expect_lost_done_is_fetched_again(MakeCluster make_cluster) {
  const SpareRecovery clean = recover_spare_by_snapshot(make_cluster, Damage::kNone);
  ASSERT_EQ(clean.streams, 1);
  ASSERT_GE(clean.first_stream_frames, 3) << "begin, at least one batch, done";
  const SpareRecovery lost =
      recover_spare_by_snapshot(make_cluster, Damage::kDone, clean.first_stream_frames);
  EXPECT_EQ(lost.first_stream_frames, clean.first_stream_frames - 1) << "only the done is lost";
  EXPECT_EQ(lost.streams, 2);
}

TEST(RecoveryEdge, LostPbrDoneIsFetchedAgain) {
  expect_lost_done_is_fetched_again(small_cache_pbr);
}

TEST(RecoveryEdge, LostChainDoneIsFetchedAgain) {
  expect_lost_done_is_fetched_again(small_cache_chain);
}

/// Watches one replica's snapshot install: the streams it begins, their
/// batch frames, and the repl-fwd messages sent to it after it began a stream
/// and before it handled that stream's done.
struct InstallWatch final : sim::WorldObserver {
  NodeId to;
  bool installing = false;
  int streams = 0;
  int batches = 0;
  int forwards_mid_install = 0;
  explicit InstallWatch(NodeId t) : to(t) {}
  void on_deliver(net::Time, NodeId node, const sim::Message& m) override {
    if (node != to) return;
    if (m.header == kSnapBegin2Header) {
      installing = true;
      ++streams;
    } else if (m.header == kSnapBatch2Header) {
      ++batches;
    } else if (m.header == kSnapDone2Header) {
      installing = false;
    }
  }
  void on_send(net::Time, NodeId, NodeId dest, const sim::Message& m) override {
    if (dest == to && m.header == kReplFwdHeader && installing) ++forwards_mid_install;
  }
};

// The overlap optimization (step 7): with three members, the new primary
// resumes as soon as one backup is up to date, while the promoted spare is
// still installing a multi-frame snapshot. Forwards sent to the spare in the
// meantime queue behind its stream and apply after it; nothing answered is
// lost and every replica ends in the same state.
TEST(RecoveryEdge, OverlapResumesWhileSnapshotInstalls) {
  sim::World world(21);
  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);
  const workload::bank::BankConfig bank{10000, 0};
  obs::Tracer tracer({.record_messages = false});
  ClusterOptions opts;
  opts.tracer = &tracer;
  opts.registry = registry;
  opts.machines = 4;
  opts.db_replicas = 3;
  opts.db_spares = 1;
  opts.loader = [&bank](db::Engine& e) { workload::bank::load(e, bank); };
  opts.pbr.suspect_timeout = 1500000;
  opts.pbr.hb_period = 300000;
  opts.pbr.txn_cache_max = 16;  // the spare can only be brought up by a snapshot
  opts.pbr.snapshot_batch_bytes = 4096;
  ASSERT_TRUE(opts.pbr.overlap_state_transfer);
  PbrCluster cluster = make_pbr_cluster(world, opts);
  InstallWatch watch(cluster.replica_nodes[3]);
  world.add_observer(&watch);

  std::int64_t generated_total = 0;
  std::vector<std::unique_ptr<DbClient>> clients;
  for (std::uint32_t c = 1; c <= 3; ++c) {
    DbClient::Options copts;
    copts.mode = DbClient::Mode::kDirect;
    copts.targets = cluster.request_targets();
    copts.txn_limit = 400;
    copts.retry_timeout = 700000;
    auto rng = std::make_shared<Rng>(c * 31);
    clients.push_back(std::make_unique<DbClient>(
        world, world.add_node("client" + std::to_string(c)), ClientId{c}, copts,
        [rng, bank, &generated_total]() {
          auto params = workload::bank::make_deposit(*rng, bank);
          generated_total += params[1].as_int();
          return std::make_pair(std::string(workload::bank::kDepositProc), std::move(params));
        }));
    clients.back()->start();
  }
  world.run_until(300000);
  world.crash(cluster.replica_nodes[0]);
  world.run_until(600000000);

  EXPECT_EQ(watch.streams, 1);
  EXPECT_GE(watch.batches, 2) << "a multi-frame snapshot";
  EXPECT_GT(watch.forwards_mid_install, 0) << "the primary resumed before the spare installed";
  for (const auto& client : clients) {
    ASSERT_TRUE(client->done()) << "committed " << client->committed();
    EXPECT_EQ(client->committed(), 400u);
  }
  for (std::size_t i = 1; i < cluster.replicas.size(); ++i) {
    EXPECT_EQ(cluster.replicas[i]->state_digest(), cluster.replicas[1]->state_digest());
    EXPECT_EQ(workload::bank::total_balance(cluster.replicas[i]->engine()),
              1000 * bank.accounts + generated_total);
  }
  EXPECT_TRUE(shadow::testing::consensus_checked(tracer));
}

TEST(RecoveryEdge, DeposedPrimaryStopsAnsweringAfterFalseSuspicion) {
  // Partition the primary away from the backup long enough to be suspected,
  // then heal: the old primary must not serve clients against the stale
  // configuration (it learns of the new configuration via the TOB delivery
  // when the partition heals and steps down).
  Fixture fx(13, /*replicas=*/2, /*spares=*/2);
  fx.client->start();
  fx.world.run_until(100000);
  fx.world.set_partitioned(fx.cluster.replica_nodes[0], fx.cluster.replica_nodes[1], true);
  fx.world.run_until(4000000);  // both sides suspect each other; TOB decides one winner
  fx.world.set_partitioned(fx.cluster.replica_nodes[0], fx.cluster.replica_nodes[1], false);
  fx.world.run_until(1200000000);
  ASSERT_TRUE(fx.client->done()) << "committed " << fx.client->committed();

  // Whatever configuration won, at most one replica believes it is primary.
  int primaries = 0;
  for (const auto& replica : fx.cluster.replicas) {
    if (!fx.world.crashed(replica->node()) && replica->is_primary()) ++primaries;
  }
  EXPECT_EQ(primaries, 1);
  // Conservation still holds on the winning configuration's primary.
  for (const auto& replica : fx.cluster.replicas) {
    if (replica->is_primary()) {
      EXPECT_EQ(workload::bank::total_balance(replica->engine()), fx.expected_total());
    }
  }
  EXPECT_TRUE(shadow::testing::consensus_checked(fx.tracer));
}

}  // namespace
}  // namespace shadow::core
