// End-to-end ShadowDB over real TCP sockets, in-process.
//
// Four TcpTransport instances — three server hosts and one client host —
// run side by side in one test process, each executing the identical cluster
// assembly (so NodeIds agree across "processes") but only its own local
// nodes. Every protocol message crosses a real localhost socket as a
// checksummed wire frame; only the routing table is shared. The bank
// workload runs to completion under both ShadowDB modes (PBR and SMR), and
// the per-host traces — comparable because the transports share a clock
// epoch — are merged and replayed through the offline checker, which
// verifies total order, at-most-once, durability, and strict
// serializability across the whole cluster.
//
// Skips (rather than fails) when the environment forbids sockets.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/batch_copies.hpp"
#include "core/shadowdb.hpp"
#include "net/tcp_transport.hpp"
#include "obs/checker.hpp"
#include "workload/bank.hpp"

namespace shadow::core {
namespace {

constexpr std::size_t kServerHosts = 3;
constexpr std::size_t kHostCount = kServerHosts + 1;  // + client host
constexpr std::size_t kClientHost = kServerHosts;
constexpr std::size_t kTxns = 25;

/// One "process" of the cluster: a TCP transport plus the objects its local
/// nodes are served by. All processes build the full assembly; remote nodes'
/// objects stay inert (their timers are suppressed by the transport).
struct Process {
  // Declared before the transport, so it outlives the transport's I/O
  // thread, which reports peer events to it until the transport shuts down.
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<net::TcpTransport> transport;
  PbrCluster pbr;
  SmrCluster smr;
  std::shared_ptr<workload::ProcedureRegistry> registry;
  NodeId client_node{};
  std::unique_ptr<DbClient> client;
};

enum class Mode { kPbr, kSmr, kSmrPipelined };

class TcpClusterE2eTest : public ::testing::TestWithParam<Mode> {
 protected:
  static bool pbr() { return GetParam() == Mode::kPbr; }
  static bool pipelined() { return GetParam() == Mode::kSmrPipelined; }

  /// Binds all transports (ephemeral ports), exchanges the discovered ports,
  /// and runs the identical assembly in each. Returns false if sockets are
  /// unavailable.
  bool bring_up() {
    const auto epoch = std::chrono::steady_clock::now();
    std::vector<net::TcpHostAddr> hosts(kHostCount);
    for (std::size_t h = 0; h < kHostCount; ++h) {
      net::TcpOptions options;
      options.local_host = static_cast<std::uint32_t>(h);
      options.hosts = hosts;
      options.seed = 42;
      options.epoch = epoch;
      auto transport = std::make_unique<net::TcpTransport>(options);
      if (!transport->start()) return false;
      processes_.push_back(Process{});
      processes_.back().transport = std::move(transport);
    }
    for (auto& p : processes_) {
      for (std::size_t h = 0; h < kHostCount; ++h) {
        p.transport->set_host_port(net::HostId{static_cast<std::uint32_t>(h)},
                                   processes_[h].transport->listen_port());
      }
    }
    for (auto& p : processes_) assemble(p);
    return true;
  }

  void assemble(Process& p) {
    net::TcpTransport& t = *p.transport;
    p.tracer = std::make_unique<obs::Tracer>(
        obs::TracerOptions{.capacity = 1 << 18, .record_messages = false});
    p.tracer->attach(t);
    t.add_observer(&copies_);

    p.registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*p.registry);

    ClusterOptions opts;
    opts.db_replicas = 3;  // >= 3 replicas, all active
    opts.db_spares = 0;
    opts.registry = p.registry;
    opts.tracer = p.tracer.get();
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank_); };
    // Pipelined mode: per-process I/O + consensus + DB-executor threads,
    // decided batches shared across SPSC rings, adaptive proposal sizing.
    opts.smr.pipelined_execution = pipelined();
    opts.tob_adaptive_batching = pipelined();

    if (pbr()) {
      p.pbr = make_pbr_cluster(t, opts);
    } else {
      p.smr = make_smr_cluster(t, opts);
    }

    // The client node exists in every process's node table; the closed loop
    // only runs where it is local (host kClientHost).
    p.client_node = t.add_node("client1");
    DbClient::Options options;
    options.mode = pbr() ? DbClient::Mode::kDirect : DbClient::Mode::kTob;
    options.targets = pbr() ? p.pbr.request_targets() : p.smr.broadcast_targets();
    options.txn_limit = kTxns;
    options.retry_timeout = 2000000;
    options.tracer = p.tracer.get();
    auto rng = std::make_shared<Rng>(7);
    auto cfg = bank_;
    p.client = std::make_unique<DbClient>(
        t, p.client_node, ClientId{1}, options, [rng, cfg]() {
          return std::make_pair(std::string(workload::bank::kDepositProc),
                                workload::bank::make_deposit(*rng, cfg));
        });

    // Topology frozen: hand the sockets to this "process"'s I/O thread. The
    // test thread remains the consensus thread of all four transports.
    if (pipelined()) {
      ASSERT_TRUE(t.start_pipeline());
    }
  }

  /// Round-robin event-loop pump across all "processes".
  void pump_for(std::chrono::milliseconds duration) {
    const auto until = std::chrono::steady_clock::now() + duration;
    while (std::chrono::steady_clock::now() < until) {
      for (auto& p : processes_) p.transport->poll_once(300);
    }
  }

  DbClient& client() { return *processes_[kClientHost].client; }

  /// Stats of the replica local to server host `h`, read from that host's
  /// own process (the only one where the object actually executed). A
  /// pipelined replica is quiesced first — its executor thread owns the
  /// engine until the pipeline drains.
  std::uint64_t replica_executed(std::size_t h) {
    Process& p = processes_[h];
    if (pbr()) return p.pbr.replicas[h]->executed();
    p.smr.replicas[h]->quiesce();
    return p.smr.replicas[h]->executed();
  }
  std::uint64_t replica_digest(std::size_t h) {
    Process& p = processes_[h];
    if (pbr()) return p.pbr.replicas[h]->state_digest();
    p.smr.replicas[h]->quiesce();
    return p.smr.replicas[h]->state_digest();
  }

  workload::bank::BankConfig bank_{1000, 0};
  // Observes every host's transport; the test drives all of them from this
  // one thread (frames are sent and delivered on the consensus thread).
  shadow::testing::BatchCopies copies_;
  std::vector<Process> processes_;
};

TEST_P(TcpClusterE2eTest, BankWorkloadCommitsAndPassesTheChecker) {
  const SpliceStats splice_base = splice_stats();
  if (!bring_up()) GTEST_SKIP() << "sockets unavailable in this environment";

  client().start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(90);
  while (!client().done() && std::chrono::steady_clock::now() < deadline) {
    for (auto& p : processes_) p.transport->poll_once(300);
  }
  ASSERT_TRUE(client().done()) << "cluster did not complete the workload in time";
  EXPECT_EQ(client().committed(), kTxns);

  // Let in-flight replication drain, then every active replica must have
  // executed every transaction and converged on the same state.
  pump_for(std::chrono::milliseconds(500));
  for (std::size_t h = 0; h < kServerHosts; ++h) {
    EXPECT_EQ(replica_executed(h), kTxns) << "replica on host " << h;
  }
  EXPECT_EQ(replica_digest(0), replica_digest(1));
  EXPECT_EQ(replica_digest(1), replica_digest(2));

  // Real bytes moved: the server hosts exchanged frames over the sockets.
  for (std::size_t h = 0; h < kHostCount; ++h) {
    EXPECT_GT(processes_[h].transport->messages_delivered(), 0u) << "host " << h;
    EXPECT_EQ(processes_[h].transport->wire_drops(), 0u) << "host " << h;
  }

  // Merge the per-process traces and replay them through the offline
  // checker: total order, at-most-once, durability, strict serializability,
  // and consensus safety over every process's acceptor and learner.
  std::vector<obs::Trace> traces;
  for (auto& p : processes_) traces.push_back(p.tracer->snapshot());
  const obs::Trace merged = obs::merge_traces(traces);
  const obs::CheckResult check = obs::check_trace(merged);
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(check.committed_txns_checked, kTxns);
  EXPECT_EQ(check.replicas_checked, kServerHosts);
  // PBR orders only reconfigurations through the TOB: a clean run decides
  // nothing. SMR orders every transaction.
  if (!pbr()) {
    EXPECT_GT(check.slots_checked, 0u) << check.summary();
  }

  // Encode-once acceptance over real sockets: each batch was encoded at most
  // once. In SMR mode every transaction rides a consensus batch (client
  // retries during TCP warm-up can add a re-wrap, hence the slack); in PBR
  // mode TOB only carries reconfigurations, so a clean run encodes nothing
  // (slack for heartbeat-suspicion reconfigs on a stalled CI machine).
  const SpliceStats& now = splice_stats();
  if (!pbr()) {
    EXPECT_GE(now.batch_encodes - splice_base.batch_encodes, 1u);
    EXPECT_LE(now.batch_encodes - splice_base.batch_encodes, kTxns * 2);
  } else {
    EXPECT_LE(now.batch_encodes - splice_base.batch_encodes, 5u);
  }
  // Batch bytes were copied into each frame that carried them, once, and
  // into proposals that folded relayed units; receiving copied none. A
  // relayed unit is not folded when a client retry already delivered one of
  // its commands (it is then ingested command by command), hence a range.
  const std::uint64_t copied = now.batch_bytes_copied - splice_base.batch_bytes_copied;
  EXPECT_GE(copied, copies_.framed);
  EXPECT_LE(copied, copies_.framed + copies_.folded);
  if (!pbr()) {
    EXPECT_GT(copied, 0u);
  }

  // Pipelined mode: the decided batches crossed two thread boundaries
  // (I/O → consensus as frames, consensus → executor as handoffs); the send
  // path coalesced queued records into gathering writes (records per writev
  // >= 1 by construction).
  if (pipelined()) {
    for (std::size_t h = 0; h < kHostCount; ++h) {
      EXPECT_TRUE(processes_[h].transport->pipelined()) << "host " << h;
      EXPECT_GE(processes_[h].transport->writev_records(),
                processes_[h].transport->writev_calls())
          << "host " << h;
    }
  }
}

/// Two replication groups (--shards 2) in every process, pipelined, with the
/// mixed workload routed through the ShardRouter: deposits go straight to
/// the owning group's TOB, adjacent-account transfers take the TOB-ordered
/// 2PC path across both groups over real sockets. Per-group replica digests
/// must agree host-to-host and the merged trace must pass the extended
/// checker (per-group total order + real time, cross-shard atomicity). This
/// is also the multi-group target of the TSan gate in scripts/check.sh.
TEST(TcpShardedClusterE2e, MixedWorkloadCommitsAndPassesTheChecker) {
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kShardTxns = 60;
  struct Proc {
    std::unique_ptr<obs::Tracer> tracer;  // outlives the transport's I/O thread
    std::unique_ptr<net::TcpTransport> transport;
    ShardedSmrCluster cluster;
    std::shared_ptr<workload::ProcedureRegistry> registry;
    std::unique_ptr<DbClient> client;
  };
  const auto epoch = std::chrono::steady_clock::now();
  std::vector<net::TcpHostAddr> hosts(kHostCount);
  std::vector<Proc> procs;
  for (std::size_t h = 0; h < kHostCount; ++h) {
    net::TcpOptions options;
    options.local_host = static_cast<std::uint32_t>(h);
    options.hosts = hosts;
    options.seed = 42;
    options.epoch = epoch;
    auto transport = std::make_unique<net::TcpTransport>(options);
    if (!transport->start()) GTEST_SKIP() << "sockets unavailable in this environment";
    procs.push_back(Proc{});
    procs.back().transport = std::move(transport);
  }
  for (auto& p : procs) {
    for (std::size_t h = 0; h < kHostCount; ++h) {
      p.transport->set_host_port(net::HostId{static_cast<std::uint32_t>(h)},
                                 procs[h].transport->listen_port());
    }
  }

  const workload::bank::BankConfig bank{1000, 0};
  for (auto& p : procs) {
    net::TcpTransport& t = *p.transport;
    p.tracer = std::make_unique<obs::Tracer>(
        obs::TracerOptions{.capacity = 1 << 18, .record_messages = false});
    p.tracer->attach(t);
    p.registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*p.registry);

    ClusterOptions opts;
    opts.db_replicas = 3;
    opts.db_spares = 0;
    opts.registry = p.registry;
    opts.tracer = p.tracer.get();
    opts.loader = [bank](db::Engine& e) { workload::bank::load(e, bank); };
    opts.smr.pipelined_execution = true;
    opts.tob_adaptive_batching = true;
    p.cluster = make_sharded_smr_cluster(t, opts, kShards);

    const NodeId client_node = t.add_node("client1");
    DbClient::Options options;
    options.mode = DbClient::Mode::kTob;
    options.router = p.cluster.router.get();
    options.retry_conflict_aborts = true;
    options.txn_limit = kShardTxns;
    options.tracer = p.tracer.get();
    auto rng = std::make_shared<Rng>(7);
    p.client = std::make_unique<DbClient>(
        t, client_node, ClientId{1}, options, [rng, bank]() {
          if (rng->next() % 100 < 20) {
            const auto from = static_cast<std::int64_t>(
                rng->next() % static_cast<std::uint64_t>(bank.accounts));
            return std::make_pair(
                std::string(workload::bank::kTransferProc),
                workload::Params{db::Value(from), db::Value((from + 1) % bank.accounts),
                                 db::Value(std::int64_t{1})});
          }
          return std::make_pair(std::string(workload::bank::kDepositProc),
                                workload::bank::make_deposit(*rng, bank));
        });
    ASSERT_TRUE(t.start_pipeline());
  }

  DbClient& client = *procs[kClientHost].client;
  client.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(90);
  while (!client.done() && std::chrono::steady_clock::now() < deadline) {
    for (auto& p : procs) p.transport->poll_once(300);
  }
  ASSERT_TRUE(client.done()) << "sharded cluster did not complete the workload in time";
  EXPECT_EQ(client.committed(), kShardTxns);
  EXPECT_GT(procs[kClientHost].cluster.router->cross_shard_count(), 0u);

  // Drain in-flight replication, then each group's replicas must agree
  // host-to-host (each host executes its own replica of every group).
  const auto drain = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < drain) {
    for (auto& p : procs) p.transport->poll_once(300);
  }
  for (std::size_t g = 0; g < kShards; ++g) {
    std::uint64_t first = 0;
    for (std::size_t h = 0; h < kServerHosts; ++h) {
      procs[h].cluster.groups[g].replicas[h]->quiesce();
      const std::uint64_t digest = procs[h].cluster.groups[g].replicas[h]->state_digest();
      if (h == 0) {
        first = digest;
      } else {
        EXPECT_EQ(digest, first) << "group " << g << " host " << h;
      }
    }
  }

  std::vector<obs::Trace> traces;
  for (auto& p : procs) traces.push_back(p.tracer->snapshot());
  const obs::CheckResult check = obs::check_trace(obs::merge_traces(traces));
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(check.committed_txns_checked, kShardTxns);
  EXPECT_EQ(check.replicas_checked, kServerHosts * kShards);
  EXPECT_GT(check.slots_checked, 0u) << check.summary();
}

INSTANTIATE_TEST_SUITE_P(Modes, TcpClusterE2eTest,
                         ::testing::Values(Mode::kPbr, Mode::kSmr, Mode::kSmrPipelined),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           switch (info.param) {
                             case Mode::kPbr: return std::string("Pbr");
                             case Mode::kSmr: return std::string("Smr");
                             default: return std::string("SmrPipelined");
                           }
                         });

}  // namespace
}  // namespace shadow::core
