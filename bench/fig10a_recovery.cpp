// Fig. 10(a) — "An execution with a crash of the primary".
//
// ShadowDB-PBR under the micro-benchmark with 10 clients; diverse replicas
// (H2-like primary, HSQLDB-like backup, Derby-like spare). The primary is
// crashed after 15 s; detection takes the configured 10 s; the new group
// configuration is then agreed through the (interpreted) broadcast service
// — the paper measures ~69 ms for that delivery — followed by the state
// transfer to the spare (3.8 s for 50,000 rows of 16 B), after which the
// clients resume.
//
// The bench prints the instantaneous committed-transactions/s timeline in
// 1-second buckets plus the measured phase marks (1: crash detection,
// 2: reconfiguration + state transfer, 3: clients resume).
#include <cstdio>
#include <memory>

#include "sim/world.hpp"
#include "common/bench_util.hpp"
#include "core/shadowdb.hpp"
#include "loe/recorder.hpp"
#include "workload/bank.hpp"

namespace shadow::bench {
namespace {

constexpr net::Time kCrashAt = 15000000;       // 15 s
constexpr net::Time kDetection = 10000000;     // 10 s ("detection time is configurable")
constexpr net::Time kRunFor = 60000000;        // 60 s timeline, as in the figure

}  // namespace
}  // namespace shadow::bench

int main() {
  using namespace shadow;
  using namespace shadow::bench;
  print_header("Fig. 10(a) — ShadowDB-PBR timeline across a primary crash",
               "paper: crash @15 s, detection 10 s, reconfiguration delivered ~69 ms after "
               "broadcast, state transfer 3.8 s (50k x 16 B rows), clients resume ~40 s");

  sim::World world(97);
  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);
  const workload::bank::BankConfig bank{50000, 0};

  core::ClusterOptions opts;
  opts.registry = registry;
  opts.loader = [&bank](db::Engine& e) { workload::bank::load(e, bank); };
  // Diversity deployment of the experiment: H2 primary, HSQLDB backup,
  // Derby spare (the paper's exact configuration for this figure).
  opts.engines = {db::make_h2_traits(), db::make_hsqldb_traits(), db::make_derby_traits()};
  opts.tob_tier = gpm::ExecutionTier::kInterpretedOpt;
  opts.pbr.suspect_timeout = kDetection;
  core::PbrCluster cluster = core::make_pbr_cluster(world, opts);

  ThroughputTimeline timeline(1000000);  // 1-second buckets
  std::vector<std::unique_ptr<core::DbClient>> clients;
  for (std::size_t i = 0; i < 10; ++i) {
    const NodeId node = world.add_node("client" + std::to_string(i));
    core::DbClient::Options copts;
    copts.mode = core::DbClient::Mode::kDirect;
    copts.targets = cluster.request_targets();
    copts.txn_limit = 1000000;  // open-ended; the timeline horizon stops us
    copts.retry_timeout = 1500000;
    auto rng = std::make_shared<Rng>(100 + i);
    clients.push_back(std::make_unique<core::DbClient>(
        world, node, ClientId{static_cast<std::uint32_t>(i + 1)}, copts,
        [rng, bank]() {
          return std::make_pair(std::string(workload::bank::kDepositProc),
                                workload::bank::make_deposit(*rng, bank));
        }));
    clients.back()->set_commit_hook([&timeline](net::Time t) { timeline.add(t); });
    clients.back()->start();
  }

  // Observe the reconfiguration delivery (the tob-ack for the proposal).
  struct ReconfigObserver final : sim::WorldObserver {
    net::Time proposal_broadcast = 0;
    net::Time proposal_delivered = 0;
    net::Time snapshot_done = 0;
    void on_send(net::Time t, NodeId, NodeId, const sim::Message& m) override {
      if (m.header == tob::kBroadcastHeader && proposal_broadcast == 0) proposal_broadcast = t;
      if (m.header == core::kReplRecoveredHeader) snapshot_done = t;
    }
    void on_deliver(net::Time t, NodeId, const sim::Message& m) override {
      if (m.header == core::kReplDeliverHeader && proposal_delivered == 0) {
        proposal_delivered = t;
      }
    }
  } observer;
  world.add_observer(&observer);

  world.run_until(kCrashAt);
  std::printf("\ncrashing primary %s at t=15 s\n",
              world.node_name(cluster.initial_primary()).c_str());
  world.crash(cluster.initial_primary());
  world.run_until(kRunFor);

  std::printf("\n%6s %12s\n", "sec", "commits/s");
  for (std::size_t s = 0; s < 60; ++s) {
    const double rate = timeline.rate_per_sec(s);
    std::printf("%6zu %12.0f  %s\n", s, rate,
                std::string(static_cast<std::size_t>(rate / 150.0), '#').c_str());
  }

  std::printf("\nphase marks:\n");
  std::printf("  crash at                    15.00 s\n");
  std::printf("  suspicion + proposal at     %.2f s (detection configured: 10 s)\n",
              sim::to_sec(observer.proposal_broadcast));
  std::printf("  new configuration delivered %.2f s (+%.0f ms after broadcast; paper: ~69 ms)\n",
              sim::to_sec(observer.proposal_delivered),
              sim::to_ms(observer.proposal_delivered - observer.proposal_broadcast));
  std::printf("  state transfer finished     %.2f s (%.1f s; paper: 3.8 s)\n",
              sim::to_sec(observer.snapshot_done),
              sim::to_sec(observer.snapshot_done - observer.proposal_delivered));
  const bool resumed = timeline.rate_per_sec(55) > 100.0;
  std::printf("  clients resumed:            %s\n", resumed ? "yes" : "NO");
  return resumed ? 0 : 1;
}
