// Quickstart: a replicated bank on ShadowDB-SMR in ~80 lines.
//
// Builds the full deployment of the paper — three simulated machines, each
// running one node of the formally-modeled total order broadcast service
// (Paxos, f=1) co-located with a database replica — registers a stored
// procedure, and runs a client against it. Everything below is the public
// API a downstream user would touch.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "sim/world.hpp"
#include "core/shadowdb.hpp"
#include "obs/checker.hpp"
#include "workload/bank.hpp"

using namespace shadow;

int main() {
  // 1. A deterministic simulated world (seed fixes every run).
  sim::World world(/*seed=*/2014);

  // 2. Register the application's transactions as stored procedures.
  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);

  // 3. Assemble a ShadowDB-SMR cluster: 3 machines, 2 active database
  //    replicas + 1 spare, diverse engines (H2-, HSQLDB-, Derby-like), and
  //    the compiled ("Lisp") broadcast service ordering every transaction.
  const workload::bank::BankConfig bank{/*accounts=*/10000, /*owner_bytes=*/0};
  core::ClusterOptions options;
  options.registry = registry;
  options.loader = [&bank](db::Engine& engine) { workload::bank::load(engine, bank); };
  options.tob_tier = gpm::ExecutionTier::kCompiled;
  obs::Tracer tracer({.record_messages = false});  // for the offline checker
  options.tracer = &tracer;
  core::SmrCluster cluster = core::make_smr_cluster(world, options);

  // 4. A closed-loop client: broadcast each transaction through the service,
  //    take the first replica answer, retry on timeout (at-most-once is the
  //    cluster's problem, not ours).
  const NodeId client_node = world.add_node("client");
  core::DbClient::Options copts;
  copts.mode = core::DbClient::Mode::kTob;
  copts.targets = cluster.broadcast_targets();
  copts.txn_limit = 500;
  auto rng = std::make_shared<Rng>(7);
  core::DbClient client(world, client_node, ClientId{1}, copts, [rng, bank]() {
    return std::make_pair(std::string(workload::bank::kDepositProc),
                          workload::bank::make_deposit(*rng, bank));
  });

  // 5. Run.
  client.start();
  world.run_until(60'000'000);  // 60 virtual seconds is plenty

  std::printf("committed %llu deposits, %llu aborted, mean latency %.2f ms\n",
              static_cast<unsigned long long>(client.committed()),
              static_cast<unsigned long long>(client.aborted()),
              client.latencies().mean_ms());

  // 6. Both replicas executed the same sequence — despite running different
  //    database engines — and agree on the final state.
  std::printf("replica[0] (%s) digest: %016llx\n",
              cluster.replicas[0]->engine().traits().name.c_str(),
              static_cast<unsigned long long>(cluster.replicas[0]->state_digest()));
  std::printf("replica[1] (%s) digest: %016llx\n",
              cluster.replicas[1]->engine().traits().name.c_str(),
              static_cast<unsigned long long>(cluster.replicas[1]->state_digest()));
  const bool agree =
      cluster.replicas[0]->state_digest() == cluster.replicas[1]->state_digest();
  std::printf("state agreement: %s\n", agree ? "yes" : "NO (bug!)");

  // 7. The offline checker replays the run's trace: consensus safety and the
  //    paper's transaction properties held throughout.
  const obs::CheckResult check = obs::check_trace(tracer.snapshot());
  std::printf("consensus safety: %s (%zu decided slots checked)\n",
              check.ok() ? "ok" : "VIOLATED", check.slots_checked);
  return agree && check.ok() ? 0 : 1;
}
