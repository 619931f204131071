#include "chaos/campaign.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "core/migrate.hpp"
#include "core/shadowdb.hpp"
#include "sim/world.hpp"
#include "tob/tob.hpp"
#include "workload/bank.hpp"

namespace shadow::chaos {

namespace {

/// Crash injection is idempotent at this layer: two events of a plan may
/// name the same victim (budgets bound counts, not distinctness across
/// events), and the second must not re-fire crash observers.
bool crash_once(sim::World& world, NodeId node) {
  if (world.crashed(node)) return false;
  world.crash(node);
  return true;
}

}  // namespace

PlanOutcome run_plan(const Plan& plan, const CampaignConfig& config) {
  PlanOutcome outcome;
  outcome.plan = plan;
  if (config.kill_donor) {
    // The donor kill IS this plan's replica-crash fault. Stacking it on the
    // generator's own replica crashes can exceed the ≤2-crash budget the
    // fault model is designed for (three dead replicas leave no surviving
    // execution witness for early txns, which the durability checker rightly
    // rejects), so those events are dropped; TOB crashes, partitions, and
    // link faults stay.
    auto& evs = outcome.plan.events;
    evs.erase(std::remove_if(evs.begin(), evs.end(),
                             [](const FaultEvent& ev) {
                               return ev.kind == FaultKind::kCrashReplica ||
                                      ev.kind == FaultKind::kCrashPair;
                             }),
              evs.end());
  }

  // Decorrelate the world's network/jitter randomness from the plan-shape
  // randomness (both derive from the same seed).
  sim::World world(plan.seed ^ 0x9e3779b97f4a7c15ULL);
  world.set_wire_fidelity(config.wire_fidelity);

  obs::Tracer tracer({.capacity = 1 << 20, .record_messages = false});
  tracer.attach(world);

  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);
  const workload::bank::BankConfig bank{config.bank_accounts, 0};

  core::ClusterOptions opts;
  opts.machines = config.plan.machines;
  opts.db_replicas = config.plan.db_replicas;
  opts.db_spares = config.plan.db_spares;
  opts.registry = registry;
  opts.loader = [&bank](db::Engine& engine) { workload::bank::load(engine, bank); };
  opts.smr.hb_period = config.hb_period;
  opts.smr.suspect_timeout = config.suspect_timeout;
  opts.tracer = &tracer;
  // Classic path for shards == 1 (byte-identical to the pre-sharding
  // campaigns, so the pinned regression seeds replay the original schedules);
  // shards > 1 builds N groups over the same machines.
  core::SmrCluster cluster;
  core::ShardedSmrCluster sharded;
  std::vector<core::ReplicationGroup*> groups;
  if (config.shards > 1) {
    sharded = core::make_sharded_smr_cluster(world, opts, config.shards);
    for (auto& group : sharded.groups) groups.push_back(&group);
  } else {
    cluster = core::make_smr_cluster(world, opts);
    groups.push_back(&cluster);
  }

  // Closed-loop clients on their own machine, so client CPU never competes
  // with the servers under test.
  const net::HostId client_machine = world.add_machine();
  std::vector<std::unique_ptr<core::DbClient>> clients;
  for (std::size_t c = 0; c < config.clients; ++c) {
    const NodeId node = world.add_node("chaos-client-" + std::to_string(c), client_machine);
    core::DbClient::Options copts;
    copts.mode = core::DbClient::Mode::kTob;
    copts.targets = groups.front()->broadcast_targets();
    if (config.shards > 1) {
      copts.router = sharded.router.get();
      copts.retry_conflict_aborts = true;
    }
    copts.txn_limit = config.txns_per_client;
    copts.tracer = &tracer;
    auto rng = std::make_shared<Rng>(plan.seed + 0x9e37 * (c + 1));
    const std::size_t cross_pct = config.shards > 1 ? config.cross_shard_pct : 0;
    const std::size_t read_pct = config.shards > 1 ? config.read_pct : 0;
    clients.push_back(std::make_unique<core::DbClient>(
        world, node, ClientId{static_cast<std::uint32_t>(c + 1)}, copts,
        [rng, bank, cross_pct, read_pct]() -> std::pair<std::string, workload::Params> {
          // One draw decides the kind, so read_pct == 0 replays the exact
          // pre-snapshot-read draw sequence (pinned seeds stay byte-stable).
          const std::uint64_t pick = rng->next() % 100;
          if (pick < read_pct) {
            // Cross-shard pair read on the snapshot path; adjacent accounts
            // always differ in `mod shards` group.
            const auto from = static_cast<std::int64_t>(
                rng->next() % static_cast<std::uint64_t>(bank.accounts));
            const std::int64_t to = (from + 1) % bank.accounts;
            return {std::string(workload::bank::kBalance2Proc),
                    workload::Params{db::Value(from), db::Value(to)}};
          }
          if (cross_pct > 0 && pick < read_pct + cross_pct) {
            // Adjacent accounts always differ in `mod shards` group.
            const auto from = static_cast<std::int64_t>(
                rng->next() % static_cast<std::uint64_t>(bank.accounts));
            const std::int64_t to = (from + 1) % bank.accounts;
            return {std::string(workload::bank::kTransferProc),
                    workload::Params{db::Value(from), db::Value(to),
                                     db::Value(std::int64_t{1})}};
          }
          return {workload::bank::kDepositProc, workload::bank::make_deposit(*rng, bank)};
        }));
    clients.back()->start(/*initial_delay=*/c * 500);
  }

  // Mid-plan rebalance: an administrator node broadcasts the same
  // `::mig-split` into every group's log on a fixed cadence (TOB dedup
  // collapses the retries into one delivery per group), concurrently with
  // whatever faults the plan injects. Each rebroadcast enters through the
  // next TOB frontend, so a plan that crashed one still gets the split in.
  // The donor kill is deliberately timed into the pull window so the stream
  // must be re-sourced from a surviving donor replica.
  core::RangeSpec split;
  if (config.shards > 1 && config.rebalance_at > 0) {
    outcome.rebalance_required = true;
    split.mid = 1;
    split.table = workload::bank::kTable;
    split.lo = config.bank_accounts / 4;
    split.hi = config.bank_accounts / 2;
    split.from = 0;
    split.to = 1;
    split.donor = sharded.groups[0].replica_nodes[0];
    const NodeId admin = world.add_node("mig-admin", client_machine);
    for (int i = 0; i < 8; ++i) {
      world.schedule_timer_for_node(
          admin, config.rebalance_at + static_cast<net::Time>(i) * 500000,
          [&sharded, split, admin, i](net::NodeContext& ctx) {
            workload::TxnRequest req = core::make_split_request(split);
            req.reply_to = admin;
            for (core::GroupId g = 0; g < sharded.router->shard_count(); ++g) {
              tob::BroadcastBody body{
                  tob::Command{req.client, req.seq, workload::encode_request(req)}};
              const std::vector<NodeId>& targets = sharded.router->tob_targets(g);
              ctx.send(targets[static_cast<std::size_t>(i) % targets.size()],
                       net::make_msg(tob::kBroadcastHeader, std::move(body)));
            }
          });
    }
    if (config.kill_donor) {
      world.schedule(config.rebalance_at + 30000, [&world, &outcome, split] {
        if (crash_once(world, split.donor)) ++outcome.faults_injected;
      });
    }
  }

  // Inject the plan. Heals and second-stage crashes are scheduled from
  // inside the event callback, so their delays compose with `ev.at`.
  // A fault target names a MACHINE slice: with shards > 1 the event hits the
  // target's node in every group at once (one OS process runs all of them),
  // but still counts as one injected fault.
  for (const FaultEvent& ev : outcome.plan.events) {
    world.schedule(ev.at, [&world, &groups, &config, &outcome, ev] {
      switch (ev.kind) {
        case FaultKind::kCrashReplica: {
          bool any = false;
          for (core::ReplicationGroup* g : groups) {
            any |= crash_once(world, g->replica_nodes[ev.target]);
          }
          if (any) ++outcome.faults_injected;
          break;
        }
        case FaultKind::kCrashTobNode: {
          bool any = false;
          for (core::ReplicationGroup* g : groups) {
            any |= crash_once(world, g->tob_nodes[ev.target]);
          }
          if (any) ++outcome.faults_injected;
          break;
        }
        case FaultKind::kPartition: {
          for (core::ReplicationGroup* g : groups) {
            const NodeId a = g->tob_nodes[ev.target];
            const NodeId b = g->tob_nodes[ev.target2];
            world.set_partitioned(a, b, true);
            world.schedule(ev.duration,
                           [&world, a, b] { world.set_partitioned(a, b, false); });
          }
          ++outcome.faults_injected;
          break;
        }
        case FaultKind::kLinkFault: {
          for (core::ReplicationGroup* g : groups) {
            const NodeId a = g->tob_nodes[ev.target];
            const NodeId b = g->tob_nodes[ev.target2];
            world.set_link_fault(a, b, sim::LinkFault{ev.corrupt_prob, ev.truncate_prob});
            world.schedule(ev.duration, [&world, a, b] { world.clear_link_fault(a, b); });
          }
          ++outcome.faults_injected;
          break;
        }
        case FaultKind::kCrashPair: {
          bool any = false;
          for (core::ReplicationGroup* g : groups) {
            any |= crash_once(world, g->replica_nodes[ev.target]);
          }
          if (any) ++outcome.faults_injected;
          world.schedule(config.suspect_timeout + ev.duration,
                         [&world, &groups, ev, &outcome] {
                           bool second = false;
                           for (core::ReplicationGroup* g : groups) {
                             second |= crash_once(world, g->replica_nodes[ev.target2]);
                           }
                           if (second) ++outcome.faults_injected;
                         });
          break;
        }
      }
    });
  }

  // Step the world in coarse increments so the client-completion test runs
  // between slices; heartbeats and TOB ticks re-arm forever, so virtual
  // time always advances — but guard against a fully idle world anyway.
  const auto all_done = [&clients] {
    for (const auto& client : clients) {
      if (!client->done()) return false;
    }
    return true;
  };
  constexpr net::Time kStep = 100000;
  while (!all_done() && world.now() < config.horizon) {
    if (world.run_until(world.now() + kStep) == 0 && world.idle()) break;
  }
  outcome.completed = all_done();
  world.run_until(world.now() + 2000000);  // drain in-flight acks and ticks
  outcome.virtual_duration = world.now();

  for (const auto& client : clients) outcome.committed += client->committed();
  outcome.rebalanced = tracer.metrics().counter("mig.commits").value() > 0;

  obs::Trace trace = tracer.snapshot();
  if (config.saboteur) config.saboteur(plan, trace);
  outcome.check = obs::check_trace(trace, config.check);
  return outcome;
}

Plan minimize_plan(const Plan& failing, const CampaignConfig& config) {
  Plan current = failing;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < current.events.size(); ++i) {
      Plan candidate = current;
      candidate.events.erase(candidate.events.begin() + static_cast<std::ptrdiff_t>(i));
      if (!run_plan(candidate, config).ok()) {
        current = std::move(candidate);
        shrunk = true;
        break;  // restart the scan against the smaller plan
      }
    }
  }
  return current;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  Rng rng(config.seed);
  PlanConfig plan_config = config.plan;
  plan_config.suspect_timeout = config.suspect_timeout;

  CampaignResult result;
  for (std::size_t i = 0; i < config.plans; ++i) {
    const std::uint64_t plan_seed = rng.next();
    PlanOutcome outcome = run_plan(make_plan(plan_seed, plan_config), config);
    if (!outcome.ok()) {
      ++result.failures;
      if (config.minimize) outcome.minimized = minimize_plan(outcome.plan, config);
    }
    result.total_committed += outcome.committed;
    result.total_faults += outcome.faults_injected;
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

PlanOutcome replay(std::uint64_t plan_seed, const CampaignConfig& config) {
  PlanConfig plan_config = config.plan;
  plan_config.suspect_timeout = config.suspect_timeout;
  return run_plan(make_plan(plan_seed, plan_config), config);
}

}  // namespace shadow::chaos
