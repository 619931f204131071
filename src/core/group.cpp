#include "core/group.hpp"

#include <algorithm>

#include "core/codecs.hpp"
#include "obs/trace.hpp"

namespace shadow::core {

db::EngineTraits engine_for_replica(const ClusterOptions& options, std::size_t index) {
  if (!options.engines.empty()) return options.engines[index % options.engines.size()];
  // The paper's diversity deployment: H2 primary, HSQLDB backup, Derby spare.
  switch (index % 3) {
    case 0: return db::make_h2_traits();
    case 1: return db::make_hsqldb_traits();
    default: return db::make_derby_traits();
  }
}

namespace detail {

tob::TobConfig make_group_tob_config(net::Transport& world, const ClusterOptions& options,
                                     const GroupOptions& group,
                                     std::vector<net::HostId>& machines,
                                     std::vector<NodeId>& tob_nodes) {
  tob::TobConfig config;
  config.protocol = options.protocol;
  config.profile.tier = options.tob_tier;
  config.adaptive_batching = options.tob_adaptive_batching;
  config.tracer = options.tracer;
  config.paxos.tracer = options.tracer;
  config.two_third.tracer = options.tracer;
  config.metric_scope = group.metric_scope;
  // TwoThird needs n > 3f; Paxos needs a majority: both satisfied by the
  // requested machine count (callers pick 3 for Paxos, 4 for TwoThird).
  for (std::size_t i = 0; i < options.machines; ++i) {
    if (machines.size() <= i) machines.push_back(world.add_host());
    tob_nodes.push_back(
        world.add_node(group.name_prefix + "tob" + std::to_string(i), machines[i]));
  }
  config.nodes = tob_nodes;
  return config;
}

std::shared_ptr<db::Engine> make_loaded_engine(const ClusterOptions& options,
                                               std::size_t index) {
  auto engine = std::make_shared<db::Engine>(engine_for_replica(options, index));
  if (options.loader) options.loader(*engine);
  return engine;
}

std::shared_ptr<consensus::SafetyRecorder> make_group_safety(const net::Transport& world,
                                                             const std::vector<NodeId>& tob_nodes) {
  const bool all_local = std::all_of(tob_nodes.begin(), tob_nodes.end(),
                                     [&world](NodeId n) { return world.is_local(n); });
  return all_local ? std::make_shared<consensus::SafetyRecorder>() : nullptr;
}

}  // namespace detail

ReplicationGroup make_replication_group(net::Transport& world, const ClusterOptions& options,
                                        const GroupOptions& group) {
  SHADOW_REQUIRE(options.registry != nullptr);
  // A TCP cluster process must decode message types it never builds.
  register_wire_codecs();
  SHADOW_REQUIRE(options.db_replicas + options.db_spares <= options.machines);
  ReplicationGroup rg;
  rg.id = group.id;
  rg.machines = group.machines;
  const tob::TobConfig tob_config =
      detail::make_group_tob_config(world, options, group, rg.machines, rg.tob_nodes);
  rg.safety = detail::make_group_safety(world, rg.tob_nodes);
  rg.tob = tob::make_service(world, tob_config, rg.safety.get());

  const std::size_t total = options.db_replicas + options.db_spares;
  std::vector<NodeId> actives;
  std::vector<NodeId> spares;
  for (std::size_t i = 0; i < total; ++i) {
    rg.replica_nodes.push_back(
        world.add_node(group.name_prefix + "db" + std::to_string(i), rg.machines[i]));
    (i < options.db_replicas ? actives : spares).push_back(rg.replica_nodes.back());
  }
  SmrConfig smr_config = options.smr;
  if (smr_config.tracer == nullptr) smr_config.tracer = options.tracer;
  if (group.router != nullptr) {
    smr_config.router = group.router;
    smr_config.group = group.id;
    smr_config.metric_scope = group.metric_scope;
  }
  for (std::size_t i = 0; i < total; ++i) {
    auto replica = std::make_unique<SmrReplica>(
        world, rg.replica_nodes[i], *rg.tob.nodes[i], detail::make_loaded_engine(options, i),
        options.registry, actives, spares, rg.tob_nodes, smr_config, options.server_costs);
    if (i >= options.db_replicas) replica->make_spare();
    rg.replicas.push_back(std::move(replica));
  }
  if (smr_config.pipelined_execution) {
    // Adaptive batching senses downstream congestion through the co-located
    // replica's executor pipeline: a deep queue means the DB stage is the
    // bottleneck and bigger batches amortize consensus better.
    for (std::size_t i = 0; i < total; ++i) {
      if (!world.is_local(rg.replica_nodes[i])) continue;
      SmrReplica* replica = rg.replicas[i].get();
      rg.tob.nodes[i]->set_backlog_probe([replica] { return replica->pipeline_depth(); });
    }
  }
  if (group.router != nullptr && smr_config.tracer != nullptr) {
    // Sharded deployments stamp every node with its group (and restart
    // epoch) so the offline checker can split merged traces per group;
    // classic clusters emit nothing and every node defaults to group 0.
    for (NodeId n : rg.tob_nodes) {
      smr_config.tracer->group_info(world.now(), n, group.id, group.epoch);
    }
    for (NodeId n : rg.replica_nodes) {
      smr_config.tracer->group_info(world.now(), n, group.id, group.epoch);
    }
  }
  return rg;
}

ShardedSmrCluster make_sharded_smr_cluster(net::Transport& world, const ClusterOptions& options,
                                           std::size_t shards, std::uint64_t epoch) {
  SHADOW_REQUIRE(shards >= 1);
  ShardedSmrCluster cluster;
  cluster.router = std::make_unique<ShardRouter>(shards);
  cluster.router->install_default_extractors();
  cluster.router->set_tracer(options.tracer);
  // One shared machine set: machine i hosts tob<i> + db<i> of EVERY group,
  // mirroring the paper's service/database co-location per group.
  for (std::size_t i = 0; i < options.machines; ++i) {
    cluster.machines.push_back(world.add_host());
  }
  for (std::size_t g = 0; g < shards; ++g) {
    GroupOptions go;
    go.id = static_cast<GroupId>(g);
    if (shards > 1) {
      go.name_prefix = "g" + std::to_string(g) + ".";
      go.metric_scope = "group." + std::to_string(g) + ".";
    }
    go.machines = cluster.machines;
    go.router = cluster.router.get();
    go.epoch = epoch;
    cluster.groups.push_back(make_replication_group(world, options, go));
  }
  for (std::size_t g = 0; g < shards; ++g) {
    cluster.router->set_group_targets(static_cast<GroupId>(g), cluster.groups[g].tob_nodes,
                                      cluster.groups[g].replica_nodes);
  }
  return cluster;
}

}  // namespace shadow::core
