#include "core/shadowdb.hpp"

#include "core/codecs.hpp"

namespace shadow::core {

SmrCluster make_smr_cluster(net::Transport& world, const ClusterOptions& options) {
  // Exactly one replication group under the classic node names (empty
  // GroupOptions): the extraction is a strict refactor of the original
  // single-cluster assembly.
  return SmrCluster{make_replication_group(world, options)};
}

PbrCluster make_pbr_cluster(net::Transport& world, const ClusterOptions& options) {
  SHADOW_REQUIRE(options.registry != nullptr);
  // A TCP cluster process must decode message types it never builds.
  register_wire_codecs();
  SHADOW_REQUIRE(options.db_replicas + options.db_spares <= options.machines);
  PbrCluster cluster;
  const tob::TobConfig tob_config = detail::make_group_tob_config(
      world, options, GroupOptions{}, cluster.machines, cluster.tob_nodes);
  cluster.safety = detail::make_group_safety(world, cluster.tob_nodes);
  cluster.tob = tob::make_service(world, tob_config, cluster.safety.get());

  const std::size_t total = options.db_replicas + options.db_spares;
  std::vector<NodeId> group;
  std::vector<NodeId> spares;
  for (std::size_t i = 0; i < total; ++i) {
    cluster.replica_nodes.push_back(
        world.add_node("db" + std::to_string(i), cluster.machines[i]));
    (i < options.db_replicas ? group : spares).push_back(cluster.replica_nodes.back());
  }
  PbrConfig pbr_config = options.pbr;
  if (pbr_config.tracer == nullptr) pbr_config.tracer = options.tracer;
  for (std::size_t i = 0; i < total; ++i) {
    auto replica = std::make_unique<PbrReplica>(
        world, cluster.replica_nodes[i], *cluster.tob.nodes[i],
        detail::make_loaded_engine(options, i), options.registry, group, spares, pbr_config,
        options.server_costs);
    if (i >= options.db_replicas) replica->make_spare();
    cluster.replicas.push_back(std::move(replica));
  }
  return cluster;
}

ChainCluster make_chain_cluster(net::Transport& world, const ClusterOptions& options,
                                ChainConfig chain_config) {
  SHADOW_REQUIRE(options.registry != nullptr);
  register_wire_codecs();
  SHADOW_REQUIRE(options.db_replicas + options.db_spares <= options.machines);
  ChainCluster cluster;
  const tob::TobConfig tob_config = detail::make_group_tob_config(
      world, options, GroupOptions{}, cluster.machines, cluster.tob_nodes);
  cluster.safety = detail::make_group_safety(world, cluster.tob_nodes);
  cluster.tob = tob::make_service(world, tob_config, cluster.safety.get());

  const std::size_t total = options.db_replicas + options.db_spares;
  std::vector<NodeId> chain;
  std::vector<NodeId> spares;
  for (std::size_t i = 0; i < total; ++i) {
    cluster.replica_nodes.push_back(
        world.add_node("db" + std::to_string(i), cluster.machines[i]));
    (i < options.db_replicas ? chain : spares).push_back(cluster.replica_nodes.back());
  }
  if (chain_config.tracer == nullptr) chain_config.tracer = options.tracer;
  for (std::size_t i = 0; i < total; ++i) {
    auto replica = std::make_unique<ChainReplica>(
        world, cluster.replica_nodes[i], *cluster.tob.nodes[i],
        detail::make_loaded_engine(options, i), options.registry, chain, spares, chain_config,
        options.server_costs);
    if (i >= options.db_replicas) replica->make_spare();
    cluster.replicas.push_back(std::move(replica));
  }
  return cluster;
}

}  // namespace shadow::core
