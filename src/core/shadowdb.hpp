// ShadowDB cluster assembly.
//
// Wires up the full deployment of Sec. IV: three server machines, each
// hosting one broadcast-service node and one database replica process
// (co-located, sharing the machine's CPU); a configurable replica group
// (default two databases, f = 1, third machine's database as spare); and
// engine diversity (H2-like, HSQLDB-like, Derby-like by default — benchmarks
// that compare against H2 deploy H2 everywhere, as the paper does "to make
// the comparison fair").
#pragma once

#include <memory>

#include "core/chain.hpp"
#include "core/client.hpp"
#include "core/group.hpp"
#include "core/pbr.hpp"
#include "core/smr.hpp"

namespace shadow::core {

/// A deployed ShadowDB-SMR cluster: exactly one replication group (the
/// ClusterOptions/GroupOptions split lives in core/group.hpp, where sharded
/// deployments assemble N of these over a shared machine set).
struct SmrCluster : ReplicationGroup {};

SmrCluster make_smr_cluster(net::Transport& world, const ClusterOptions& options);

/// A deployed ShadowDB-PBR cluster.
struct PbrCluster {
  std::vector<net::HostId> machines;
  tob::TobService tob;
  std::vector<std::unique_ptr<PbrReplica>> replicas;  // group order, then spares
  std::vector<NodeId> tob_nodes;
  std::vector<NodeId> replica_nodes;
  std::shared_ptr<consensus::SafetyRecorder> safety;  // see detail::make_group_safety

  NodeId initial_primary() const { return replica_nodes.front(); }
  /// Submission targets for kDirect clients (primary first; clients rotate
  /// and follow redirects after failures).
  const std::vector<NodeId>& request_targets() const { return replica_nodes; }
};

PbrCluster make_pbr_cluster(net::Transport& world, const ClusterOptions& options);

/// A deployed chain-replication cluster (extension; see core/chain.hpp).
struct ChainCluster {
  std::vector<net::HostId> machines;
  tob::TobService tob;
  std::vector<std::unique_ptr<ChainReplica>> replicas;  // chain order, then spares
  std::vector<NodeId> tob_nodes;
  std::vector<NodeId> replica_nodes;
  std::shared_ptr<consensus::SafetyRecorder> safety;  // see detail::make_group_safety

  NodeId head() const { return replica_nodes.front(); }
  const std::vector<NodeId>& request_targets() const { return replica_nodes; }
};

ChainCluster make_chain_cluster(net::Transport& world, const ClusterOptions& options,
                                ChainConfig chain_config = {});

}  // namespace shadow::core
