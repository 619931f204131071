// First-class replication group.
//
// A ReplicationGroup is one total-order-broadcast service plus its
// co-located SMR database replicas: its own Paxos log and leader, its own
// snapshot/rejoin stream, its own adaptive batching loop, and its own
// metric/trace namespace. The classic ShadowDB-SMR cluster of
// core/shadowdb.hpp is exactly one group assembled with default
// GroupOptions — same node names, same creation order, same wire bytes as
// before the extraction. A sharded deployment builds N groups over one
// shared machine set, partitions the keyspace across them with a
// ShardRouter (core/router.hpp), and runs cross-shard transactions through
// the replicas' TOB-ordered 2PC engines (core/twopc.hpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pbr.hpp"
#include "core/router.hpp"
#include "core/smr.hpp"

namespace shadow::core {

struct ClusterOptions {
  std::size_t machines = 3;        // broadcast service size (Paxos: f = 1)
  std::size_t db_replicas = 2;     // active database group size
  std::size_t db_spares = 1;       // passive replacements
  tob::Protocol protocol = tob::Protocol::kPaxos;
  gpm::ExecutionTier tob_tier = gpm::ExecutionTier::kCompiled;
  /// Load-adaptive proposal sizing (see TobConfig::adaptive_batching). When
  /// `smr.pipelined_execution` is also on, each TOB node's backlog probe is
  /// wired to its co-located replica's executor-pipeline queue depth.
  bool tob_adaptive_batching = false;

  /// Engine flavour per replica index (cycled). Empty → the paper's diverse
  /// default [H2, HSQLDB, Derby].
  std::vector<db::EngineTraits> engines;

  /// Populates each replica's database identically before the run.
  std::function<void(db::Engine&)> loader;

  std::shared_ptr<const workload::ProcedureRegistry> registry;
  ServerCosts server_costs{};
  PbrConfig pbr{};
  SmrConfig smr{};

  /// Optional structured trace recorder; propagated into the TOB service,
  /// its consensus module, and every replica (unless their sub-configs
  /// already carry one). Attach it to the World separately for network and
  /// crash events: `tracer.attach(world)`.
  obs::Tracer* tracer = nullptr;
};

db::EngineTraits engine_for_replica(const ClusterOptions& options, std::size_t index);

/// Per-group knobs layered on top of the shared ClusterOptions. The
/// defaults reproduce the classic single-group cluster exactly.
struct GroupOptions {
  GroupId id = 0;
  /// Node-name prefix ("g2." makes nodes "g2.tob0", "g2.db1", ...). Empty —
  /// the classic names — for single-group clusters.
  std::string name_prefix;
  /// Metric/trace namespace ("group.<id>." when sharded; empty — the
  /// classic names — otherwise).
  std::string metric_scope;
  /// Hosts to place this group's nodes on (tob<i> and db<i> share
  /// machines[i]). Empty → the group allocates its own machines; sharded
  /// clusters pass one shared set so every machine hosts one node of every
  /// group, mirroring the paper's co-location per group.
  std::vector<net::HostId> machines;
  /// Shared keyspace router. More than one shard arms each replica's 2PC
  /// engine and emits group_info trace events; null for classic clusters.
  const ShardRouter* router = nullptr;
  /// Restart epoch recorded in the group_info trace event, so merged traces
  /// from restarted processes stay unambiguous per group.
  std::uint64_t epoch = 0;
};

/// One assembled replication group (actives then spares, like the classic
/// cluster structs).
struct ReplicationGroup {
  GroupId id = 0;
  std::vector<net::HostId> machines;
  tob::TobService tob;
  std::vector<std::unique_ptr<SmrReplica>> replicas;
  std::vector<NodeId> tob_nodes;
  std::vector<NodeId> replica_nodes;
  std::shared_ptr<consensus::SafetyRecorder> safety;  // null unless every TOB node is local

  /// Submission targets for kTob clients.
  const std::vector<NodeId>& broadcast_targets() const { return tob_nodes; }
};

ReplicationGroup make_replication_group(net::Transport& world, const ClusterOptions& options,
                                        const GroupOptions& group = {});

/// N independent consensus groups sharing one machine set and one router.
struct ShardedSmrCluster {
  std::vector<net::HostId> machines;
  std::unique_ptr<ShardRouter> router;
  std::vector<ReplicationGroup> groups;
};

/// Builds `shards` groups over `options.machines` shared hosts. With
/// shards == 1 the node names and wire behavior match the classic cluster
/// (no prefix, no 2PC engine). `epoch` tags the group_info trace events.
ShardedSmrCluster make_sharded_smr_cluster(net::Transport& world, const ClusterOptions& options,
                                           std::size_t shards, std::uint64_t epoch = 0);

namespace detail {

/// Shared by the PBR/chain assemblies in shadowdb.cpp: builds the TOB
/// config and creates the service nodes (allocating machines when the group
/// does not share an existing set).
tob::TobConfig make_group_tob_config(net::Transport& world, const ClusterOptions& options,
                                     const GroupOptions& group,
                                     std::vector<net::HostId>& machines,
                                     std::vector<NodeId>& tob_nodes);

std::shared_ptr<db::Engine> make_loaded_engine(const ClusterOptions& options, std::size_t index);

/// The group's consensus safety recorder, or null. Agreement can only be
/// checked by a process that sees every acceptor, so the recorder exists
/// only when every TOB node of the group is local to the transport (the
/// simulator, single-process tests). A TCP process sees its own node only;
/// agreement there is checked offline from merged traces.
std::shared_ptr<consensus::SafetyRecorder> make_group_safety(const net::Transport& world,
                                                             const std::vector<NodeId>& tob_nodes);

}  // namespace detail

}  // namespace shadow::core
