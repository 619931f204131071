// The benchmark's workloads and the cluster assembly every benchmark process
// runs.
//
// A benchmark cluster is 3 pipelined ShadowDB-SMR server processes (hosts
// 0..2) plus 1 client process (host 3). Every process runs the identical
// assembly — the same public calls examples/cluster/cluster_node.cpp makes —
// so node identities agree cluster-wide; each process then executes only its
// local nodes. Workloads differ in the data set, the number of replication
// groups, the closed-loop client count and transaction mix, and the
// open-loop rate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/shadowdb.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace.hpp"
#include "workload/bank.hpp"
#include "workload/tpcc.hpp"

namespace shadow::perfbench {

inline constexpr std::uint32_t kServerHosts = 3;
inline constexpr std::uint32_t kClientHost = kServerHosts;
inline constexpr std::uint32_t kHostCount = kServerHosts + 1;
/// Open-loop logical client ids are kOpenClientBase + 1 .. + pool; the
/// set-up probe uses kOpenClientBase itself. Closed-loop DbClients are 1..N.
inline constexpr std::uint32_t kOpenClientBase = 1000;

struct Workload {
  std::string name;
  std::size_t shards = 1;
  std::size_t clients = 32;  // closed-loop DbClients
  bool tpcc = false;
  workload::bank::BankConfig bank{1000, 0};
  double open_rate = 12000;     // open-loop phase, txn/s
  std::size_t open_pool = 1024;  // open-loop logical client ids
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// The full-scale single-warehouse TPC-C configuration and its loader seed.
workload::tpcc::TpccConfig tpcc_config();

/// Transaction classes the benchmark reports separately.
enum class TxnKind : std::uint8_t { kUpdate, kRead };

struct Txn {
  std::string proc;
  workload::Params params;
  TxnKind kind = TxnKind::kUpdate;
  std::int64_t deposit = 0;  // bank.deposit amount (the balance-sum gate)
};

/// Per-logical-client transaction source; deterministic in its seed.
class TxnSource {
 public:
  TxnSource(const Workload& w, std::uint64_t seed);

  /// The workload's closed-loop mix.
  Txn next_closed();
  /// The open-loop mix: single-group update transactions only (the open-loop
  /// generator does not coordinate 2PC or snapshot reads).
  Txn next_open();
  /// A read-only transaction that changes no state, submitted by a closed-loop
  /// client once the measurement window has closed (DbClient always submits
  /// its next transaction; this one keeps balances and digests unchanged).
  Txn filler();

 private:
  Txn deposit();

  const Workload& w_;
  Rng rng_;
  std::unique_ptr<workload::tpcc::TxnGenerator> tpcc_;
};

/// One process's cluster: its transport and the identical node table.
struct Cluster {
  std::unique_ptr<net::TcpTransport> transport;
  core::SmrCluster single;
  core::ShardedSmrCluster sharded;
  std::vector<core::ReplicationGroup*> groups;
  const core::ShardRouter* router = nullptr;  // sharded workloads only
  std::vector<NodeId> client_nodes;           // closed-loop DbClients
  NodeId generator_node{};                    // open-loop generator
};

/// Creates and binds this host's transport (listening, nothing assembled).
/// Returns null if the port cannot be bound.
std::unique_ptr<net::TcpTransport> make_transport(std::uint32_t host,
                                                  const std::vector<std::uint16_t>& ports,
                                                  std::uint64_t seed);

/// Assembles the workload's groups over an already started transport. Only
/// this host's replicas load the data set: the others never execute here.
/// A restarted incarnation (`epoch` > 0, tagged in sharded group_info
/// events) loads nothing: its rejoin replaces the whole database.
void assemble(Cluster& cluster, const Workload& w, std::uint32_t host, obs::Tracer* tracer,
              std::uint64_t epoch);

/// Registry with the bank and TPC-C procedures.
std::shared_ptr<workload::ProcedureRegistry> make_registry();

/// The submission targets for a request (coordinator group's TOB nodes).
const std::vector<NodeId>& targets_for(const Cluster& cluster, const workload::TxnRequest& req);

}  // namespace shadow::perfbench
