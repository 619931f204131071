#include "workloads.hpp"

namespace shadow::perfbench {

namespace {

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> v;
    // Execution ~1 µs: the ordering path and the hops set the numbers.
    v.push_back(Workload{.name = "deposit", .shards = 1, .clients = 32, .open_rate = 12000});
    // Execution 0.25-5 ms on a database far larger than the CPU caches.
    v.push_back(Workload{.name = "tpcc",
                         .shards = 1,
                         .clients = 8,
                         .tpcc = true,
                         .open_rate = 600,
                         .open_pool = 64});
    // Router, TOB-ordered 2PC, lock manager and lock-free snapshot reads.
    v.push_back(Workload{.name = "sharded_mix", .shards = 2, .clients = 32, .open_rate = 12000});
    return v;
  }();
  return kWorkloads;
}

constexpr std::uint64_t kTpccLoadSeed = 3;

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

workload::tpcc::TpccConfig tpcc_config() { return workload::tpcc::TpccConfig{}; }

TxnSource::TxnSource(const Workload& w, std::uint64_t seed) : w_(w), rng_(seed) {
  // The generator's stream id (low 24 bits of its seed) keeps payment history
  // keys unique across clients, so each source gets distinct low bits.
  if (w_.tpcc) tpcc_ = std::make_unique<workload::tpcc::TxnGenerator>(tpcc_config(), seed);
}

Txn TxnSource::deposit() {
  workload::Params params = workload::bank::make_deposit(rng_, w_.bank);
  const std::int64_t amount = params[1].as_int();
  return Txn{workload::bank::kDepositProc, std::move(params), TxnKind::kUpdate, amount};
}

Txn TxnSource::next_closed() {
  if (tpcc_) {
    workload::tpcc::TxnGenerator::Txn t = tpcc_->next();
    const bool read = t.proc == workload::tpcc::kOrderStatusProc ||
                      t.proc == workload::tpcc::kStockLevelProc;
    return Txn{std::move(t.proc), std::move(t.params), read ? TxnKind::kRead : TxnKind::kUpdate};
  }
  if (w_.shards > 1) {
    // 50% single-shard deposits, 10% cross-shard transfers, 40% cross-shard
    // pair reads. Adjacent accounts always land in different mod-N shards.
    const std::uint64_t pick = rng_.next() % 100;
    if (pick < 50) return deposit();
    const auto from = static_cast<std::int64_t>(rng_.next() %
                                                static_cast<std::uint64_t>(w_.bank.accounts));
    const std::int64_t to = (from + 1) % w_.bank.accounts;
    if (pick < 60) {
      return Txn{workload::bank::kTransferProc,
                 workload::Params{db::Value(from), db::Value(to), db::Value(std::int64_t{1})},
                 TxnKind::kUpdate};
    }
    return Txn{workload::bank::kBalance2Proc, workload::Params{db::Value(from), db::Value(to)},
               TxnKind::kRead};
  }
  return deposit();
}

Txn TxnSource::next_open() {
  if (tpcc_) {
    workload::tpcc::TxnGenerator::Txn t = tpcc_->next();
    const bool read = t.proc == workload::tpcc::kOrderStatusProc ||
                      t.proc == workload::tpcc::kStockLevelProc;
    return Txn{std::move(t.proc), std::move(t.params), read ? TxnKind::kRead : TxnKind::kUpdate};
  }
  return deposit();
}

Txn TxnSource::filler() {
  if (tpcc_) {
    workload::tpcc::TxnGenerator::Txn t = tpcc_->next_order_status();
    return Txn{std::move(t.proc), std::move(t.params), TxnKind::kRead};
  }
  return Txn{workload::bank::kBalanceProc, workload::Params{db::Value(std::int64_t{0})},
             TxnKind::kRead};
}

std::unique_ptr<net::TcpTransport> make_transport(std::uint32_t host,
                                                  const std::vector<std::uint16_t>& ports,
                                                  std::uint64_t seed) {
  net::TcpOptions options;
  options.local_host = host;
  for (std::uint16_t port : ports) options.hosts.push_back(net::TcpHostAddr{"127.0.0.1", port});
  options.seed = seed;
  // CLOCK_MONOTONIC's origin, shared by every process on the machine: now()
  // values, trace timestamps and the driver's clock are all comparable.
  options.epoch = std::chrono::steady_clock::time_point{};
  auto transport = std::make_unique<net::TcpTransport>(options);
  if (!transport->start()) return nullptr;
  return transport;
}

std::shared_ptr<workload::ProcedureRegistry> make_registry() {
  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);
  workload::tpcc::register_procedures(*registry);
  return registry;
}

void assemble(Cluster& cluster, const Workload& w, std::uint32_t host, obs::Tracer* tracer,
              std::uint64_t epoch) {
  net::TcpTransport& transport = *cluster.transport;
  if (tracer != nullptr) tracer->attach(transport);

  core::ClusterOptions opts;
  opts.db_replicas = kServerHosts;  // every server host runs an active replica
  opts.db_spares = 0;
  opts.registry = make_registry();
  opts.tracer = tracer;
  // The assembly builds every replica's engine in every process, in replica
  // order per group; only the local one ever executes, so only it is loaded.
  opts.loader = [&w, host, epoch, calls = std::make_shared<std::size_t>(0)](db::Engine& engine) {
    const std::size_t replica = (*calls)++ % kServerHosts;
    if (replica != host || epoch > 0) return;
    if (w.tpcc) {
      workload::tpcc::load(engine, tpcc_config(), kTpccLoadSeed);
    } else {
      workload::bank::load(engine, w.bank);
    }
  };
  opts.smr.pipelined_execution = true;
  // No failure is injected except the benchmark's kill of host 2, which
  // restarts the process itself: suspicion must never reconfigure the group.
  opts.smr.suspect_timeout = 120ull * 1000 * 1000;
  opts.tob_adaptive_batching = true;

  if (w.shards > 1) {
    cluster.sharded = core::make_sharded_smr_cluster(transport, opts, w.shards, epoch);
    for (auto& group : cluster.sharded.groups) cluster.groups.push_back(&group);
    cluster.router = cluster.sharded.router.get();
  } else {
    cluster.single = core::make_smr_cluster(transport, opts);
    cluster.groups.push_back(&cluster.single);
  }
  const net::HostId client_host = transport.add_host();
  for (std::size_t c = 0; c < w.clients; ++c) {
    cluster.client_nodes.push_back(
        transport.add_node("client" + std::to_string(c + 1), client_host));
  }
  cluster.generator_node = transport.add_node("open-loop", client_host);
}

const std::vector<NodeId>& targets_for(const Cluster& cluster, const workload::TxnRequest& req) {
  if (cluster.router != nullptr) return cluster.router->route(req);
  return cluster.groups.front()->broadcast_targets();
}

}  // namespace shadow::perfbench
