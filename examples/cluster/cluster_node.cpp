// One OS process of a real localhost ShadowDB cluster.
//
// Every process — three server hosts plus one client host — runs this same
// binary with the same `--base-port`, differing only in `--host`. Each
// executes the identical cluster assembly against its own net::TcpTransport,
// so node identities agree cluster-wide and the transports route frames by
// NodeId alone; each process then executes only its local nodes, exchanging
// checksummed wire frames over real TCP sockets. The clock epoch is the
// machine's monotonic-clock origin, shared by all processes, which makes the
// per-process trace timestamps comparable.
//
//   cluster_node --mode pbr --host 0 --base-port 35200 --trace t0.jsonl &
//   cluster_node --mode pbr --host 1 --base-port 35200 --trace t1.jsonl &
//   cluster_node --mode pbr --host 2 --base-port 35200 --trace t2.jsonl &
//   cluster_node --mode pbr --host 3 --base-port 35200 --trace t3.jsonl --txns 50
//   cluster_node check t0.jsonl t1.jsonl t2.jsonl t3.jsonl
//
// The client process (the highest host index) exits 0 iff every transaction
// committed; `check` merges the per-process traces and replays them through
// the offline checker (total order, at-most-once, durability, strict
// serializability), exiting 0 iff the execution was correct. The launcher
// `run_cluster.sh` scripts exactly this.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/migrate.hpp"
#include "core/shadowdb.hpp"
#include "net/tcp_transport.hpp"
#include "obs/checker.hpp"
#include "tob/tob.hpp"
#include "workload/bank.hpp"

namespace {

using namespace shadow;

constexpr std::size_t kServerHosts = 3;
constexpr std::size_t kHostCount = kServerHosts + 1;  // + client host
constexpr std::size_t kClientHost = kServerHosts;

struct Args {
  bool pbr = true;
  bool pipelined = false;   // SMR only: 3-stage pipeline + adaptive batching
  std::uint32_t host = 0;
  std::uint16_t base_port = 35200;
  std::size_t txns = 50;    // total, split across --clients
  std::size_t clients = 1;  // closed-loop clients (part of the topology:
                            // every process must pass the same value)
  std::uint64_t run_for_ms = 20000;  // server lifetime / client deadline
  std::string trace_path;
  bool rejoin = false;           // SMR only: restarted process, rejoin via snapshot
  std::uint64_t suspect_ms = 10000;  // SMR failure-detection suspicion timeout
  std::size_t shards = 1;        // SMR only: independent consensus groups
  std::size_t cross_shard_pct = 10;  // sharded workload: % cross-shard transfers
  std::size_t read_pct = 0;      // sharded workload: % cross-shard pair reads
  std::uint64_t epoch = 0;       // restart epoch tagged in group_info events
  std::uint64_t split_at_ms = 0;  // sharded SMR: broadcast ::mig-split at T ms
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: cluster_node --mode pbr|smr --host 0..%zu --base-port P"
               " [--txns N] [--clients C] [--pipelined] [--run-for-ms M] [--trace FILE]\n"
               "       [--rejoin] [--suspect-ms M] [--shards N] [--cross-shard-pct P]"
               " [--read-pct P] [--epoch E] [--split-at-ms T]\n"
               "       cluster_node check TRACE...\n"
               "       cluster_node --help\n"
               "\n"
               "Every process — %zu server hosts plus one client host — runs this same\n"
               "binary with the same --base-port and topology flags, differing only in\n"
               "--host. The client process (host %zu) drives the bank workload and exits\n"
               "0 iff every transaction committed; `check` merges the per-process traces\n"
               "and replays them through the offline checker.\n"
               "\n"
               "  --pipelined       (smr only) runs each process as a 3-stage pipeline\n"
               "                    (I/O / consensus / DB executor threads) with adaptive\n"
               "                    TOB batching\n"
               "  --rejoin          (smr, hosts 1..%zu) marks this process as a\n"
               "                    crash-restart: it pauses its TOB node(s), fetches a\n"
               "                    snapshot from host 0's replica of each group, and\n"
               "                    resumes mid-stream; pass a fresh --epoch per restart\n"
               "  --suspect-ms M    (smr) failure-detection suspicion timeout; a replica\n"
               "                    silent for M ms is proposed for replacement\n"
               "                    (default 10000)\n"
               "  --shards N        (smr only) partitions the bank keyspace across N\n"
               "                    consensus groups over the same hosts;\n"
               "                    --cross-shard-pct of transactions become 2PC\n"
               "                    transfers (default 10)\n"
               "  --read-pct P      (sharded smr) P%% of transactions become cross-shard\n"
               "                    bank.balance2 pair reads served by the lock-free\n"
               "                    snapshot-read path — no consensus log entries, no\n"
               "                    prepare locks (default 0)\n"
               "  --split-at-ms T   (sharded smr) every process broadcasts a ::mig-split\n"
               "                    moving bank keys [accounts/4, accounts/2) from group\n"
               "                    0 to group 1 at T ms after start (the TOB collapses\n"
               "                    the duplicates); server processes then exit non-zero\n"
               "                    unless their replicas committed the migration\n",
               kHostCount - 1, kServerHosts, kClientHost, kServerHosts - 1);
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

int run_check(int argc, char** argv) {
  std::vector<obs::Trace> traces;
  for (int i = 0; i < argc; ++i) {
    traces.push_back(obs::parse_jsonl_file(argv[i]));
  }
  const obs::Trace merged = obs::merge_traces(traces);
  const obs::CheckResult result = obs::check_trace(merged);
  std::printf("%s\n", result.summary().c_str());
  return result.ok() ? 0 : 1;
}

int run_node(const Args& args) {
  net::TcpOptions options;
  options.local_host = args.host;
  for (std::size_t h = 0; h < kHostCount; ++h) {
    options.hosts.push_back(net::TcpHostAddr{
        "127.0.0.1", static_cast<std::uint16_t>(args.base_port + h)});
  }
  options.seed = 42;
  // CLOCK_MONOTONIC's origin, identical for every process on this machine:
  // now() values (and so trace timestamps) are cluster-comparable.
  options.epoch = std::chrono::steady_clock::time_point{};

  net::TcpTransport transport(options);
  if (!transport.start()) {
    std::fprintf(stderr, "host %u: cannot bind 127.0.0.1:%u (sockets unavailable?)\n",
                 args.host, args.base_port + args.host);
    return 3;
  }

  obs::Tracer tracer({.capacity = 1 << 19, .record_messages = false});
  tracer.attach(transport);

  auto registry = std::make_shared<workload::ProcedureRegistry>();
  workload::bank::register_procedures(*registry);
  const workload::bank::BankConfig bank{1000, 0};

  core::ClusterOptions opts;
  opts.db_replicas = 3;  // all three server hosts run active replicas
  opts.db_spares = 0;
  opts.registry = registry;
  opts.tracer = &tracer;
  opts.loader = [&bank](db::Engine& e) { workload::bank::load(e, bank); };
  opts.smr.pipelined_execution = args.pipelined;
  opts.smr.suspect_timeout = args.suspect_ms * 1000;
  opts.tob_adaptive_batching = args.pipelined;

  // Identical assembly in every process; only local nodes execute here.
  // Sharded SMR builds N groups over the same three hosts; `groups` views
  // them uniformly (the classic cluster is one group).
  core::PbrCluster pbr;
  core::SmrCluster smr;
  core::ShardedSmrCluster sharded;
  std::vector<core::ReplicationGroup*> groups;
  if (args.pbr) {
    pbr = core::make_pbr_cluster(transport, opts);
  } else if (args.shards > 1) {
    sharded = core::make_sharded_smr_cluster(transport, opts, args.shards, args.epoch);
    for (auto& group : sharded.groups) groups.push_back(&group);
  } else {
    smr = core::make_smr_cluster(transport, opts);
    groups.push_back(&smr);
  }
  const net::HostId client_host = transport.add_host();  // the 4th table entry
  std::vector<NodeId> client_nodes;
  for (std::size_t c = 0; c < args.clients; ++c) {
    client_nodes.push_back(transport.add_node("client" + std::to_string(c + 1), client_host));
  }

  core::DbClient::Options client_options;
  client_options.mode = args.pbr ? core::DbClient::Mode::kDirect : core::DbClient::Mode::kTob;
  client_options.targets =
      args.pbr ? pbr.request_targets() : groups.front()->broadcast_targets();
  if (args.shards > 1) {
    client_options.router = sharded.router.get();
    client_options.retry_conflict_aborts = true;
  }
  client_options.tracer = &tracer;
  std::vector<std::unique_ptr<core::DbClient>> clients;
  if (args.host == kClientHost) {
    for (std::size_t c = 0; c < args.clients; ++c) {
      // Split the transaction budget; the first clients take the remainder.
      client_options.txn_limit =
          args.txns / args.clients + (c < args.txns % args.clients ? 1 : 0);
      auto rng = std::make_shared<Rng>(7 + c);
      const std::size_t cross_pct = args.shards > 1 ? args.cross_shard_pct : 0;
      const std::size_t read_pct = args.shards > 1 ? args.read_pct : 0;
      clients.push_back(std::make_unique<core::DbClient>(
          transport, client_nodes[c], ClientId{static_cast<std::uint32_t>(c + 1)},
          client_options, [rng, bank, cross_pct, read_pct]() {
            const std::uint64_t pick = rng->next() % 100;
            if (pick < read_pct) {
              // Cross-shard pair read: adjacent accounts land in different
              // mod-N shards, so this exercises the snapshot-read version-cut
              // exchange over real TCP sockets.
              const auto from = static_cast<std::int64_t>(
                  rng->next() % static_cast<std::uint64_t>(bank.accounts));
              const std::int64_t to = (from + 1) % bank.accounts;
              return std::make_pair(std::string(workload::bank::kBalance2Proc),
                                    workload::Params{db::Value(from), db::Value(to)});
            }
            if (cross_pct > 0 && pick < read_pct + cross_pct) {
              // Cross-shard transfer: adjacent accounts always land in
              // different mod-N shards. Amount 1 keeps the global balance
              // easy to audit.
              const auto from = static_cast<std::int64_t>(
                  rng->next() % static_cast<std::uint64_t>(bank.accounts));
              const std::int64_t to = (from + 1) % bank.accounts;
              return std::make_pair(
                  std::string(workload::bank::kTransferProc),
                  workload::Params{db::Value(from), db::Value(to), db::Value(std::int64_t{1})});
            }
            return std::make_pair(std::string(workload::bank::kDepositProc),
                                  workload::bank::make_deposit(*rng, bank));
          }));
    }
  }

  if (args.split_at_ms > 0) {
    // Dynamic rebalancing over real sockets. Identical assembly everywhere:
    // one admin node per host so the node tables agree, but only the local
    // one fires. Every process broadcasts the same (client, seq) split into
    // every group — the TOB deduplicates control commands by exact key, so
    // one delivery per group survives no matter how many processes send.
    std::vector<NodeId> admin_nodes;
    for (std::size_t h = 0; h < kHostCount; ++h) {
      const net::HostId host = h == kClientHost ? client_host : static_cast<net::HostId>(h);
      admin_nodes.push_back(transport.add_node("mig-admin" + std::to_string(h), host));
    }
    core::RangeSpec split;
    split.mid = 1;
    split.table = workload::bank::kTable;
    split.lo = static_cast<std::int64_t>(bank.accounts) / 4;
    split.hi = static_cast<std::int64_t>(bank.accounts) / 2;
    split.from = 0;
    split.to = 1;
    split.donor = sharded.groups[0].replica_nodes[0];
    const NodeId admin = admin_nodes[args.host];
    for (int i = 0; i < 6; ++i) {
      // Rebroadcast every 500 ms against lost frames, rotating the TOB
      // frontend so a crashed one cannot black-hole every retry.
      transport.schedule_timer_for_node(
          admin,
          transport.now() + args.split_at_ms * 1000 + static_cast<net::Time>(i) * 500000,
          [&sharded, split, admin, i](net::NodeContext& ctx) {
            workload::TxnRequest req = core::make_split_request(split);
            req.reply_to = admin;
            for (core::GroupId g = 0; g < sharded.router->shard_count(); ++g) {
              const auto tobs = sharded.router->tob_targets(g);
              tob::BroadcastBody body{tob::Command{req.client, req.seq,
                                                   workload::encode_request(req)}};
              ctx.send(tobs[static_cast<std::size_t>(i) % tobs.size()],
                       net::make_msg(tob::kBroadcastHeader, std::move(body)));
            }
          });
    }
  }

  if (args.rejoin) {
    // Crash-restart: this process replaces a SIGKILLed incarnation of the
    // same host. Pause our TOB node IN EVERY GROUP, ask host 0's replica of
    // that group for a snapshot, and resume each group mid-stream — the
    // resume points are independent per group. The rejoin sequence number is
    // the shared monotonic clock in µs — unique across this host's
    // incarnations (the rejoin client id already differs per group, since
    // each group's replica has its own NodeId).
    const auto seq = static_cast<RequestSeq>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    for (core::ReplicationGroup* group : groups) {
      group->replicas[args.host]->start_rejoin(group->tob_nodes[0], group->replica_nodes[0],
                                               seq);
    }
  }

  // The topology is frozen: hand the sockets to the transport I/O thread.
  if (args.pipelined && !transport.start_pipeline()) {
    std::fprintf(stderr, "host %u: start_pipeline failed, running single-threaded\n",
                 args.host);
  }

  int exit_code = 0;
  if (args.host == kClientHost) {
    for (auto& client : clients) client->start();
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(args.run_for_ms);
    auto all_done = [&clients] {
      for (auto& client : clients) {
        if (!client->done()) return false;
      }
      return true;
    };
    while (!all_done() && std::chrono::steady_clock::now() < deadline) {
      transport.poll_once(2000);
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    transport.run_for(200000);  // let final acks/replication drain
    std::uint64_t committed = 0;
    std::uint64_t retries = 0;
    for (auto& client : clients) {
      committed += client->committed();
      retries += client->retries();
    }
    std::printf(
        "client: committed %llu/%zu over %zu clients in %.2f s — %.0f txn/s wall-clock, "
        "retries %llu, delivered %llu frames\n",
        static_cast<unsigned long long>(committed), args.txns, args.clients, secs,
        secs > 0 ? static_cast<double>(committed) / secs : 0.0,
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(transport.messages_delivered()));
    if (args.shards > 1) {
      std::printf("client: shards %zu, cross-shard ratio %.3f (%llu/%llu routed)\n",
                  args.shards, sharded.router->cross_shard_ratio(),
                  static_cast<unsigned long long>(sharded.router->cross_shard_count()),
                  static_cast<unsigned long long>(sharded.router->routed_count()));
    }
    exit_code = (all_done() && committed == args.txns) ? 0 : 1;
  } else {
    transport.run_for(args.run_for_ms * 1000);
    if (args.pbr) {
      std::printf("host %u: executed %llu txns, delivered %llu frames, digest %016llx\n",
                  args.host,
                  static_cast<unsigned long long>(pbr.replicas[args.host]->executed()),
                  static_cast<unsigned long long>(transport.messages_delivered()),
                  static_cast<unsigned long long>(pbr.replicas[args.host]->state_digest()));
    } else {
      // Per-group executed counts and digests: with one group this prints
      // exactly the classic line; sharded runs add one line per group.
      std::uint64_t executed_total = 0;
      for (core::ReplicationGroup* group : groups) group->replicas[args.host]->quiesce();
      for (core::ReplicationGroup* group : groups) {
        executed_total += group->replicas[args.host]->executed();
      }
      std::printf("host %u: executed %llu txns, delivered %llu frames, digest %016llx\n",
                  args.host, static_cast<unsigned long long>(executed_total),
                  static_cast<unsigned long long>(transport.messages_delivered()),
                  static_cast<unsigned long long>(
                      groups.front()->replicas[args.host]->state_digest()));
      if (args.shards > 1) {
        for (core::ReplicationGroup* group : groups) {
          std::printf("host %u: group %u executed %llu txns, digest %016llx\n", args.host,
                      group->id,
                      static_cast<unsigned long long>(group->replicas[args.host]->executed()),
                      static_cast<unsigned long long>(
                          group->replicas[args.host]->state_digest()));
        }
      }
      if (args.pipelined) {
        // Pipelined-mode bookkeeping: batch bytes copied into frames (nonzero:
        // each frame carrying a batch copies its payload once) and coalescing.
        std::printf("host %u: batch bytes copied %llu, writev %llu calls / %llu records, "
                    "tob batch limit %zu\n",
                    args.host,
                    static_cast<unsigned long long>(
                        splice_stats().batch_bytes_copied.load(std::memory_order_relaxed)),
                    static_cast<unsigned long long>(transport.writev_calls()),
                    static_cast<unsigned long long>(transport.writev_records()),
                    groups.front()->tob.nodes[args.host]->batch_limit());
      }
    }
  }

  if (args.split_at_ms > 0 && args.host != kClientHost) {
    // The rebalance gate: this host runs one replica per group, and every
    // replica counts "mig.commits" once when it delivers the ::mig-commit.
    const std::uint64_t commits = tracer.metrics().counter("mig.commits").value();
    std::printf("host %u: mig commits=%llu rows_out=%llu rows_in=%llu forwards=%llu\n",
                args.host, static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(tracer.metrics().counter("mig.rows_out").value()),
                static_cast<unsigned long long>(tracer.metrics().counter("mig.rows_in").value()),
                static_cast<unsigned long long>(
                    tracer.metrics().counter("mig.forwards").value()));
    if (commits == 0) {
      std::fprintf(stderr, "host %u: range split did not commit on this host\n", args.host);
      exit_code = 1;
    }
  }

  if (!args.trace_path.empty()) {
    obs::export_jsonl_file(tracer.snapshot(), args.trace_path);
  }
  transport.shutdown();
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "check") == 0) {
    if (argc < 3) usage();
    return run_check(argc - 2, argv + 2);
  }

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--mode") {
      const std::string mode = value();
      if (mode == "pbr") {
        args.pbr = true;
      } else if (mode == "smr") {
        args.pbr = false;
      } else {
        usage();
      }
    } else if (flag == "--host") {
      args.host = static_cast<std::uint32_t>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (flag == "--base-port") {
      args.base_port = static_cast<std::uint16_t>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (flag == "--txns") {
      args.txns = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--clients") {
      args.clients = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--pipelined") {
      args.pipelined = true;
    } else if (flag == "--run-for-ms") {
      args.run_for_ms = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      args.trace_path = value();
    } else if (flag == "--rejoin") {
      args.rejoin = true;
    } else if (flag == "--suspect-ms") {
      args.suspect_ms = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--shards") {
      args.shards = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--cross-shard-pct") {
      args.cross_shard_pct = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--read-pct") {
      args.read_pct = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--epoch") {
      args.epoch = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--split-at-ms") {
      args.split_at_ms = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--help" || flag == "-h") {
      print_usage(stdout);
      return 0;
    } else {
      usage();
    }
  }
  if (args.host >= kHostCount) usage();
  if (args.clients == 0) usage();
  if (args.pipelined && args.pbr) usage();  // the pipeline is the SMR path
  if (args.shards == 0 || (args.shards > 1 && args.pbr)) usage();  // sharding is SMR-only
  if (args.cross_shard_pct > 100) usage();
  if (args.read_pct > 100 || args.cross_shard_pct + args.read_pct > 100) usage();
  if (args.read_pct > 0 && args.shards < 2) usage();  // pair reads need 2 groups
  // Rejoin is the SMR snapshot path; host 0 serves the snapshots (and holds
  // the Paxos leader), so it is never the one restarting.
  if (args.rejoin && (args.pbr || args.host == 0 || args.host >= kClientHost)) usage();
  // The split moves keys from group 0 to group 1, so it needs both to exist.
  if (args.split_at_ms > 0 && (args.pbr || args.shards < 2)) usage();
  return run_node(args);
}
