// TCP chaos hardening: the real-socket transport under connection failure.
//
//   * Inbound streams that die mid-record — at every byte offset of a valid
//     wire record — are accounted as traced drops, never parsed as garbage.
//   * A dead peer is retried with capped exponential backoff (seeded
//     jitter), observable through the reconnect/backoff observer hooks and
//     the `reconnect_attempts` counter.
//   * An established peer dying fires on_peer_down exactly once; traffic
//     queued during the outage is replayed verbatim when the restarted peer
//     (on a new port) comes back, and on_peer_up reports the downtime.
//   * A full ShadowDB-SMR cluster over four in-process TCP transports
//     survives a crash-restart: one server "process" is torn down mid-load,
//     rebuilt from scratch on a fresh port, and rejoined via snapshot state
//     transfer — the cluster converges and the merged traces (including the
//     dead incarnation's generation) pass the offline checker.
//
// Skips (rather than fails) when the environment forbids sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/shadowdb.hpp"
#include "net/tcp_transport.hpp"
#include "obs/checker.hpp"
#include "wire/framing.hpp"
#include "workload/bank.hpp"

namespace shadow::net {
namespace {

struct RecordingObserver final : TransportObserver {
  struct Drop {
    NodeId from{};
    NodeId to{};
    std::size_t size = 0;
    wire::FrameStatus reason{};
  };
  struct Attempt {
    Time at = 0;
    std::uint64_t attempt = 0;
    Time backoff = 0;
  };
  std::vector<Drop> drops;
  std::vector<Attempt> attempts;
  std::size_t peer_down = 0;
  std::size_t peer_up = 0;
  Time last_downtime = 0;

  void on_wire_drop(Time /*t*/, NodeId from, NodeId to, const std::string& /*header*/,
                    std::size_t wire_size, wire::FrameStatus reason) override {
    drops.push_back(Drop{from, to, wire_size, reason});
  }
  void on_reconnect_attempt(Time t, HostId /*peer*/, std::uint64_t attempt,
                            Time backoff) override {
    attempts.push_back(Attempt{t, attempt, backoff});
  }
  void on_peer_down(Time /*t*/, HostId /*peer*/) override { ++peer_down; }
  void on_peer_up(Time /*t*/, HostId /*peer*/, Time downtime) override {
    ++peer_up;
    last_downtime = downtime;
  }
};

/// Plain blocking client socket to 127.0.0.1:port, or -1.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void append_u32le(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

// A peer dying mid-record must surface as an accounted drop, not as a parse
// of half a frame. Exhaustively: for every byte offset of a valid wire
// record, a raw socket sends exactly that prefix and disconnects; the
// transport must trace one truncation drop per partial record (with the
// buffered size), deliver the one complete record exactly once, and never
// mistake a prefix for a full frame.
TEST(TcpChaos, PartialInboundFramesAreDroppedAtEveryByteOffset) {
  TcpOptions options;
  options.hosts = {TcpHostAddr{}};  // one host, ephemeral port
  TcpTransport transport(options);
  if (!transport.start()) GTEST_SKIP() << "sockets unavailable in this environment";

  const HostId h0 = transport.add_host();
  const NodeId sink = transport.add_node("sink", h0);
  std::size_t received = 0;
  transport.set_handler(sink, [&](NodeContext&, const Message& m) {
    if (m.header == "chaos-ping") ++received;
  });
  RecordingObserver observer;
  transport.add_observer(&observer);

  // One complete wire record as a peer would write it:
  // [record_len u32][from u32][to u32][frame], little-endian.
  const Bytes frame = wire::encode_frame("chaos-ping", {});
  Bytes record;
  append_u32le(record, static_cast<std::uint32_t>(8 + frame.size()));
  append_u32le(record, sink.value);
  append_u32le(record, sink.value);
  record.insert(record.end(), frame.begin(), frame.end());

  std::size_t expected_drops = 0;
  for (std::size_t off = 0; off <= record.size(); ++off) {
    const int fd = raw_connect(transport.listen_port());
    ASSERT_GE(fd, 0) << "offset " << off;
    std::size_t sent = 0;
    while (sent < off) {
      const ssize_t n = ::send(fd, record.data() + sent, off - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "offset " << off;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);

    const bool complete = off == record.size();
    if (!complete && off > 0) ++expected_drops;
    const std::size_t expected_received = complete ? 1 : 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((observer.drops.size() < expected_drops || received < expected_received) &&
           std::chrono::steady_clock::now() < deadline) {
      transport.poll_once(2000);
    }
    ASSERT_EQ(observer.drops.size(), expected_drops) << "offset " << off;
  }

  EXPECT_EQ(received, 1u);  // only the complete record delivered, exactly once
  EXPECT_EQ(transport.wire_drops(), expected_drops);
  EXPECT_EQ(observer.drops.size(), record.size() - 1);  // one per partial offset
  for (std::size_t i = 0; i < observer.drops.size(); ++i) {
    const RecordingObserver::Drop& drop = observer.drops[i];
    // Drop i came from the send of offset i+1 and buffered exactly that much.
    EXPECT_EQ(drop.size, i + 1) << "drop " << i;
    EXPECT_EQ(drop.reason, wire::FrameStatus::kTruncated) << "drop " << i;
    // Once the routing prologue was complete, the drop is attributed.
    if (drop.size >= 12) {
      EXPECT_EQ(drop.to.value, sink.value) << "drop " << i;
    }
  }
}

// A dead peer costs ever fewer syscalls: consecutive connect failures double
// the (pre-jitter) retry delay up to the cap, the attempt counter counts the
// outage, and actual inter-attempt spacing respects the jitter floor.
TEST(TcpChaos, ReconnectBackoffIsCappedExponential) {
  // A port that refuses connections: bind an ephemeral listener, note the
  // port, close it again.
  std::uint16_t dead_port = 0;
  {
    TcpOptions probe_options;
    probe_options.hosts = {TcpHostAddr{}};
    TcpTransport probe(probe_options);
    if (!probe.start()) GTEST_SKIP() << "sockets unavailable in this environment";
    dead_port = probe.listen_port();
    probe.shutdown();
  }

  TcpOptions options;
  options.local_host = 0;
  options.hosts = {TcpHostAddr{}, TcpHostAddr{"127.0.0.1", dead_port}};
  options.connect_retry = 2000;        // 2 ms base, so the test runs in ~50 ms
  options.connect_retry_cap = 16000;   // capped after three doublings
  options.connect_retry_jitter = 0.25;
  TcpTransport transport(options);
  if (!transport.start()) GTEST_SKIP() << "sockets unavailable in this environment";

  const HostId h0 = transport.add_host();
  const HostId h1 = transport.add_host();
  const NodeId local = transport.add_node("local", h0);
  const NodeId remote = transport.add_node("remote", h1);
  RecordingObserver observer;
  transport.add_observer(&observer);

  // One queued message keeps the transport trying to reach the dead peer.
  transport.post(local, remote, make_signal("chaos-ping"));

  constexpr std::size_t kAttempts = 7;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (observer.attempts.size() < kAttempts &&
         std::chrono::steady_clock::now() < deadline) {
    transport.poll_once(2000);
  }
  ASSERT_GE(observer.attempts.size(), kAttempts) << "reconnects stalled";

  for (std::size_t k = 0; k < kAttempts; ++k) {
    const RecordingObserver::Attempt& a = observer.attempts[k];
    EXPECT_EQ(a.attempt, k + 1) << "attempt " << k;
    const Time expected =
        std::min<Time>(options.connect_retry << k, options.connect_retry_cap);
    EXPECT_EQ(a.backoff, expected) << "attempt " << k;
    if (k > 0) {
      // The next attempt waited at least the jittered delay of the previous
      // one (jitter 0.25 → at least 3/4 of the pre-jitter backoff; -1 for
      // the truncation in the jitter multiply).
      const Time floor = observer.attempts[k - 1].backoff * 3 / 4 - 1;
      EXPECT_GE(a.at - observer.attempts[k - 1].at, floor) << "attempt " << k;
    }
  }
  EXPECT_EQ(transport.reconnect_attempts(), observer.attempts.size());
  EXPECT_EQ(transport.peer_down_total(), 0u);  // never established, so no outage
}

// Established-connection death is one observable outage: on_peer_down fires
// once, traffic sent during the outage queues, and when the peer restarts on
// a brand-new port (patched via set_host_port, exactly what a crash-restart
// does) on_peer_up reports the downtime and the queued record is replayed.
TEST(TcpChaos, PeerOutageQueuesTrafficUntilRestartOnNewPort) {
  const auto epoch = std::chrono::steady_clock::now();
  auto make_transport = [&epoch](std::uint32_t local,
                                 std::vector<TcpHostAddr> hosts) {
    TcpOptions options;
    options.local_host = local;
    options.hosts = std::move(hosts);
    options.epoch = epoch;
    options.connect_retry = 5000;  // recover quickly once the peer is back
    options.connect_retry_cap = 50000;
    return std::make_unique<TcpTransport>(options);
  };
  // Identical two-node assembly on both transports: a on host 0, b on host 1.
  auto assemble = [](TcpTransport& t) {
    const HostId h0 = t.add_host();
    const HostId h1 = t.add_host();
    return std::make_pair(t.add_node("a", h0), t.add_node("b", h1));
  };

  auto a = make_transport(0, {TcpHostAddr{}, TcpHostAddr{}});
  if (!a->start()) GTEST_SKIP() << "sockets unavailable in this environment";
  auto b = make_transport(1, {TcpHostAddr{}, TcpHostAddr{}});
  ASSERT_TRUE(b->start());
  a->set_host_port(HostId{1}, b->listen_port());
  b->set_host_port(HostId{0}, a->listen_port());
  const auto [node_a, node_b] = assemble(*a);
  assemble(*b);
  std::size_t b_received = 0;
  b->set_handler(node_b, [&](NodeContext&, const Message& m) {
    if (m.header == "chaos-ping") ++b_received;
  });
  RecordingObserver observer;
  a->add_observer(&observer);

  auto pump_until = [&](auto done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      a->poll_once(2000);
      if (b != nullptr) b->poll_once(2000);
    }
    return done();
  };

  a->post(node_a, node_b, make_signal("chaos-ping"));
  ASSERT_TRUE(pump_until([&] { return b_received == 1; }));
  EXPECT_EQ(observer.peer_up, 1u);        // first-ever connect
  EXPECT_EQ(observer.last_downtime, 0u);  // ... has no preceding outage

  // The peer process dies: its listener and the established connection go
  // away. The sender must notice exactly one outage.
  b.reset();
  ASSERT_TRUE(pump_until([&] { return observer.peer_down == 1; }));
  EXPECT_EQ(a->peer_down_total(), 1u);

  // Sent into the outage: queues on the sender (retained across the dead
  // connection, replayed whole on the replacement).
  a->post(node_a, node_b, make_signal("chaos-ping"));

  // The peer restarts as a fresh process on a fresh ephemeral port; only the
  // routing-table patch connects the two incarnations.
  b = make_transport(1, {TcpHostAddr{"127.0.0.1", 0}, TcpHostAddr{}});
  ASSERT_TRUE(b->start());
  b->set_host_port(HostId{0}, a->listen_port());
  b->set_host_port(HostId{1}, b->listen_port());
  const auto [a2, b2] = assemble(*b);
  (void)a2;
  b->set_handler(b2, [&](NodeContext&, const Message& m) {
    if (m.header == "chaos-ping") ++b_received;
  });
  a->set_host_port(HostId{1}, b->listen_port());

  ASSERT_TRUE(pump_until([&] { return b_received == 2; }));
  EXPECT_EQ(observer.peer_up, 2u);
  EXPECT_GT(observer.last_downtime, 0u);
  EXPECT_EQ(observer.peer_down, 1u);
  EXPECT_EQ(a->wire_drops(), 0u);
}

}  // namespace
}  // namespace shadow::net

namespace shadow::core {
namespace {

constexpr std::size_t kServerHosts = 3;
constexpr std::size_t kHostCount = kServerHosts + 1;  // + client host
constexpr std::size_t kClientHost = kServerHosts;
constexpr std::size_t kTxns = 40;

/// One "process" of the cluster, as in the plain TCP e2e test.
struct Process {
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<obs::Tracer> tracer;
  SmrCluster smr;
  std::shared_ptr<workload::ProcedureRegistry> registry;
  NodeId client_node{};
  std::unique_ptr<DbClient> client;
};

// The in-process equivalent of run_chaos_cluster.sh's kill/restart cycle:
// four TCP transports run the SMR cluster, host 1's "process" is destroyed
// mid-load (sockets, transport, tracer, replica state — everything an OS
// process would lose to SIGKILL), rebuilt from scratch on a brand-new
// ephemeral port, and rejoined via snapshot state transfer. The cluster must
// finish the workload, converge on one state digest, and the merged trace
// generations — including the dead incarnation's — must pass the checker.
class TcpSmrCrashRestartTest : public ::testing::Test {
 protected:
  bool bring_up() {
    epoch_ = std::chrono::steady_clock::now();
    std::vector<net::TcpHostAddr> hosts(kHostCount);
    for (std::size_t h = 0; h < kHostCount; ++h) {
      auto transport = make_transport(static_cast<std::uint32_t>(h), hosts);
      if (!transport->start()) return false;
      processes_.push_back(Process{});
      processes_.back().transport = std::move(transport);
    }
    for (auto& p : processes_) {
      for (std::size_t h = 0; h < kHostCount; ++h) {
        p.transport->set_host_port(net::HostId{static_cast<std::uint32_t>(h)},
                                   processes_[h].transport->listen_port());
      }
    }
    for (auto& p : processes_) assemble(p);
    return true;
  }

  std::unique_ptr<net::TcpTransport> make_transport(std::uint32_t local,
                                                    std::vector<net::TcpHostAddr> hosts) {
    net::TcpOptions options;
    options.local_host = local;
    options.hosts = std::move(hosts);
    options.seed = 42;
    options.epoch = epoch_;  // shared: traces are cluster-comparable
    options.connect_retry = 10000;  // pick restarted peers up quickly
    options.connect_retry_cap = 100000;
    return std::make_unique<net::TcpTransport>(options);
  }

  void assemble(Process& p) {
    net::TcpTransport& t = *p.transport;
    p.tracer = std::make_unique<obs::Tracer>(
        obs::TracerOptions{.capacity = 1 << 18, .record_messages = false});
    p.tracer->attach(t);

    p.registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*p.registry);

    ClusterOptions opts;
    opts.db_replicas = 3;
    opts.db_spares = 0;
    opts.registry = p.registry;
    opts.tracer = p.tracer.get();
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank_); };
    // Keep failure detection out of the restart window: the rejoin protocol,
    // not spare promotion, is under test (the launcher script does the same).
    opts.smr.suspect_timeout = 600000000;  // 600 s

    p.smr = make_smr_cluster(t, opts);

    p.client_node = t.add_node("client1");
    DbClient::Options options;
    options.mode = DbClient::Mode::kTob;
    options.targets = p.smr.broadcast_targets();
    options.txn_limit = kTxns;
    options.retry_timeout = 2000000;
    options.tracer = p.tracer.get();
    auto rng = std::make_shared<Rng>(7);
    auto cfg = bank_;
    p.client = std::make_unique<DbClient>(
        t, p.client_node, ClientId{1}, options, [rng, cfg]() {
          return std::make_pair(std::string(workload::bank::kDepositProc),
                                workload::bank::make_deposit(*rng, cfg));
        });
  }

  bool pump_until(std::chrono::seconds budget, auto done) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      for (auto& p : processes_) p.transport->poll_once(300);
    }
    return done();
  }

  void pump_for(std::chrono::milliseconds duration) {
    const auto until = std::chrono::steady_clock::now() + duration;
    while (std::chrono::steady_clock::now() < until) {
      for (auto& p : processes_) p.transport->poll_once(300);
    }
  }

  DbClient& client() { return *processes_[kClientHost].client; }

  std::uint64_t replica_executed(std::size_t h) {
    processes_[h].smr.replicas[h]->quiesce();
    return processes_[h].smr.replicas[h]->executed();
  }
  std::uint64_t replica_digest(std::size_t h) {
    processes_[h].smr.replicas[h]->quiesce();
    return processes_[h].smr.replicas[h]->state_digest();
  }

  std::chrono::steady_clock::time_point epoch_;
  workload::bank::BankConfig bank_{1000, 0};
  std::vector<Process> processes_;
};

TEST_F(TcpSmrCrashRestartTest, RestartedProcessRejoinsViaSnapshotMidLoad) {
  if (!bring_up()) GTEST_SKIP() << "sockets unavailable in this environment";

  client().start();
  ASSERT_TRUE(pump_until(std::chrono::seconds(60),
                         [&] { return client().committed() >= kTxns / 4; }))
      << "cluster made no progress before the crash";

  // "SIGKILL" host 1: keep the dead incarnation's trace generation (a real
  // SIGKILL would lose it — keeping it only gives the checker more to verify)
  // and destroy everything else it owned, sockets included.
  const obs::Trace gen0 = processes_[1].tracer->snapshot();
  processes_[1] = Process{};

  // Restart it as a brand-new process: fresh ephemeral port, identical
  // assembly, empty state. Patch the new port into every routing table.
  std::vector<net::TcpHostAddr> hosts(kHostCount);
  processes_[1].transport = make_transport(1, hosts);
  ASSERT_TRUE(processes_[1].transport->start());
  for (std::size_t h = 0; h < kHostCount; ++h) {
    processes_[1].transport->set_host_port(net::HostId{static_cast<std::uint32_t>(h)},
                                           processes_[h].transport->listen_port());
    processes_[h].transport->set_host_port(net::HostId{1},
                                           processes_[1].transport->listen_port());
  }
  assemble(processes_[1]);

  // Rejoin mid-stream: pause the fresh TOB node, fetch a snapshot from host
  // 0's replica, resume delivery at the snapshot's slot. The sequence number
  // must be unique across this host's incarnations (the launcher script uses
  // the shared monotonic clock; so does this).
  const auto seq = static_cast<RequestSeq>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  processes_[1].smr.replicas[1]->start_rejoin(processes_[1].smr.tob_nodes[0],
                                              processes_[1].smr.replica_nodes[0], seq);

  ASSERT_TRUE(pump_until(std::chrono::seconds(90), [&] { return client().done(); }))
      << "cluster did not finish the workload after the restart";
  EXPECT_EQ(client().committed(), kTxns);
  pump_for(std::chrono::milliseconds(500));  // let replication drain

  // The never-crashed replicas executed everything; the restarted one holds
  // the same state (snapshot + resumed deliveries), whatever fraction it
  // re-executed itself.
  EXPECT_EQ(replica_executed(0), kTxns);
  EXPECT_EQ(replica_executed(2), kTxns);
  EXPECT_LE(replica_executed(1), kTxns);
  EXPECT_EQ(replica_digest(0), replica_digest(1));
  EXPECT_EQ(replica_digest(1), replica_digest(2));

  // Both of host 1's trace generations merge with the survivors' traces and
  // the whole history still checks out.
  std::vector<obs::Trace> traces;
  traces.push_back(gen0);
  for (auto& p : processes_) traces.push_back(p.tracer->snapshot());
  const obs::CheckResult check = obs::check_trace(obs::merge_traces(traces));
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(check.committed_txns_checked, kTxns);
  EXPECT_EQ(check.replicas_checked, kServerHosts);
  EXPECT_GT(check.slots_checked, 0u);
}

}  // namespace
}  // namespace shadow::core
