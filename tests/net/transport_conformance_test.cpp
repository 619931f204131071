// Backend-parameterized conformance tests of the net::Transport contract:
// the simulator (sim::World) and the real-socket backend (net::TcpTransport)
// must agree on timer semantics (in-order firing, cancellation, stop
// suppression), on rejecting structurally valid frames whose header has no
// registered codec (traced drop, never a crash), and on the multicast
// guarantee (one frame per fan-out, shared by every destination, observable
// both through Transport::encode_count and the tracer's `net.encode_count`
// metric).
//
// The TCP instantiation uses a single-host transport, so every delivery runs
// the loopback path — which by design is the same validate/decode/dispatch
// path socket reads take. A TCP-only test drives the socket read path proper
// with a raw client connection writing crafted records.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"
#include "wire/framing.hpp"
#include "wire/registry.hpp"

namespace shadow::net {
namespace {

// -- test codec ---------------------------------------------------------------

struct PingBody {
  std::uint64_t value = 0;
};

constexpr const char* kPingHeader = "net-test/ping";
constexpr const char* kPokeHeader = "net-test/poke";

}  // namespace
}  // namespace shadow::net

namespace shadow::wire {
template <>
struct Codec<net::PingBody> : Fields<&net::PingBody::value> {};
}  // namespace shadow::wire

namespace shadow::net {
namespace {

/// Records wire drops so tests can assert on them uniformly across backends
/// (the backends expose drop counters under different names).
struct DropRecorder final : TransportObserver {
  std::vector<std::pair<std::string, wire::FrameStatus>> drops;
  void on_wire_drop(Time, NodeId, NodeId, const std::string& header, std::size_t,
                    wire::FrameStatus reason) override {
    drops.emplace_back(header, reason);
  }
};

enum class Backend { kSim, kTcp };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "Tcp";
}

class TransportConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kSim) {
      world_ = std::make_unique<sim::World>(7);
      // Activate the byte path so sim deliveries encode/decode real frames,
      // matching what the TCP backend always does.
      world_->set_wire_fidelity(true);
      transport_ = world_.get();
    } else {
      TcpOptions options;
      options.local_host = 0;
      options.hosts = {TcpHostAddr{}};  // one host, ephemeral port
      options.seed = 7;
      tcp_ = std::make_unique<TcpTransport>(options);
      if (!tcp_->start()) GTEST_SKIP() << "sockets unavailable in this environment";
      transport_ = tcp_.get();
    }
    transport_->add_observer(&drops_);
    host0_ = transport_->add_host();
  }

  /// All conformance nodes live on one host: the TCP instantiation has a
  /// single-entry host table, and co-location is immaterial to the contract.
  NodeId add_node(const std::string& name) { return transport_->add_node(name, host0_); }

  Transport& transport() { return *transport_; }

  /// Runs the backend's event loop for (at least) `duration` microseconds of
  /// its own clock — virtual time for the sim, wall-clock for TCP.
  void settle(Time duration = 50000) {
    if (world_ != nullptr) {
      world_->run_until(world_->now() + duration);
    } else {
      tcp_->run_for(duration);
    }
  }

  std::unique_ptr<sim::World> world_;
  HostId host0_{};
  std::unique_ptr<TcpTransport> tcp_;
  Transport* transport_ = nullptr;
  DropRecorder drops_;
};

// -- timer semantics ----------------------------------------------------------

TEST_P(TransportConformanceTest, TimersFireInDeadlineThenFifoOrder) {
  Transport& t = transport();
  const NodeId node = add_node("timers");
  std::vector<int> fired;
  const Time base = t.now();
  // Deadline order beats schedule order; equal deadlines fire FIFO.
  t.schedule_timer_for_node(node, base + 30000, [&](NodeContext&) { fired.push_back(3); });
  t.schedule_timer_for_node(node, base + 10000, [&](NodeContext&) { fired.push_back(1); });
  t.schedule_timer_for_node(node, base + 20000, [&](NodeContext&) { fired.push_back(2); });
  t.schedule_timer_for_node(node, base + 20000, [&](NodeContext&) { fired.push_back(4); });
  settle(80000);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 3}));
}

TEST_P(TransportConformanceTest, CancelledTimersNeverFire) {
  Transport& t = transport();
  const NodeId node = add_node("timers");
  std::vector<int> fired;
  const Time base = t.now();
  const TimerId doomed =
      t.schedule_timer_for_node(node, base + 10000, [&](NodeContext&) { fired.push_back(1); });
  t.schedule_timer_for_node(node, base + 20000, [&](NodeContext&) { fired.push_back(2); });
  t.cancel(doomed);
  settle(80000);
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST_P(TransportConformanceTest, StopSuppressesPendingTimersAndDeliveries) {
  Transport& t = transport();
  const NodeId a = add_node("a");
  const NodeId b = add_node("b");
  int b_events = 0;
  t.set_handler(b, [&](NodeContext&, const Message&) { ++b_events; });
  const Time base = t.now();
  t.schedule_timer_for_node(b, base + 10000, [&](NodeContext&) { ++b_events; });
  t.post(a, b, make_msg(kPingHeader, PingBody{1}));
  t.stop(b);
  EXPECT_TRUE(t.stopped(b));
  settle(80000);
  EXPECT_EQ(b_events, 0) << "a stopped node's timers and deliveries must be suppressed";
}

TEST_P(TransportConformanceTest, TimerContextCanSendAndChainTimers) {
  Transport& t = transport();
  const NodeId a = add_node("a");
  const NodeId b = add_node("b");
  std::uint64_t received = 0;
  t.set_handler(b, [&](NodeContext&, const Message& msg) {
    received = msg_body<PingBody>(msg).value;
  });
  int chained = 0;
  t.schedule_timer_for_node(a, t.now() + 5000, [&](NodeContext& ctx) {
    ctx.send(b, make_msg(kPingHeader, PingBody{17}));
    ctx.set_timer(5000, [&](NodeContext&) { ++chained; });
  });
  settle(80000);
  EXPECT_EQ(received, 17u);
  EXPECT_EQ(chained, 1);
}

// -- unknown-header rejection -------------------------------------------------

/// A structurally valid frame (checksum passes) whose header no codec was
/// ever registered for — what a peer speaking a newer protocol would send.
Message foreign_message() {
  const std::string header = "net-test/from-the-future";
  SHADOW_CHECK(!wire::registry().contains(header));
  const Bytes body{0xde, 0xad, 0xbe, 0xef};
  Message msg;
  msg.header = header;
  msg.body = std::make_shared<const std::any>(std::uint32_t{0});
  msg.frame = std::make_shared<const Bytes>(wire::encode_frame(header, body));
  msg.wire_size = msg.frame->size();
  return msg;
}

TEST_P(TransportConformanceTest, UnknownHeaderIsDroppedCleanlyNotCrashed) {
  Transport& t = transport();
  const NodeId a = add_node("a");
  const NodeId b = add_node("b");
  int delivered = 0;
  std::string last_header;
  t.set_handler(b, [&](NodeContext&, const Message& msg) {
    ++delivered;
    last_header = msg.header;
  });

  t.post(a, b, foreign_message());
  settle(80000);
  EXPECT_EQ(delivered, 0) << "handler must not see an undecodable message";
  ASSERT_EQ(drops_.drops.size(), 1u);
  EXPECT_EQ(drops_.drops[0].first, "net-test/from-the-future");
  EXPECT_EQ(drops_.drops[0].second, wire::FrameStatus::kUnknownHeader);

  // The transport survives: a registered message on the same link delivers.
  t.post(a, b, make_msg(kPingHeader, PingBody{5}));
  settle(80000);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(last_header, kPingHeader);
}

// -- zero-copy multicast ------------------------------------------------------

TEST_P(TransportConformanceTest, MulticastEncodesTheFrameExactlyOnce) {
  Transport& t = transport();
  obs::Tracer tracer({.capacity = 1024, .record_messages = false});
  tracer.attach(t);

  const NodeId src = add_node("src");
  std::vector<NodeId> sinks;
  int delivered = 0;
  std::set<const Bytes*> frames_delivered;
  for (int i = 0; i < 3; ++i) {
    const NodeId sink = t.add_node("sink" + std::to_string(i), host0_);
    t.set_handler(sink, [&](NodeContext&, const Message& msg) {
      EXPECT_EQ(msg_body<PingBody>(msg).value, 99u);
      frames_delivered.insert(msg.frame.get());
      ++delivered;
    });
    sinks.push_back(sink);
  }
  t.set_handler(src, [&](NodeContext& ctx, const Message&) {
    ctx.multicast(sinks, make_msg(kPingHeader, PingBody{99}));
  });

  const std::uint64_t encodes_before = t.encode_count();
  t.post(src, src, make_signal(kPokeHeader));
  settle(80000);

  EXPECT_EQ(delivered, 3);
  // One frame for the poke signal, one — not three — for the fan-out, and
  // every destination decoded that one buffer.
  EXPECT_EQ(frames_delivered.size(), 1u);
  EXPECT_EQ(t.encode_count() - encodes_before, 2u);
  EXPECT_EQ(tracer.metrics().counters().at("net.encode_count").value(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values(Backend::kSim, Backend::kTcp), backend_name);

// -- TCP socket read path -----------------------------------------------------

/// Writes crafted records straight onto a raw client socket: the receive path
/// (length-prefix parse, frame validation, registry lookup) must absorb an
/// unknown-header frame and a corrupted frame as traced drops and still
/// deliver the valid record behind them on the same connection.
TEST(TcpTransportRawSocket, RejectsUnknownHeaderAndDamageWithoutDesync) {
  TcpOptions options;
  options.local_host = 0;
  options.hosts = {TcpHostAddr{}};
  TcpTransport transport(options);
  if (!transport.start()) GTEST_SKIP() << "sockets unavailable in this environment";
  DropRecorder drops;
  transport.add_observer(&drops);

  const NodeId sink = transport.add_node("sink");
  std::uint64_t received = 0;
  transport.set_handler(sink, [&](NodeContext&, const Message& msg) {
    received = msg_body<PingBody>(msg).value;
  });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(transport.listen_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  const auto write_record = [&](const Bytes& frame) {
    Bytes record;
    const std::uint32_t len = static_cast<std::uint32_t>(8 + frame.size());
    for (int shift = 0; shift < 32; shift += 8) {
      record.push_back(static_cast<std::uint8_t>(len >> shift));
    }
    for (int word = 0; word < 2; ++word) {  // from = to = node 0
      for (int i = 0; i < 4; ++i) record.push_back(0);
    }
    record.insert(record.end(), frame.begin(), frame.end());
    ASSERT_EQ(::send(fd, record.data(), record.size(), 0),
              static_cast<ssize_t>(record.size()));
  };

  write_record(wire::encode_frame("net-test/from-the-future", Bytes{1, 2, 3}));
  Bytes damaged = wire::encode_frame("net-test/from-the-future", Bytes{1, 2, 3});
  damaged.back() ^= 0xff;  // breaks the checksum
  write_record(damaged);
  wire::registry().ensure<PingBody>(kPingHeader);
  write_record(wire::encode_frame(kPingHeader, wire::encode_body(PingBody{41})));

  transport.run_for(200000);
  ::close(fd);

  EXPECT_EQ(received, 41u) << "the valid record behind the rejects must deliver";
  ASSERT_EQ(drops.drops.size(), 2u);
  EXPECT_EQ(drops.drops[0].second, wire::FrameStatus::kUnknownHeader);
  EXPECT_NE(drops.drops[1].second, wire::FrameStatus::kOk);
  EXPECT_EQ(transport.wire_drops(), 2u);
}

}  // namespace
}  // namespace shadow::net
