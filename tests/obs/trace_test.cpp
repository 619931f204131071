// Unit tests for the trace recorder: ring-buffer overflow behavior, JSONL
// export/parse round-trip, derived metrics, and World observer attachment.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"
#include "sim/world.hpp"

namespace shadow::obs {
namespace {

TEST(Tracer, RingOverflowKeepsNewestEventsOldestFirst) {
  Tracer tracer({.capacity = 4, .record_messages = true});
  for (std::uint64_t i = 1; i <= 10; ++i) {
    tracer.tob_decide(/*t=*/i * 100, NodeId{1}, /*slot=*/i, /*batch_size=*/1, /*digest=*/i);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);

  const Trace trace = tracer.snapshot();
  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_EQ(trace.dropped, 6u);
  // The survivors are the newest four, materialized oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.events[i].kind, EventKind::kTobDecide);
    EXPECT_EQ(trace.events[i].a, 7 + i);                // slot
    EXPECT_EQ(trace.events[i].time, (7 + i) * 100);     // ascending times
  }
}

TEST(Tracer, SnapshotBeforeOverflowIsComplete) {
  Tracer tracer({.capacity = 16, .record_messages = true});
  tracer.tob_broadcast(5, NodeId{2}, ClientId{7}, 3);
  tracer.on_crash(6, NodeId{2});
  const Trace trace = tracer.snapshot();
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.dropped, 0u);
  EXPECT_EQ(trace.events[0].kind, EventKind::kTobBroadcast);
  EXPECT_EQ(trace.events[0].client.value, 7u);
  EXPECT_EQ(trace.events[0].seq, 3u);
  EXPECT_EQ(trace.events[1].kind, EventKind::kCrash);
}

TEST(Trace, JsonlRoundTripPreservesEventsAndLabels) {
  Tracer tracer;
  tracer.txn_begin(10, NodeId{9}, ClientId{1}, 1, "deposit");
  tracer.txn_execute(40, NodeId{3}, ClientId{1}, 1, /*order=*/0, /*duplicate=*/false,
                     /*committed=*/true, "deposit");
  tracer.txn_execute(41, NodeId{4}, ClientId{1}, 1, kUnordered, /*duplicate=*/true,
                     /*committed=*/true, "deposit");
  tracer.txn_ack(60, NodeId{9}, ClientId{1}, 1, /*committed=*/true);
  tracer.ballot(70, NodeId{3}, /*round=*/2, NodeId{4}, BallotPhase::kPreempted);
  tracer.state_transfer(80, NodeId{5}, StatePhase::kBatch, /*bytes=*/51200, NodeId{3});
  tracer.recover(90, NodeId{5}, /*up_to_order=*/17);
  tracer.promise(95, NodeId{3}, /*round=*/2, NodeId{4}, /*acceptors=*/3);
  tracer.accept(96, NodeId{3}, /*slot=*/8, /*round=*/2, NodeId{4}, /*digest=*/~0ull);

  const Trace original = tracer.snapshot();
  std::ostringstream out;
  export_jsonl(original, out);

  std::istringstream in(out.str());
  const Trace parsed = parse_jsonl(in);

  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    const TraceEvent& a = original.events[i];
    const TraceEvent& b = parsed.events[i];
    EXPECT_EQ(a.time, b.time) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(a.client, b.client) << "event " << i;
    EXPECT_EQ(a.seq, b.seq) << "event " << i;
    EXPECT_EQ(a.a, b.a) << "event " << i;
    EXPECT_EQ(a.b, b.b) << "event " << i;
    EXPECT_EQ(a.c, b.c) << "event " << i;
    EXPECT_EQ(original.label_of(a), parsed.label_of(b)) << "event " << i;
  }
  // The kUnordered sentinel survives the round trip exactly.
  EXPECT_EQ(parsed.events[2].a, kUnordered);
  EXPECT_EQ(parsed.events.back().kind, EventKind::kAccept);
  EXPECT_EQ(parsed.events.back().b, ballot_key(2, NodeId{4}));
  EXPECT_EQ(parsed.label_of(parsed.events[0]), "deposit");
}

TEST(Trace, JsonlEscapesLabelCharacters) {
  Tracer tracer;
  tracer.txn_begin(1, NodeId{1}, ClientId{1}, 1, "odd \"proc\"\\name\n\ttab");
  std::ostringstream out;
  export_jsonl(tracer.snapshot(), out);
  std::istringstream in(out.str());
  const Trace parsed = parse_jsonl(in);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.label_of(parsed.events[0]), "odd \"proc\"\\name\n\ttab");
}

TEST(Trace, ParseRejectsMalformedLines) {
  {
    std::istringstream in("{\"t\":1,\"node\":2}\n");  // missing kind
    EXPECT_THROW(parse_jsonl(in), std::runtime_error);
  }
  {
    std::istringstream in("{\"t\":1,\"kind\":\"no-such-kind\",\"node\":2}\n");
    EXPECT_THROW(parse_jsonl(in), std::runtime_error);
  }
  {
    std::istringstream in("{\"kind\":\"crash\",\"node\":2}\n");  // missing time
    EXPECT_THROW(parse_jsonl(in), std::runtime_error);
  }
}

TEST(Tracer, DerivesComponentMetricsFromHooks) {
  Tracer tracer;
  tracer.tob_propose(100, NodeId{0}, /*slot=*/0, /*batch_size=*/4, /*digest=*/0xa);
  tracer.tob_decide(350, NodeId{0}, /*slot=*/0, /*batch_size=*/4, /*digest=*/0xa);
  tracer.tob_decide(360, NodeId{1}, /*slot=*/0, /*batch_size=*/4, 0xa);  // other learner
  tracer.txn_begin(1000, NodeId{9}, ClientId{1}, 1, "deposit");
  tracer.txn_ack(1500, NodeId{9}, ClientId{1}, 1, /*committed=*/true);
  tracer.txn_execute(1200, NodeId{2}, ClientId{1}, 1, 0, /*duplicate=*/true,
                     /*committed=*/true, "deposit");

  MetricsRegistry& m = tracer.metrics();
  EXPECT_EQ(m.counter("tob.proposals").value(), 1u);
  EXPECT_EQ(m.counter("tob.decisions").value(), 1u);  // counted once per slot
  EXPECT_EQ(m.counter("txn.committed").value(), 1u);
  EXPECT_EQ(m.counter("txn.duplicates_suppressed").value(), 1u);
  // Decide latency measured from the first propose to the first decide.
  ASSERT_EQ(m.histogram("tob.decide_latency_us").count(), 1u);
  EXPECT_EQ(m.histogram("tob.decide_latency_us").sum(), 250u);
  // End-to-end transaction latency from begin to committed ack.
  ASSERT_EQ(m.histogram("txn.latency_us").count(), 1u);
  EXPECT_EQ(m.histogram("txn.latency_us").sum(), 500u);
  EXPECT_EQ(m.histogram("txn.latency_us").percentile(0.0), 500u);  // the minimum
  EXPECT_EQ(m.histogram("tob.batch_size").max(), 4u);
  // The formatted block mentions every touched metric.
  const std::string block = m.format();
  EXPECT_NE(block.find("tob.decide_latency_us"), std::string::npos);
  EXPECT_NE(block.find("txn.committed"), std::string::npos);
}

TEST(Tracer, AttachedToWorldRecordsNetworkAndCrashes) {
  sim::World world(1);
  Tracer tracer({.capacity = 1024, .record_messages = true});
  tracer.attach(world);

  const NodeId a = world.add_node("a");
  const NodeId b = world.add_node("b");
  world.set_handler(b, [](net::NodeContext&, const sim::Message&) {});
  const sim::Message ping = sim::make_msg("ping", std::string("x"));
  const std::size_t ping_bytes = ping.wire_size;
  EXPECT_EQ(ping_bytes,
            wire::frame_size(4, wire::body_size(std::string("x"))));  // exact, not estimated
  world.post(a, b, ping);
  world.run_until(1000000);
  world.crash(b);

  EXPECT_EQ(tracer.metrics().counter("net.messages").value(), 1u);
  EXPECT_EQ(tracer.metrics().counter("net.bytes").value(), ping_bytes);
  EXPECT_EQ(tracer.metrics().counter("net.bytes.ping").value(), ping_bytes);
  EXPECT_EQ(tracer.metrics().counter("replica.crashes").value(), 1u);

  const Trace trace = tracer.snapshot();
  bool saw_send = false;
  bool saw_deliver = false;
  bool saw_crash = false;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == EventKind::kMsgSend) {
      saw_send = true;
      EXPECT_EQ(trace.label_of(e), "ping");
      EXPECT_EQ(e.node, a);
      EXPECT_EQ(e.a, b.value);
      EXPECT_EQ(e.b, ping_bytes);
    }
    if (e.kind == EventKind::kMsgDeliver) {
      saw_deliver = true;
      EXPECT_EQ(e.node, b);
    }
    if (e.kind == EventKind::kCrash) {
      saw_crash = true;
      EXPECT_EQ(e.node, b);
    }
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_crash);
}

TEST(Tracer, RecordMessagesOffStillCountsNetworkMetrics) {
  sim::World world(1);
  Tracer tracer({.capacity = 1024, .record_messages = false});
  tracer.attach(world);

  const NodeId a = world.add_node("a");
  const NodeId b = world.add_node("b");
  world.set_handler(b, [](net::NodeContext&, const sim::Message&) {});
  world.post(a, b, sim::make_msg("ping", std::string("x")));
  world.run_until(1000000);

  EXPECT_EQ(tracer.metrics().counter("net.messages").value(), 1u);
  for (const TraceEvent& e : tracer.snapshot().events) {
    EXPECT_NE(e.kind, EventKind::kMsgSend);
    EXPECT_NE(e.kind, EventKind::kMsgDeliver);
  }
}

}  // namespace
}  // namespace shadow::obs
