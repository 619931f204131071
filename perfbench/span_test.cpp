// Unit test of the span join on a synthetic trace whose stage times are
// known. Exits 0 iff every expectation holds.
//
//   .bench_build/cmake/pb_span_test
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/twopc.hpp"
#include "spans.hpp"

namespace {

using namespace shadow;
using obs::EventKind;

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.6f, want %.6f\n", what, got, want);
    ++failures;
  }
}

struct TraceBuilder {
  obs::Trace trace;
  void add(net::Time t, EventKind kind, std::uint32_t node, std::uint32_t client = 0,
           RequestSeq seq = 0, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0) {
    obs::TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.node = NodeId{node};
    e.client = ClientId{client};
    e.seq = seq;
    e.a = a;
    e.b = b;
    e.c = c;
    trace.events.push_back(e);
  }
};

// Node ids: TOB nodes 0..2, replicas 3..5 (pairs by index), client 9.
constexpr std::uint32_t kClient = 9;

}  // namespace

int main() {
  const std::vector<perfbench::NodePair> pairs = {
      {0, NodeId{0}, NodeId{3}}, {0, NodeId{1}, NodeId{4}}, {0, NodeId{2}, NodeId{5}}};
  TraceBuilder tb;

  // Single-group deposit (client 1, seq 1). Replica 4 applies first, so the
  // chain is (tob 1, db 4): stages 10, 20, 35, 10, 15, 50.
  tb.add(100, EventKind::kTxnBegin, kClient, 1, 1);
  tb.add(110, EventKind::kTobBroadcast, 0, 1, 1);
  tb.add(130, EventKind::kTobPropose, 0, 0, 0, /*slot*/ 1, /*batch*/ 3);
  tb.add(160, EventKind::kTobDecide, 0, 0, 0, 1, 3);
  tb.add(165, EventKind::kTobDecide, 1, 0, 0, 1, 3);
  tb.add(170, EventKind::kTobDeliver, 0, 1, 1, 1, 0);
  tb.add(175, EventKind::kTobDeliver, 1, 1, 1, 1, 0);
  tb.add(190, EventKind::kTxnExecute, 4, 1, 1, 0, /*duplicate*/ 0, /*committed*/ 1);
  tb.add(200, EventKind::kTxnExecute, 3, 1, 1, 0, 0, 1);
  tb.add(240, EventKind::kTxnAck, kClient, 1, 1, /*committed*/ 1);

  // Cross-shard transfer (client 2, seq 1) through the 2PC path on the
  // coordinator replica 3: stages 10, 10, 30, 10, 240 (core.xs), 100.
  const std::uint32_t wire = core::kXsBeginBit | 2;
  tb.add(1000, EventKind::kTxnBegin, kClient, 2, 1);
  tb.add(1010, EventKind::kTobBroadcast, 0, wire, 1);
  tb.add(1020, EventKind::kTobPropose, 0, 0, 0, 2, 1);
  tb.add(1050, EventKind::kTobDecide, 0, 0, 0, 2, 1);
  tb.add(1060, EventKind::kTobDeliver, 0, wire, 1, 2, 1);
  tb.add(1060, EventKind::kXsPhase, 3, 2, 1, static_cast<std::uint64_t>(obs::XsPhase::kPrepare));
  tb.add(1300, EventKind::kXsPhase, 3, 2, 1, static_cast<std::uint64_t>(obs::XsPhase::kCommit));
  tb.add(1400, EventKind::kTxnAck, kClient, 2, 1, 1);

  // Snapshot read (client 3): counted, never staged.
  tb.add(2000, EventKind::kTxnBegin, kClient, 3, 1);
  tb.add(2100, EventKind::kRoCut, kClient, 3, 1, 0, 5, 2);
  tb.add(2110, EventKind::kTxnAck, kClient, 3, 1, 1);

  // Committed but never delivered in this trace: uncovered.
  tb.add(3000, EventKind::kTxnBegin, kClient, 4, 1);
  tb.add(3010, EventKind::kTobBroadcast, 0, 4, 1);
  tb.add(3100, EventKind::kTxnAck, kClient, 4, 1, 1);

  // Aborted: not a committed transaction.
  tb.add(4000, EventKind::kTxnBegin, kClient, 5, 1);
  tb.add(4050, EventKind::kTxnAck, kClient, 5, 1, 0);

  // Rejoin stream: the sender (replica 3) begins toward replica 5, which
  // reports done 2.5 ms later.
  tb.add(5000, EventKind::kStateTransfer, 3, 0, 0, static_cast<std::uint64_t>(obs::StatePhase::kBegin), 0, 5);
  tb.add(7500, EventKind::kStateTransfer, 5, 0, 0, static_cast<std::uint64_t>(obs::StatePhase::kDone), 0, 3);
  tb.add(8000, EventKind::kBallot, 0);

  std::ostringstream spans;
  perfbench::SpanReport r = perfbench::join_spans(tb.trace, pairs, &spans);

  expect_near(static_cast<double>(r.committed), 3, "committed");
  expect_near(static_cast<double>(r.covered), 2, "covered");
  expect_near(static_cast<double>(r.ro_committed), 1, "ro_committed");
  expect_near(static_cast<double>(r.cross_shard), 1, "cross_shard");
  expect_near(r.coverage(), 2.0 / 3.0, "coverage");
  const double want_means[perfbench::kStageCount] = {10, 15, 32.5, 10, 127.5, 75};
  for (std::size_t i = 0; i < perfbench::kStageCount; ++i) {
    expect_near(perfbench::mean(r.stages[i]), want_means[i], perfbench::kStageNames[i]);
  }
  // The client timed client 1 (covered, 141 µs by its own clock), client 4
  // (uncovered) and client 7 (not in the trace): only client 1 matches.
  const perfbench::LatencyMatch lm =
      perfbench::match_latencies(r, {{1, 1, 141}, {4, 1, 99}, {7, 1, 5}});
  expect_near(static_cast<double>(lm.matched), 1, "matched");
  expect_near(lm.stage_sum_mean_us, 140, "matched stage sum");
  expect_near(lm.client_mean_us, 141, "matched client latency");
  expect_near(perfbench::mean(r.exec_queue_us), 15, "exec_queue");
  expect_near(perfbench::mean(r.xs_us), 240, "xs");
  expect_near(perfbench::mean(r.batch_sizes), 2, "batch mean");
  expect_near(static_cast<double>(r.ballots), 1, "ballots");
  expect_near(perfbench::mean(r.stream_ms), 2.5, "stream ms");

  std::vector<double> q = {4, 1, 3, 2};
  expect_near(perfbench::quantile(q, 0.5), 2.5, "median");
  expect_near(perfbench::quantile(q, 1.0), 4, "max");
  // Three samples at 10 µs span [9.5, 10.5): the median sits 2/3 into it.
  std::vector<double> g = {12, 10, 10, 10};
  expect_near(perfbench::quantile_us(g, 0.5), 9.5 + 2.0 / 3.0, "grouped median");
  expect_near(perfbench::quantile_us(g, 0.9), 11.5 + 0.6, "grouped p90");

  // One line per committed ordered transaction; the staged ones carry their
  // children and a zero self time (the stages tile the root span).
  std::size_t lines = 0;
  std::size_t missing = 0;
  std::istringstream in(spans.str());
  for (std::string line; std::getline(in, line);) {
    ++lines;
    if (line.find("\"missing\":true") != std::string::npos) ++missing;
    if (line.find("\"client\":1,") != std::string::npos &&
        (line.find("\"self_us\":0,") == std::string::npos ||
         line.find("{\"name\":\"core.exec_queue\",\"start\":175,\"end\":190}") ==
             std::string::npos)) {
      std::fprintf(stderr, "FAIL span line for client 1: %s\n", line.c_str());
      ++failures;
    }
    if (line.find("\"client\":2,") != std::string::npos &&
        line.find("\"name\":\"core.xs\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL span line for client 2: %s\n", line.c_str());
      ++failures;
    }
  }
  expect_near(static_cast<double>(lines), 3, "span lines");
  expect_near(static_cast<double>(missing), 1, "missing span lines");

  if (failures == 0) std::printf("span join: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
