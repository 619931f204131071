// Component microbenchmarks (google-benchmark, real time — not simulated):
// the building blocks whose virtual-time cost models the paper-reproduction
// benches rely on. These measure the *implementation's* real speed: DSL
// interpretation tiers, engine operations, lock manager, snapshot
// serialization, and one full simulated consensus round.
#include <benchmark/benchmark.h>

#include "sim/world.hpp"
#include "consensus/safety.hpp"
#include "db/engine.hpp"
#include "db/sql.hpp"
#include "eventml/compile.hpp"
#include "eventml/optimizer.hpp"
#include "eventml/specs/clk.hpp"
#include "tob/tob.hpp"

namespace {

using namespace shadow;

// ---------------------------------------------------------------- EventML --

eventml::Spec clk_spec() {
  return eventml::specs::make_clk_spec(
      {{NodeId{0}},
       [](NodeId, const eventml::ValuePtr& v) { return std::make_pair(v, NodeId{0}); }});
}

void BM_DslInterpretMessage(benchmark::State& state) {
  const eventml::Spec spec = clk_spec();
  eventml::Instance instance(spec.main, NodeId{0});
  const eventml::ValuePtr body =
      eventml::specs::clk_msg_body(eventml::Value::integer(1), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.on_event(eventml::specs::kClkMsgHeader, body));
  }
}
BENCHMARK(BM_DslInterpretMessage);

void BM_DslInterpretMessageOptimized(benchmark::State& state) {
  const eventml::Spec spec = clk_spec();
  eventml::Instance instance(eventml::optimize(spec.main).root, NodeId{0});
  const eventml::ValuePtr body =
      eventml::specs::clk_msg_body(eventml::Value::integer(1), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.on_event(eventml::specs::kClkMsgHeader, body));
  }
}
BENCHMARK(BM_DslInterpretMessageOptimized);

void BM_DslWorklistInterpreter(benchmark::State& state) {
  const eventml::Spec spec = clk_spec();
  eventml::Instance instance(spec.main, NodeId{0}, eventml::InterpreterKind::kWorklist);
  const eventml::ValuePtr body =
      eventml::specs::clk_msg_body(eventml::Value::integer(1), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.on_event(eventml::specs::kClkMsgHeader, body));
  }
}
BENCHMARK(BM_DslWorklistInterpreter);

void BM_OptimizerPass(benchmark::State& state) {
  const eventml::Spec spec = clk_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eventml::optimize(spec.main));
  }
}
BENCHMARK(BM_OptimizerPass);

// ------------------------------------------------------------------ engine --

db::TableSchema bench_schema() {
  return {"t",
          {{"k", db::ColumnType::kBigInt}, {"v", db::ColumnType::kBigInt},
           {"s", db::ColumnType::kVarchar}},
          {0}};
}

void BM_EnginePointRead(benchmark::State& state) {
  db::Engine engine(db::make_h2_traits());
  engine.create_table(bench_schema());
  const db::TxnId setup = engine.begin();
  for (std::int64_t k = 0; k < 10000; ++k) {
    engine.execute(setup, db::make_insert("t", {db::Value(k), db::Value(k), db::Value("x")}));
  }
  engine.commit(setup);
  std::int64_t k = 0;
  for (auto _ : state) {
    const db::TxnId txn = engine.begin();
    benchmark::DoNotOptimize(engine.execute(txn, db::make_select("t", {db::Value(k)})));
    engine.commit(txn);
    k = (k + 7919) % 10000;
  }
}
BENCHMARK(BM_EnginePointRead);

void BM_EngineUpdateCommit(benchmark::State& state) {
  db::Engine engine(db::make_h2_traits());
  engine.create_table(bench_schema());
  const db::TxnId setup = engine.begin();
  for (std::int64_t k = 0; k < 10000; ++k) {
    engine.execute(setup, db::make_insert("t", {db::Value(k), db::Value(k), db::Value("x")}));
  }
  engine.commit(setup);
  std::int64_t k = 0;
  for (auto _ : state) {
    const db::TxnId txn = engine.begin();
    engine.execute(txn, db::make_update("t", {db::Value(k)},
                                        {{1, db::SetOp::kAdd, db::Value(1)}}));
    engine.commit(txn);
    k = (k + 7919) % 10000;
  }
}
BENCHMARK(BM_EngineUpdateCommit);

void BM_EngineRangeScan(benchmark::State& state) {
  db::Engine engine(db::make_h2_traits());
  db::TableSchema schema{"t2",
                         {{"a", db::ColumnType::kBigInt}, {"b", db::ColumnType::kBigInt}},
                         {0, 1}};
  engine.create_table(schema);
  const db::TxnId setup = engine.begin();
  for (std::int64_t a = 0; a < 100; ++a) {
    for (std::int64_t b = 0; b < 100; ++b) {
      engine.execute(setup, db::make_insert("t2", {db::Value(a), db::Value(b)}));
    }
  }
  engine.commit(setup);
  for (auto _ : state) {
    const db::TxnId txn = engine.begin();
    benchmark::DoNotOptimize(engine.execute(
        txn, db::make_scan("t2", {db::Condition{0, db::CmpOp::kEq, db::Value(42)}})));
    engine.commit(txn);
  }
}
BENCHMARK(BM_EngineRangeScan);

void BM_SqlParsePointSelect(benchmark::State& state) {
  const db::TableSchema schema = bench_schema();
  const auto lookup = [&schema](const std::string& name) {
    return name == "t" ? &schema : nullptr;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::parse_sql("SELECT v, s FROM t WHERE k = 123", lookup));
  }
}
BENCHMARK(BM_SqlParsePointSelect);

void BM_SnapshotSerialize50k(benchmark::State& state) {
  db::Engine engine(db::make_h2_traits());
  engine.create_table(bench_schema());
  const db::TxnId setup = engine.begin();
  for (std::int64_t k = 0; k < 50000; ++k) {
    engine.execute(setup, db::make_insert("t", {db::Value(k), db::Value(k), db::Value("x")}));
  }
  engine.commit(setup);
  for (auto _ : state) {
    std::size_t bytes = 0;
    engine.serialize_rows(50 * 1024, {}, [&](db::Engine::SnapshotBatch&& batch) {
      bytes += batch.data.size();
    });
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_SnapshotSerialize50k)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- batch payload --

consensus::Batch batch64() {
  consensus::Batch batch;
  for (std::uint64_t i = 0; i < 64; ++i) {
    batch.push_back(consensus::Command{ClientId{1}, i + 1, std::string(140, 'x')});
  }
  return batch;
}

void BM_BatchEncode64(benchmark::State& state) {
  // The one serialization a batch pays in its lifetime: 64 commands of 140
  // bytes, structured form -> encoded sub-frame.
  const consensus::Batch batch = batch64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::EncodedBatch{batch});
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(consensus::EncodedBatch{batch64()}.payload_size()));
}
BENCHMARK(BM_BatchEncode64);

void BM_BatchFrame64(benchmark::State& state) {
  // What every further hop pays instead: framing the already-encoded batch
  // copies its payload into the frame's buffer (relay, re-propose, deliver).
  const consensus::EncodedBatch encoded{batch64()};
  for (auto _ : state) {
    BytesWriter w;
    wire::Codec<consensus::EncodedBatch>::encode(w, encoded);
    benchmark::DoNotOptimize(w.take());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.payload_size()));
}
BENCHMARK(BM_BatchFrame64);

// ------------------------------------------------------------- distributed --

void BM_SimulatedPaxosBroadcast(benchmark::State& state) {
  // Real-time cost of simulating one full broadcast (≈40 simulation events).
  for (auto _ : state) {
    sim::World world(1);
    tob::TobConfig config;
    for (int i = 0; i < 3; ++i) {
      config.nodes.push_back(world.add_node("tob" + std::to_string(i)));
    }
    tob::TobService service = tob::make_service(world, config);
    const NodeId client = world.add_node("client");
    world.set_handler(client, [](net::NodeContext&, const sim::Message&) {});
    world.post(client, config.nodes[0],
               sim::make_msg(tob::kBroadcastHeader,
                             tob::BroadcastBody{tob::Command{ClientId{1}, 1, "x"}}));
    world.run_until(1000000);
    benchmark::DoNotOptimize(service.nodes[0]->delivered_count());
  }
}
BENCHMARK(BM_SimulatedPaxosBroadcast)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
