// Layer micro-timings: each public call the cluster's hot path makes, timed
// in-process from the benchmark's own code. Every figure is the median of
// several repetitions. Prints one "RESULT {json}" line.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_ring.hpp"
#include "core/codecs.hpp"
#include "core/replica_common.hpp"
#include "core/smr.hpp"
#include "db/lock_manager.hpp"
#include "net/tcp_transport.hpp"
#include "repl/state_transfer.hpp"
#include "sim/world.hpp"
#include "spans.hpp"
#include "tob/tob.hpp"
#include "wire/framing.hpp"
#include "workloads.hpp"

namespace shadow::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median over `reps` repetitions of the per-call time (ns) of `iters` calls.
template <typename F>
double per_call_ns(std::size_t iters, F&& call, int reps = 5) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) call(i);
    samples.push_back(seconds_since(start) * 1e9 / static_cast<double>(iters));
  }
  return quantile(samples, 0.5);
}

workload::TxnRequest deposit_request(RequestSeq seq) {
  return workload::TxnRequest{ClientId{1}, seq, NodeId{9}, workload::bank::kDepositProc,
                              workload::Params{db::Value(std::int64_t{42}),
                                               db::Value(std::int64_t{7})}};
}

void add(std::string& out, const char* name, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", out.size() > 1 ? "," : "", name, value);
  out += buf;
}

/// SpscRing push → pop across two threads, as one hand-off of a ping-pong.
double ring_handoff_ns() {
  constexpr std::size_t kRounds = 20000;
  std::vector<double> samples;
  for (int r = 0; r < 5; ++r) {
    SpscRing<std::uint64_t> there(64);
    SpscRing<std::uint64_t> back(64);
    std::thread echo([&] {
      while (std::optional<std::uint64_t> v = there.pop()) back.push(*v);
    });
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      there.push(i);
      benchmark::DoNotOptimize(*back.pop());
    }
    samples.push_back(seconds_since(start) * 1e9 / (2.0 * kRounds));
    there.close();
    echo.join();
  }
  return quantile(samples, 0.5);
}

/// Round trip of one small message between two TcpTransports over loopback.
double loopback_rtt_us() {
  net::TcpOptions base;
  base.hosts = {net::TcpHostAddr{"127.0.0.1", 0}, net::TcpHostAddr{"127.0.0.1", 0}};
  base.epoch = Clock::time_point{};
  net::TcpOptions oa = base;
  net::TcpOptions ob = base;
  oa.local_host = 0;
  ob.local_host = 1;
  net::TcpTransport ta(oa);
  net::TcpTransport tb(ob);
  if (!ta.start() || !tb.start()) return 0.0;
  ta.set_host_port(net::HostId{1}, tb.listen_port());
  tb.set_host_port(net::HostId{0}, ta.listen_port());
  NodeId a{};
  NodeId b{};
  for (net::TcpTransport* t : {&ta, &tb}) {
    const net::HostId h0 = t->add_host();
    const net::HostId h1 = t->add_host();
    a = t->add_node("ping", h0);
    b = t->add_node("pong", h1);
  }
  std::uint64_t answered = 0;
  ta.set_handler(a, [&answered](net::NodeContext&, const net::Message&) { ++answered; });
  tb.set_handler(b, [a](net::NodeContext& ctx, const net::Message& m) {
    ctx.send(a, net::make_msg(tob::kAckHeader, net::msg_body<tob::AckBody>(m)));
  });
  std::vector<double> rtts;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const auto start = Clock::now();
    ta.post(a, b, net::make_msg(tob::kAckHeader, tob::AckBody{ClientId{1}, i, 0}));
    const std::uint64_t want = answered + 1;
    while (answered < want) {
      ta.poll_once(0);
      tb.poll_once(0);
      if (seconds_since(start) > 2.0) return 0.0;
    }
    if (i >= 200) rtts.push_back(seconds_since(start) * 1e6);  // skip connection set-up
  }
  ta.shutdown();
  tb.shutdown();
  return quantile(rtts, 0.5);
}

/// core::TxnExecutor::execute per procedure (µs, median of single calls).
void exec_timings(std::string& out) {
  const auto registry = make_registry();
  const auto time_calls = [](std::size_t n, const auto& next, core::TxnExecutor& ex,
                             RequestSeq& seq) {
    std::vector<double> us;
    for (std::size_t i = 0; i < n; ++i) {
      workload::TxnRequest req = next();
      req.client = ClientId{1};
      req.seq = ++seq;
      const auto start = Clock::now();
      const core::TxnExecutor::Execution e = ex.execute(req);
      us.push_back(seconds_since(start) * 1e6);
      benchmark::DoNotOptimize(e.response.committed ? 1 : 0);
    }
    return quantile(us, 0.5);
  };

  auto bank = std::make_shared<db::Engine>(db::make_h2_traits());
  workload::bank::load(*bank, workload::bank::BankConfig{1000, 0});
  core::TxnExecutor bank_ex(bank, registry);
  Rng rng(11);
  RequestSeq seq = 0;
  const auto bank_req = [&rng](const char* proc) {
    const auto from = static_cast<std::int64_t>(rng.uniform(0, 998));
    workload::Params p = std::string(proc) == workload::bank::kDepositProc
                             ? workload::Params{db::Value(from), db::Value(std::int64_t{5})}
                             : workload::Params{db::Value(from), db::Value(from + 1),
                                                db::Value(std::int64_t{1})};
    return workload::TxnRequest{ClientId{1}, 0, NodeId{9}, proc, std::move(p)};
  };
  add(out, "db.exec_us.bank.deposit",
      time_calls(20000, [&] { return bank_req(workload::bank::kDepositProc); }, bank_ex, seq));
  add(out, "db.exec_us.bank.transfer",
      time_calls(20000, [&] { return bank_req(workload::bank::kTransferProc); }, bank_ex, seq));

  auto tpcc = std::make_shared<db::Engine>(db::make_h2_traits());
  workload::tpcc::load(*tpcc, tpcc_config(), 3);
  core::TxnExecutor tpcc_ex(tpcc, registry);
  workload::tpcc::TxnGenerator gen(tpcc_config(), 77);
  using Gen = workload::tpcc::TxnGenerator;
  const std::pair<const char*, Gen::Txn (Gen::*)()> procs[] = {
      {"db.exec_us.tpcc.new_order", &Gen::next_new_order},
      {"db.exec_us.tpcc.payment", &Gen::next_payment},
      {"db.exec_us.tpcc.order_status", &Gen::next_order_status},
      {"db.exec_us.tpcc.delivery", &Gen::next_delivery},
      {"db.exec_us.tpcc.stock_level", &Gen::next_stock_level},
  };
  for (const auto& [name, next] : procs) {
    const auto make = [&gen, next = next] {
      Gen::Txn t = (gen.*next)();
      return workload::TxnRequest{ClientId{1}, 0, NodeId{9}, t.proc, std::move(t.params)};
    };
    add(out, name, time_calls(300, make, tpcc_ex, seq));
  }
}

/// Engine::read_at of a key whose version chain holds `chain` entries, read
/// at the version just before the last overwrite (the deepest chain entry).
double read_at_ns(std::size_t chain) {
  db::Engine engine(db::make_h2_traits());
  workload::bank::load(engine, workload::bank::BankConfig{1000, 0});
  const std::uint64_t reader = engine.register_reader(0);
  for (std::size_t v = 1; v <= chain; ++v) {
    engine.set_state_version(v);
    const db::TxnId txn = engine.begin();
    engine.execute(txn, db::make_update(workload::bank::kTable, {db::Value(std::int64_t{0})},
                                        {{2, db::SetOp::kAdd, db::Value(std::int64_t{1})}}));
    engine.commit(txn);
  }
  const db::Statement read = db::make_select(workload::bank::kTable, {db::Value(std::int64_t{0})});
  const double ns = per_call_ns(100000, [&](std::size_t) {
    benchmark::DoNotOptimize(engine.read_at(read, chain - 1).rows.size());
  });
  engine.release_reader(reader);
  return ns;
}

/// LockManager::acquire of one exclusive row lock plus its release.
double lock_ns() {
  db::LockManager locks;
  std::vector<db::LockTarget> targets;
  for (std::int64_t k = 0; k < 1000; ++k) {
    targets.push_back(db::LockTarget{workload::bank::kTable, db::Key{db::Value(k)}});
  }
  db::TxnId txn = 0;
  return per_call_ns(200000, [&](std::size_t i) {
    ++txn;
    benchmark::DoNotOptimize(
        locks.acquire(txn, targets[i % targets.size()], db::LockMode::kExclusive, 0));
    benchmark::DoNotOptimize(locks.release_all(txn).size());
  });
}

/// Full uncompressed v2 stream of a 100,000-account bank (40-byte owners,
/// a ~7 MB snapshot) between two
/// nodes of an in-process simulated world (wire encode/decode on).
double full_stream_mb_s() {
  db::Engine source(db::make_h2_traits());
  workload::bank::load(source, workload::bank::BankConfig{100000, 40});
  std::vector<double> mbs;
  for (int r = 0; r < 3; ++r) {
    sim::World world(1);
    world.set_wire_fidelity(true);
    db::Engine target(db::make_h2_traits());
    const NodeId sender = world.add_node("sender");
    const NodeId receiver = world.add_node("receiver");
    repl::StateTransfer::Receiver rx({nullptr, receiver});
    bool done = false;
    world.set_handler(receiver, [&](net::NodeContext& ctx, const net::Message& m) {
      if (m.header == core::kSnapBegin2Header) {
        rx.begin_v2(target, net::msg_body<repl::SnapBegin2Body>(m));
      } else if (m.header == core::kSnapBatch2Header) {
        rx.on_batch2(ctx, target, net::msg_body<repl::SnapBatch2Body>(m), m.from);
      } else if (m.header == core::kSnapDelete2Header) {
        rx.on_delete2(ctx, target, net::msg_body<repl::SnapDelete2Body>(m));
      } else if (m.header == core::kSnapDone2Header) {
        done = rx.complete(net::msg_body<repl::SnapDone2Body>(m));
        rx.finish(target);
      }
    });
    repl::SendStats stats;
    world.set_handler(sender, [&](net::NodeContext& ctx, const net::Message&) {
      repl::StateTransfer::SendV2 spec;
      spec.headers = {core::kSnapBegin2Header, core::kSnapBatch2Header, core::kSnapDone2Header,
                      core::kSnapDelete2Header};
      stats = repl::StateTransfer::send_v2(ctx, source, receiver, spec);
    });
    const auto start = Clock::now();
    world.post(receiver, sender, net::make_signal("go"));
    world.run_until(world.now() + 600ull * 1000 * 1000);
    const double secs = seconds_since(start);
    if (!done || target.state_digest() != source.state_digest()) return 0.0;
    mbs.push_back(static_cast<double>(stats.raw_bytes) / 1e6 / secs);
  }
  return quantile(mbs, 0.5);
}

}  // namespace

int run_micro() {
  core::register_wire_codecs();
  std::string out = "{";

  const workload::TxnRequest req = deposit_request(1);
  const std::string payload = workload::encode_request(req);
  add(out, "wire.request_encode_ns", per_call_ns(200000, [&](std::size_t i) {
        benchmark::DoNotOptimize(workload::encode_request(deposit_request(i)).size());
      }));
  add(out, "wire.request_decode_ns", per_call_ns(200000, [&](std::size_t) {
        benchmark::DoNotOptimize(workload::decode_request(payload).seq);
      }));

  consensus::Batch batch;
  for (std::uint64_t i = 0; i < 64; ++i) {
    batch.push_back(consensus::Command{ClientId{1}, i + 1, workload::encode_request(deposit_request(i + 1))});
  }
  add(out, "wire.batch64_encode_ns", per_call_ns(20000, [&](std::size_t) {
        benchmark::DoNotOptimize(consensus::EncodedBatch{batch}.payload_size());
      }));

  const Bytes body = wire::encode_body(tob::BroadcastBody{tob::Command{ClientId{1}, 1, payload}});
  const Bytes frame = wire::encode_frame(tob::kBroadcastHeader, body);
  add(out, "wire.frame_decode_ns", per_call_ns(200000, [&](std::size_t) {
        wire::FrameView view;
        benchmark::DoNotOptimize(wire::decode_frame(frame, view));
        benchmark::DoNotOptimize(view.body.size());
      }));

  add(out, "common.ring_handoff_ns", ring_handoff_ns());
  add(out, "net.loopback_rtt_us", loopback_rtt_us());
  exec_timings(out);
  add(out, "db.read_at_ns.chain1", read_at_ns(1));
  add(out, "db.read_at_ns.chain64", read_at_ns(64));
  add(out, "db.lock_acquire_ns", lock_ns());
  add(out, "repl.full_stream_mb_s", full_stream_mb_s());
  out += "}";
  std::printf("RESULT %s\n", out.c_str());
  return 0;
}

}  // namespace shadow::perfbench
