// The benchmark's cluster process and its offline tools.
//
//   pb_node server  --workload W --host H --ports P0,P1,P2,P3 --seed S
//                   [--trace FILE] [--rejoin --epoch E]
//   pb_node client  --workload W --ports ... --seed S [--trace FILE --latencies FILE]
//                   [--setup-only] --open-warmup-ms A --open-ms B --open-parts N
//                   --warmup-ms C --window-ms D --window-parts M
//   pb_node analyze --pairs G:TOB:DB[,...] [--spans FILE] [--latencies FILE] TRACE...
//   pb_node micro
//
// Every cluster process binds its port, prints "LISTEN", and waits for one
// line on stdin before assembling, so no process connects to a peer that is
// not listening yet. Progress goes to stdout as "MARK <what> <µs>" lines
// (CLOCK_MONOTONIC, the driver's clock too); each process ends with one
// "RESULT {json}" line. A server runs until SIGTERM, then lets the last
// deliveries land, quiesces its replicas and reports their digests and the
// output checks' inputs. perfbench/run.py drives all of this.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/checker.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace shadow::perfbench {
int run_micro();
}

namespace {

using namespace shadow;
using namespace shadow::perfbench;

volatile std::sig_atomic_t g_stop = 0;
void on_term(int) { g_stop = 1; }

struct Args {
  std::string mode;
  std::string workload;
  std::uint32_t host = 0;
  std::vector<std::uint16_t> ports;
  std::uint64_t seed = 1;
  std::string trace_path;
  std::string latencies_path;
  bool rejoin = false;
  std::uint64_t epoch = 0;
  bool setup_only = false;
  std::uint64_t open_warmup_ms = 500;
  std::uint64_t open_ms = 0;  // 0: no open-loop phase
  std::uint64_t warmup_ms = 1000;
  std::uint64_t window_ms = 6000;
  std::size_t open_parts = 1;
  std::size_t window_parts = 6;
  std::string pairs;
  std::string spans_path;
  std::vector<std::string> files;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "pb_node: %s (see the header of perfbench/node.cpp)\n", why);
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    out.push_back(s.substr(start, end == std::string::npos ? std::string::npos : end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing mode");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    const auto number = [&]() { return std::strtoull(value().c_str(), nullptr, 10); };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--host") {
      a.host = static_cast<std::uint32_t>(number());
    } else if (flag == "--ports") {
      for (const std::string& p : split(value(), ',')) {
        a.ports.push_back(static_cast<std::uint16_t>(std::strtoul(p.c_str(), nullptr, 10)));
      }
    } else if (flag == "--seed") {
      a.seed = number();
    } else if (flag == "--trace") {
      a.trace_path = value();
    } else if (flag == "--latencies") {
      a.latencies_path = value();
    } else if (flag == "--rejoin") {
      a.rejoin = true;
    } else if (flag == "--epoch") {
      a.epoch = number();
    } else if (flag == "--setup-only") {
      a.setup_only = true;
    } else if (flag == "--open-warmup-ms") {
      a.open_warmup_ms = number();
    } else if (flag == "--open-ms") {
      a.open_ms = number();
    } else if (flag == "--warmup-ms") {
      a.warmup_ms = number();
    } else if (flag == "--window-ms") {
      a.window_ms = number();
    } else if (flag == "--open-parts") {
      a.open_parts = std::max<std::size_t>(1, number());
    } else if (flag == "--window-parts") {
      a.window_parts = std::max<std::size_t>(1, number());
    } else if (flag == "--pairs") {
      a.pairs = value();
    } else if (flag == "--spans") {
      a.spans_path = value();
    } else if (flag.rfind("--", 0) == 0) {
      usage(("unknown flag " + flag).c_str());
    } else {
      a.files.push_back(flag);
    }
  }
  return a;
}

std::uint64_t mono_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void mark(const char* what, std::uint64_t t) {
  std::printf("MARK %s %llu\n", what, static_cast<unsigned long long>(t));
  std::fflush(stdout);
}

/// Blocks until the driver's "go" line (or EOF) arrives on stdin.
void wait_for_go() {
  char line[64];
  static_cast<void>(std::fgets(line, sizeof(line), stdin));
}

/// Latency summary: count, mean, and the percentiles the driver turns into
/// metrics (it picks the highest one with at least 10 samples beyond).
/// `whole_us`: the samples are whole microseconds (see quantile_us).
std::string summary(std::vector<double> v, bool whole_us = true) {
  std::sort(v.begin(), v.end());
  const auto q = [&v, whole_us](double p) { return whole_us ? quantile_us(v, p) : quantile(v, p); };
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"n\":%zu,\"mean\":%.17g,\"p50\":%.17g,\"p99\":%.17g,\"p999\":%.17g,"
                "\"p9999\":%.17g,\"max\":%.17g}",
                v.size(), mean(v), q(0.5), q(0.99), q(0.999), q(0.9999),
                v.empty() ? 0.0 : v.back());
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Semantic aborts are transaction outcomes (TPC-C's 1% invalid-item
/// rollback, an overdraft), not failures of the system.
bool semantic_abort(const workload::TxnResponse& r) {
  return !r.committed && r.error == "rolled back by transaction logic";
}

// -------------------------------------------------------------- server --

int run_server(const Args& a, const Workload& w) {
  auto transport = make_transport(a.host, a.ports, a.seed);
  if (!transport) {
    std::fprintf(stderr, "host %u: cannot bind port %u\n", a.host, a.ports[a.host]);
    return 3;
  }
  std::printf("LISTEN %u\n", a.host);
  std::fflush(stdout);
  wait_for_go();

  std::unique_ptr<obs::Tracer> tracer;
  if (!a.trace_path.empty()) {
    tracer = std::make_unique<obs::Tracer>(
        obs::TracerOptions{.capacity = 1 << 21, .record_messages = false});
  }
  Cluster cluster;
  cluster.transport = std::move(transport);
  net::TcpTransport& t = *cluster.transport;
  assemble(cluster, w, a.host, tracer.get(), a.epoch);

  if (a.rejoin) {
    // A restarted incarnation: pause the TOB node of every group, fetch a
    // snapshot from host 0's replica, resume mid-stream. The rejoin seq must
    // be unique per incarnation: the shared monotonic clock in µs.
    const RequestSeq seq = mono_us();
    for (core::ReplicationGroup* g : cluster.groups) {
      g->replicas[a.host]->start_rejoin(g->tob_nodes[0], g->replica_nodes[0], seq);
    }
  }
  if (!t.start_pipeline()) {
    std::fprintf(stderr, "host %u: start_pipeline failed\n", a.host);
    return 3;
  }

  bool rejoined = !a.rejoin;
  while (g_stop == 0) {
    t.poll_once(2000);
    if (!rejoined) {
      // Active again: the snapshot is installed and the TOB node resumed
      // delivering to the replica, in every group.
      bool all = true;
      for (core::ReplicationGroup* g : cluster.groups) all = all && g->replicas[a.host]->active();
      if (all) {
        rejoined = true;
        mark("rejoined", t.now());
      }
    }
  }
  // Every client transaction has been answered; let the slowest replica
  // apply the tail, then stop the pipeline and the I/O thread.
  t.run_for(300000);
  for (core::ReplicationGroup* g : cluster.groups) g->replicas[a.host]->quiesce();
  t.shutdown();

  std::string out = "{\"host\":" + std::to_string(a.host) +
                    ",\"epoch\":" + std::to_string(a.epoch) +
                    ",\"rejoined\":" + (rejoined ? "true" : "false") + ",\"groups\":[";
  for (std::size_t i = 0; i < cluster.groups.size(); ++i) {
    core::ReplicationGroup& g = *cluster.groups[i];
    core::SmrReplica& r = *g.replicas[a.host];
    out += (i ? "," : "");
    out += "{\"group\":" + std::to_string(g.id) + ",\"tob\":" +
           std::to_string(g.tob_nodes[a.host].value) + ",\"db\":" +
           std::to_string(g.replica_nodes[a.host].value) + ",\"digest\":\"" +
           hex(r.state_digest()) + "\",\"executed\":" + std::to_string(r.executed());
    if (w.tpcc) {
      std::string detail;
      const bool ok = workload::tpcc::check_consistency(r.engine(), tpcc_config(), &detail);
      out += std::string(",\"tpcc_consistent\":") + (ok ? "true" : "false");
    } else {
      out += ",\"bank_total\":" + std::to_string(workload::bank::total_balance(r.engine()));
    }
    out += "}";
  }
  out += "],\"messages_delivered\":" + std::to_string(t.messages_delivered()) +
         ",\"writev_calls\":" + std::to_string(t.writev_calls()) +
         ",\"writev_records\":" + std::to_string(t.writev_records()) +
         ",\"reconnect_attempts\":" + std::to_string(t.reconnect_attempts()) +
         ",\"batch_bytes_copied\":" +
         std::to_string(splice_stats().batch_bytes_copied.load(std::memory_order_relaxed));
  if (tracer) {
    std::uint64_t depth_p99 = 0;
    for (const auto& [name, h] : tracer->metrics().histograms()) {
      if (name.size() >= 20 && name.compare(name.size() - 20, 20, "pipeline.queue_depth") == 0) {
        depth_p99 = std::max(depth_p99, h.percentile(99.0));
      }
    }
    out += ",\"pipeline_depth_p99\":" + std::to_string(depth_p99) +
           ",\"repl_bytes_wire\":" +
           std::to_string(tracer->metrics().counter("repl.bytes_wire").value()) +
           ",\"trace_dropped\":" + std::to_string(tracer->dropped());
    obs::export_jsonl_file(tracer->snapshot(), a.trace_path);
  }
  out += "}";
  std::printf("RESULT %s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

// -------------------------------------------------------------- client --

/// Counts for one measured phase.
struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t semantic_aborts = 0;
  std::uint64_t failed = 0;
  std::vector<net::Time> update_us;  // committed update transactions
  std::vector<net::Time> read_us;    // committed read-only transactions

  void record(const workload::TxnResponse& r, TxnKind kind, net::Time latency_us) {
    ++attempted;
    if (r.committed) {
      ++committed;
      (kind == TxnKind::kRead ? read_us : update_us).push_back(latency_us);
    } else if (semantic_abort(r)) {
      ++semantic_aborts;
    } else {
      ++failed;
    }
  }
  /// Counts, plus every latency sample when `samples` (the driver pools the
  /// samples of the parts it keeps).
  std::string json(bool samples) const {
    std::string out = "{\"attempted\":" + std::to_string(attempted) +
                      ",\"committed\":" + std::to_string(committed) +
                      ",\"semantic_aborts\":" + std::to_string(semantic_aborts) +
                      ",\"failed\":" + std::to_string(failed);
    if (samples) {
      for (const auto* v : {&update_us, &read_us}) {
        out += v == &update_us ? ",\"update_us\":[" : "],\"read_us\":[";
        for (std::size_t i = 0; i < v->size(); ++i) {
          out += (i ? "," : "") + std::to_string((*v)[i]);
        }
      }
      out += "]";
    }
    return out + "}";
  }
};

/// A measurement window cut into equal parts; the client announces every
/// part edge, and the driver samples CPU time and the machine's CPU steal
/// there and reports figures over the least-disturbed parts.
struct Window {
  net::Time start = 0;
  net::Time part_len = 1;
  std::vector<PhaseStats> parts;
  PhaseStats total;

  void open(net::Time at, net::Time length, std::size_t n) {
    start = at;
    part_len = std::max<net::Time>(1, length / n);
    parts.assign(n, PhaseStats{});
  }
  net::Time edge(std::size_t k) const { return start + k * part_len; }
  /// `at` places the transaction in a part: its completion (closed loop) or
  /// its due time (open loop).
  void record(net::Time at, const workload::TxnResponse& r, TxnKind kind, net::Time latency_us) {
    total.record(r, kind, latency_us);
    if (at < start) return;
    const std::size_t k = static_cast<std::size_t>((at - start) / part_len);
    if (k < parts.size()) parts[k].record(r, kind, latency_us);
  }
  std::string json() const {
    std::string out = "{\"start\":" + std::to_string(start) +
                      ",\"length_us\":" + std::to_string(parts.size() * part_len) +
                      ",\"total\":" + total.json(false) + ",\"parts\":[";
    for (std::size_t i = 0; i < parts.size(); ++i) out += (i ? "," : "") + parts[i].json(true);
    return out + "]}";
  }
};

/// Committed transactions of a traced client as (client id, seq, latency in
/// µs timed by the benchmark itself), for the analyzer to hold the trace's
/// begin → ack spans against.
struct LatencyLog {
  bool on = false;
  std::string lines;
  void add(ClientId client, RequestSeq seq, net::Time us) {
    if (!on) return;
    lines += std::to_string(client.value) + " " + std::to_string(seq) + " " +
             std::to_string(us) + "\n";
  }
};

/// The open-loop generator: requests due on a seeded Poisson schedule, sent
/// through tob::BroadcastBody, answered by workload::TxnResponse. Each logical
/// client id has at most one request outstanding, so the replicas' per-client
/// at-most-once floors stay valid; a due request waits for a free id, and that
/// wait shows as generator lag.
class OpenLoop {
 public:
  OpenLoop(Cluster& cluster, const Workload& w, std::uint64_t seed, obs::Tracer* tracer,
           LatencyLog& latencies, std::int64_t& deposit_sum)
      : cluster_(cluster),
        source_(w, seed),
        rng_(seed ^ 0x0be11),
        rate_(w.open_rate),
        tracer_(tracer),
        latencies_(latencies),
        deposit_sum_(deposit_sum) {
    slots_.resize(w.open_pool + 1);  // slot 0: the set-up probe's id
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].id = ClientId{kOpenClientBase + static_cast<std::uint32_t>(i)};
    }
    for (std::size_t i = slots_.size() - 1; i >= 1; --i) free_.push_back(i);
    cluster_.transport->set_handler(cluster_.generator_node,
                                    [this](net::NodeContext& ctx, const net::Message& m) {
                                      on_message(ctx, m);
                                    });
  }

  /// Sends one request at a time on the probe id until one commits; returns
  /// the commit time, or 0 after `timeout` µs.
  net::Time probe(net::Time timeout) {
    net::TcpTransport& t = *cluster_.transport;
    const net::Time deadline = t.now() + timeout;
    Slot& s = slots_[0];
    while (t.now() < deadline) {
      if (!s.busy) {
        if (s.answered_committed) return s.answered_at;
        launch(0, t.now(), false);
      } else if (t.now() - s.sent > 200000) {
        post(0);  // same (client, seq): the TOB deduplicates
        s.sent = t.now();
      }
      t.poll_once(1000);
    }
    return 0;
  }

  /// Runs the schedule through the warm-up and the window; requests due in
  /// the window are measured. Then waits up to `drain` µs for answers.
  void run(net::Time warmup, net::Time length, std::size_t parts, net::Time drain) {
    net::TcpTransport& t = *cluster_.transport;
    net::Time next_due = t.now();
    const net::Time warm_end = next_due + warmup;
    bool opened = false;
    std::size_t edge = 1;  // next part edge of the window to announce
    while (true) {
      const net::Time now = t.now();
      if (!opened) {
        if (now >= warm_end) {
          opened = true;
          window_from_ = now;  // requests due from here on are measured
          window.open(now, length, parts);
          mark("open_start", now);
        }
      } else if (now >= window.edge(edge)) {
        if (edge == parts) {
          mark("open_end", now);
          break;
        }
        mark(("open_part" + std::to_string(edge)).c_str(), now);
        ++edge;
      }
      while (next_due <= now) {
        due_.push_back(next_due);
        next_due += static_cast<net::Time>(rng_.exponential(1e6 / rate_)) + 1;
      }
      dispatch_due();
      // poll_once sleeps in whole milliseconds; closer to the next due time,
      // poll without blocking and nap briefly when idle, so requests leave
      // on time and answers are stamped within tens of microseconds.
      if (next_due > now + 1000) {
        t.poll_once(1000);
      } else if (t.poll_once(0) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    // Drain: requests that fell due while every id was busy still go out
    // (late; their latency counts from the due time), then all answers in.
    const net::Time drain_end = t.now() + drain;
    while ((outstanding() > 0 || !due_.empty()) && t.now() < drain_end) {
      dispatch_due();
      t.poll_once(1000);
    }
    for (const net::Time due : due_) {
      if (due >= window_from_) {
        ++window.total.attempted;
        ++window.total.failed;
      }
    }
    due_.clear();
    // Still unanswered: failed. The slot stays busy so a late answer still
    // counts toward the balance-sum gate.
    for (Slot& s : slots_) {
      if (s.busy && s.measured) {
        ++window.total.attempted;
        ++window.total.failed;
        s.measured = false;
      }
    }
  }

  Window window;
  std::vector<double> lag_us;

 private:
  struct Slot {
    ClientId id{};
    RequestSeq seq = 0;
    bool busy = false;
    bool measured = false;
    net::Time due = 0;
    net::Time sent = 0;
    Txn txn;
    workload::TxnRequest req;
    bool answered_committed = false;
    net::Time answered_at = 0;
  };

  /// Sends due requests while logical ids are free.
  void dispatch_due() {
    while (!due_.empty() && !free_.empty()) {
      const std::size_t i = free_.back();
      free_.pop_back();
      const net::Time due = due_.front();
      due_.pop_front();
      launch(i, due, due >= window_from_);
    }
  }

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Slot& s : slots_) n += s.busy ? 1 : 0;
    return n;
  }

  void launch(std::size_t i, net::Time due, bool measured) {
    Slot& s = slots_[i];
    s.txn = source_.next_open();
    s.busy = true;
    s.measured = measured;
    s.due = due;
    s.answered_committed = false;
    s.req = workload::TxnRequest{s.id, ++s.seq, cluster_.generator_node, s.txn.proc,
                                 s.txn.params};
    s.sent = cluster_.transport->now();
    if (measured) lag_us.push_back(static_cast<double>(s.sent - due));
    if (tracer_) tracer_->txn_begin(s.sent, cluster_.generator_node, s.id, s.seq, s.txn.proc);
    post(i);
  }

  void post(std::size_t i) {
    const Slot& s = slots_[i];
    tob::BroadcastBody body{tob::Command{s.id, s.seq, workload::encode_request(s.req)}};
    cluster_.transport->post(cluster_.generator_node, targets_for(cluster_, s.req).front(),
                             net::make_msg(tob::kBroadcastHeader, std::move(body)));
  }

  void on_message(net::NodeContext& ctx, const net::Message& m) {
    if (m.header != workload::kTxnResponseHeader) return;  // tob-acks
    const auto& r = net::msg_body<workload::TxnResponse>(m);
    const std::uint32_t i = r.client.value - kOpenClientBase;
    if (r.client.value < kOpenClientBase || i >= slots_.size()) return;
    Slot& s = slots_[i];
    if (!s.busy || r.seq != s.seq) return;  // a later replica's duplicate answer
    const net::Time now = ctx.now();
    s.busy = false;
    s.answered_committed = r.committed;
    s.answered_at = now;
    if (tracer_) tracer_->txn_ack(now, cluster_.generator_node, s.id, s.seq, r.committed);
    if (r.committed) {
      deposit_sum_ += s.txn.deposit;
      latencies_.add(s.id, s.seq, now - s.sent);
    }
    if (s.measured) window.record(s.due, r, s.txn.kind, now - s.due);
    if (i != 0) free_.push_back(i);
  }

  Cluster& cluster_;
  TxnSource source_;
  Rng rng_;
  double rate_;
  obs::Tracer* tracer_;
  LatencyLog& latencies_;
  std::int64_t& deposit_sum_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_;
  std::deque<net::Time> due_;
  net::Time window_from_ = std::numeric_limits<net::Time>::max();
};

/// One closed-loop DbClient and what the benchmark's hooks know about it.
struct ClosedClient {
  ClosedClient(const Workload& w, std::uint64_t seed) : source(w, seed) {}
  TxnSource source;
  Txn current;
  net::Time submitted = 0;
  std::uint64_t conflicts_at_submit = 0;
  bool filler = false;  // the current transaction is the post-window filler
  std::unique_ptr<core::DbClient> client;
};

int run_client(const Args& a, const Workload& w) {
  auto transport = make_transport(kClientHost, a.ports, a.seed);
  if (!transport) {
    std::fprintf(stderr, "client: cannot bind port %u\n", a.ports[kClientHost]);
    return 3;
  }
  std::printf("LISTEN %u\n", kClientHost);
  std::fflush(stdout);
  wait_for_go();

  std::unique_ptr<obs::Tracer> tracer;
  if (!a.trace_path.empty()) {
    tracer = std::make_unique<obs::Tracer>(
        obs::TracerOptions{.capacity = 1 << 21, .record_messages = false});
  }
  Cluster cluster;
  cluster.transport = std::move(transport);
  net::TcpTransport& t = *cluster.transport;
  assemble(cluster, w, kClientHost, tracer.get(), 0);

  std::int64_t deposit_sum = 0;
  LatencyLog latencies;
  latencies.on = !a.latencies_path.empty();
  OpenLoop open(cluster, w, a.seed * 1000 + 999, tracer.get(), latencies, deposit_sum);

  // Closed-loop clients: built now (their handlers must exist), started
  // after the open-loop phase.
  bool stopping = false;
  bool in_window = false;
  Window closed;
  std::uint64_t xs_answered = 0;
  std::vector<std::unique_ptr<ClosedClient>> clients;
  core::DbClient::Options options;
  options.mode = core::DbClient::Mode::kTob;
  options.targets = cluster.groups.front()->broadcast_targets();
  options.txn_limit = SIZE_MAX;
  options.tracer = tracer.get();
  if (cluster.router != nullptr) {
    options.router = cluster.router;
    options.retry_conflict_aborts = true;
  }
  for (std::size_t c = 0; c < w.clients; ++c) {
    // Distinct low 24 bits per client keep TPC-C history keys unique.
    auto cc = std::make_unique<ClosedClient>(w, a.seed * 1000 + c + 1);
    ClosedClient* p = cc.get();
    p->client = std::make_unique<core::DbClient>(
        t, cluster.client_nodes[c], ClientId{static_cast<std::uint32_t>(c + 1)}, options,
        [p, &stopping, &t]() {
          p->filler = stopping;
          p->current = stopping ? p->source.filler() : p->source.next_closed();
          p->submitted = t.now();
          p->conflicts_at_submit = p->client->conflict_retries();
          return std::make_pair(p->current.proc, p->current.params);
        });
    p->client->set_response_hook(
        [p, &t, &in_window, &closed, &deposit_sum, &xs_answered,
         &latencies](const workload::TxnResponse& r) {
          if (p->filler) return;
          const net::Time now = t.now();
          if (r.committed) {
            deposit_sum += p->current.deposit;
            // A conflict retry begins a new span under a new seq; only
            // transactions answered at their first seq match one span.
            if (p->client->conflict_retries() == p->conflicts_at_submit) {
              latencies.add(r.client, r.seq, now - p->submitted);
            }
          }
          if (!in_window) return;
          if (p->current.proc == workload::bank::kTransferProc) ++xs_answered;
          closed.record(now, r, p->current.kind, now - p->submitted);
        });
    clients.push_back(std::move(cc));
  }

  // -- set-up: the first committed transaction ------------------------------
  const net::Time first = open.probe(120ull * 1000 * 1000);
  if (first == 0) {
    std::fprintf(stderr, "client: no transaction committed within 120 s\n");
    return 4;
  }
  mark("setup", first);
  if (a.setup_only) return 0;

  // -- open loop (only when the driver asks for one) -----------------------
  if (a.open_ms > 0) {
    open.run(a.open_warmup_ms * 1000, a.open_ms * 1000, a.open_parts, 5000000);
  }

  // -- closed loop ------------------------------------------------------------
  for (auto& cc : clients) cc->client->start();
  const net::Time warm_end = t.now() + a.warmup_ms * 1000;
  while (t.now() < warm_end) t.poll_once(std::min<net::Time>(warm_end - t.now(), 1000));
  const net::Time window_start = t.now();
  closed.open(window_start, a.window_ms * 1000, a.window_parts);
  in_window = true;
  mark("window_start", window_start);
  // Part edges are announced so the driver samples CPU time at each one.
  for (std::size_t k = 1;; ++k) {
    const net::Time edge = closed.edge(k);
    while (t.now() < edge) t.poll_once(std::min<net::Time>(edge - t.now(), 1000));
    if (k == a.window_parts) break;
    mark(("part" + std::to_string(k)).c_str(), t.now());
  }
  in_window = false;
  mark("window_end", t.now());

  // Drain: every client's last real transaction must be answered (its next
  // submission is then the filler), so balances and digests are final.
  stopping = true;
  const auto drained = [&clients] {
    for (const auto& cc : clients) {
      if (!cc->filler) return false;
    }
    return true;
  };
  const net::Time drain_end = t.now() + 15ull * 1000 * 1000;
  while (!drained() && t.now() < drain_end) t.poll_once(1000);
  for (const auto& cc : clients) {
    if (!cc->filler) {
      ++closed.total.attempted;
      ++closed.total.failed;
    }
  }
  mark("drained", t.now());

  std::uint64_t retries = 0, conflict_retries = 0, ro_committed = 0, ro_restarts = 0;
  for (const auto& cc : clients) {
    retries += cc->client->retries();
    conflict_retries += cc->client->conflict_retries();
    ro_committed += cc->client->ro_committed();
    ro_restarts += cc->client->ro_restarts();
  }
  std::string out =
      "{\"setup_at_us\":" + std::to_string(first) + ",\"closed\":" + closed.json() +
      ",\"open\":" + open.window.json() +
      ",\"open_lag_us\":" + summary(open.lag_us) +
      ",\"deposit_sum\":" + std::to_string(deposit_sum) +
      ",\"retries\":" + std::to_string(retries) +
      ",\"conflict_retries\":" + std::to_string(conflict_retries) +
      ",\"xs_answered\":" + std::to_string(xs_answered) +
      ",\"ro_committed\":" + std::to_string(ro_committed) +
      ",\"ro_restarts\":" + std::to_string(ro_restarts) +
      ",\"messages_delivered\":" + std::to_string(t.messages_delivered()) +
      ",\"reconnect_attempts\":" + std::to_string(t.reconnect_attempts());
  t.shutdown();
  if (tracer) {
    out += ",\"trace_dropped\":" + std::to_string(tracer->dropped());
    obs::export_jsonl_file(tracer->snapshot(), a.trace_path);
  }
  if (latencies.on) std::ofstream(a.latencies_path) << latencies.lines;
  out += "}";
  std::printf("RESULT %s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

// ------------------------------------------------------------- analyze --

int run_analyze(const Args& a) {
  std::vector<NodePair> pairs;
  for (const std::string& p : split(a.pairs, ',')) {
    const std::vector<std::string> f = split(p, ':');
    if (f.size() != 3) usage("--pairs wants GROUP:TOB:DB,...");
    pairs.push_back(NodePair{static_cast<std::uint32_t>(std::stoul(f[0])),
                             NodeId{static_cast<std::uint32_t>(std::stoul(f[1]))},
                             NodeId{static_cast<std::uint32_t>(std::stoul(f[2]))}});
  }
  std::vector<ClientLatency> latencies;
  if (!a.latencies_path.empty()) {
    std::ifstream in(a.latencies_path);
    for (ClientLatency c; in >> c.client >> c.seq >> c.us;) latencies.push_back(c);
  }
  std::vector<obs::Trace> traces;
  for (const std::string& f : a.files) traces.push_back(obs::parse_jsonl_file(f));
  const obs::Trace merged = obs::merge_traces(traces);

  const auto check_start = std::chrono::steady_clock::now();
  const obs::CheckResult check = obs::check_trace(merged);
  const double check_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - check_start).count();

  std::ofstream spans_file;
  if (!a.spans_path.empty()) spans_file.open(a.spans_path);
  SpanReport r = join_spans(merged, pairs, a.spans_path.empty() ? nullptr : &spans_file);
  const LatencyMatch lm = match_latencies(r, latencies);

  std::string stages = "{";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stages += std::string(i ? "," : "") + "\"" + kStageNames[i] + "\":" + summary(r.stages[i]);
  }
  stages += "}";
  std::string summary_line = check.summary();
  for (char& ch : summary_line) {
    if (ch == '"' || ch == '\\' || ch == '\n') ch = ' ';
  }
  char head[768];
  std::snprintf(head, sizeof(head),
                "{\"check_ok\":%s,\"events\":%zu,\"check_events_per_s\":%.17g,"
                "\"committed\":%llu,\"covered\":%llu,\"coverage\":%.17g,\"ro_committed\":%llu,"
                "\"cross_shard\":%llu,\"client_timed\":%llu,\"matched\":%llu,"
                "\"matched_stage_sum_us\":%.17g,\"matched_client_us\":%.17g,"
                "\"batch_mean\":%.17g,\"ballots\":%llu,",
                check.ok() ? "true" : "false", merged.events.size(),
                check_s > 0 ? static_cast<double>(merged.events.size()) / check_s : 0.0,
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.covered), r.coverage(),
                static_cast<unsigned long long>(r.ro_committed),
                static_cast<unsigned long long>(r.cross_shard),
                static_cast<unsigned long long>(latencies.size()),
                static_cast<unsigned long long>(lm.matched), lm.stage_sum_mean_us,
                lm.client_mean_us, mean(r.batch_sizes), static_cast<unsigned long long>(r.ballots));
  std::printf("RESULT %s\"check_summary\":\"%s\",\"stages\":%s,\"exec_queue_us\":%s,"
              "\"xs_us\":%s,\"stream_ms\":%s}\n",
              head, summary_line.c_str(), stages.c_str(), summary(r.exec_queue_us).c_str(),
              summary(r.xs_us).c_str(), summary(r.stream_ms, false).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_term);
  std::signal(SIGINT, on_term);
  const Args a = parse(argc, argv);
  if (a.mode == "analyze") return run_analyze(a);
  if (a.mode == "micro") return perfbench::run_micro();
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage("unknown --workload");
  if (a.ports.size() != kHostCount) usage("--ports wants 4 ports");
  if (a.mode == "server") {
    if (a.host >= kServerHosts) usage("--host must be a server host (0..2)");
    if (a.rejoin && a.host == 0) usage("host 0 serves snapshots and is never restarted");
    return run_server(a, *w);
  }
  if (a.mode == "client") return run_client(a, *w);
  usage("mode must be server, client, analyze or micro");
}
