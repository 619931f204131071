#!/usr/bin/env python3
"""ShadowDB cluster benchmark: one localhost ShadowDB-SMR cluster per pass.

    python3 perfbench/run.py                       # every workload, timed
    python3 perfbench/run.py --workload deposit    # one workload
    python3 perfbench/run.py --workload tpcc --trace 1   # its traced run

Run from the repository root. The first run builds the benchmark package
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build).
A timed run (--trace 0) prints the end-to-end metrics, a traced run
(--trace 1) the per-layer metrics; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero when
a correctness gate fails or the cluster cannot be built or run. See
perfbench/README.md for the metrics, the workloads and the gates.
"""

import argparse
import bisect
import json
import os
import queue
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["deposit", "tpcc", "sharded_mix"]
# Set-up samples per timed run (the median is reported); TPC-C's load takes
# seconds, the bank's some 20 ms, of which process start-up and the first
# connections are most, and vary most.
SETUPS = {"deposit": 9, "tpcc": 3, "sharded_mix": 9}
RUN_DEADLINE_S = 170.0      # a run that would outlive this is abandoned

# Closed-loop warm-up per workload (ms); TPC-C's longer transactions need
# more time for the executor queues and caches to settle.
WARMUP_MS = {"deposit": 1000, "tpcc": 2000, "sharded_mix": 1000}
OPEN_WARMUP_MS = 500
# Length of one part of the (closed-loop, open-loop) window in ms: short
# enough that bursts of neighbour load spare some parts, long enough for a
# p99 with dozens of samples beyond it. The figures come from the least-
# stolen three quarters of the parts (see least_stolen).
PART_MS = {"deposit": (250, 250), "tpcc": (1000, 3000), "sharded_mix": (250, 250)}
# Traced runs only: the share of --seconds given to the open-loop window
# (the generator's figures are per-layer metrics); the rest is the
# closed-loop window. Timed runs give the closed loop all of --seconds.
OPEN_SHARE = 0.4
# After the drain host 2 is SIGKILLed and restarted this long after the
# kill, REJOINS times in a timed run (the median is reported).
RESTART_AFTER_S = 0.2
REJOINS = 3

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("throughput_txn_s", "txn/s"),
    ("commit_p50_ms", "ms"),
    ("cpu_ms_per_ktxn", "ms"), ("peak_rss_mb", "MB"), ("rss_kb_per_txn", "KB"),
    ("rejoin_s", "s"),
]


PER_LAYER = [  # name, unit; every traced run reports all of them
    ("client.hop_us_p50", "us"), ("client.hop_us_p99", "us"),
    ("tob.queue_us_p50", "us"), ("tob.queue_us_p99", "us"), ("tob.batch_cmds", "count"),
    ("consensus.decide_us_p50", "us"), ("consensus.decide_us_p99", "us"),
    ("consensus.ballots", "count"), ("tob.deliver_us_p50", "us"),
    ("core.exec_queue_us_p50", "us"), ("core.exec_queue_us_p99", "us"),
    ("core.pipeline_depth_p99", "count"), ("core.reply_us_p50", "us"),
    ("core.reply_us_p99", "us"), ("client.retries_per_ktxn", "count"),
    ("client.gen_lag_ms_p99", "ms"), ("net.frames_per_txn", "count"),
    ("net.records_per_writev", "count"), ("net.reconnects", "count"),
    ("wire.bytes_copied_per_txn", "bytes"), ("repl.stream_ms", "ms"),
    ("repl.bytes_wire", "bytes"), ("obs.trace_overhead_pct", "%"),
    ("obs.stage_coverage", "ratio"), ("obs.check_events_per_s", "1/s"),
    ("proc.cpu_s.host0", "s"), ("proc.cpu_s.host1", "s"), ("proc.cpu_s.host2", "s"),
    ("proc.cpu_s.host3", "s"),
    # In-process micro-timings (perfbench/micro.cpp).
    ("wire.request_encode_ns", "ns"), ("wire.request_decode_ns", "ns"),
    ("wire.batch64_encode_ns", "ns"), ("wire.frame_decode_ns", "ns"),
    ("common.ring_handoff_ns", "ns"), ("net.loopback_rtt_us", "us"),
    ("db.exec_us.bank.deposit", "us"), ("db.exec_us.bank.transfer", "us"),
    ("db.exec_us.tpcc.new_order", "us"), ("db.exec_us.tpcc.payment", "us"),
    ("db.exec_us.tpcc.order_status", "us"), ("db.exec_us.tpcc.delivery", "us"),
    ("db.exec_us.tpcc.stock_level", "us"), ("db.read_at_ns.chain1", "ns"),
    ("db.read_at_ns.chain64", "ns"), ("db.lock_acquire_ns", "ns"),
    ("repl.full_stream_mb_s", "MB/s"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build():
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    logf = os.path.join(build_dir(), "build.log")
    with open(logf, "w") as lf:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=lf, stderr=subprocess.STDOUT)
            if rc != 0:
                shutil.rmtree(out, ignore_errors=True)
                raise BenchError("cmake configure failed, see " + logf)
        rc = subprocess.call(["cmake", "--build", out, "-j", "4"],
                             stdout=lf, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError("build failed, see " + logf)
    return os.path.join(out, "pb_node"), os.path.join(out, "pb_span_test")


# -------------------------------------------------------------- processes --

def free_ports(n):
    """n distinct ports the kernel just handed out (fresh every pass)."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def host_cpu_ticks():
    """(steal, total) CPU ticks of the whole machine, from /proc/stat. Steal
    is time the hypervisor gave this machine's CPUs to other tenants."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def proc_cpu_s(pid):
    """CPU seconds of a live process: the nanosecond on-CPU time of each of
    its threads (/proc/PID/task/*/schedstat; its threads live as long as the
    process does)."""
    total = 0
    try:
        for tid in os.listdir("/proc/%d/task" % pid):
            with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as f:
                total += int(f.read().split()[0])
    except (OSError, IndexError, ValueError):
        return None
    return total / 1e9


class Proc:
    """One cluster process: stdout lines are parsed as they arrive."""

    def __init__(self, name, argv, run_dir, on_mark=None):
        self.name = name
        self.err = open(os.path.join(run_dir, name + ".stderr"), "w")
        self.launched = time.monotonic()
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=self.err, text=True, bufsize=1, cwd=run_dir)
        self.marks = {}
        self.mark_error = None  # raised by on_mark on the reader thread
        self.result = None
        self.rusage = None
        self.status = None
        self.cpu_at = {}
        self.lines = queue.Queue()
        self.on_mark = on_mark
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.p.stdout:
            line = line.rstrip("\n")
            if line.startswith("MARK "):
                _, what, t = line.split()
                self.marks[what] = int(t) / 1e6
                if self.on_mark:
                    try:
                        self.on_mark(what)
                    except Exception as e:  # reported by finish_client
                        self.mark_error = self.mark_error or e
            elif line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
            self.lines.put(line)
        self.lines.put(None)

    def wait_for(self, prefix, deadline):
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("%s: timed out waiting for %r" % (self.name, prefix))
            try:
                line = self.lines.get(timeout=min(left, 1.0))
            except queue.Empty:
                continue
            if line is None:
                raise BenchError("%s exited before %r (see %s.stderr)" %
                                 (self.name, prefix, self.name))
            if line.startswith(prefix):
                return line

    def go(self):
        self.p.stdin.write("go\n")
        self.p.stdin.flush()

    def cpu(self):
        return proc_cpu_s(self.p.pid)

    def hwm_kb(self):
        """Peak resident set so far (VmHWM), in KB."""
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for " + self.name)

    def signal(self, sig):
        if self.status is None:
            try:
                os.kill(self.p.pid, sig)
            except ProcessLookupError:
                pass

    def reap(self, timeout):
        """Waits for exit (SIGKILL after `timeout`), keeping its rusage."""
        if self.status is not None:
            return self.status
        end = time.monotonic() + timeout
        while True:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid == self.p.pid:
                break
            if time.monotonic() > end:
                self.signal(signal.SIGKILL)
                pid, status, ru = os.wait4(self.p.pid, 0)
                break
            time.sleep(0.01)
        self.rusage = ru
        self.status = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.status
        self.reader.join(timeout=5)
        self.err.close()
        return self.status


class Cluster:
    """3 server processes + 1 client process on fresh localhost ports."""

    def __init__(self, binary, workload, seed, seconds, run_dir, trace=False, setup_only=False,
                 open_loop=False):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.trace = trace
        self.ports = ",".join(str(p) for p in free_ports(4))
        self.procs = []
        self.servers = {}
        self.incarnations = {0: [], 1: [], 2: []}
        self.host_at = {}
        self.hwm_at = {}  # client mark -> {host: VmHWM in KB}
        open_ms = int(seconds * 1000 * OPEN_SHARE) if open_loop else 0
        window_ms = int(seconds * 1000) - open_ms
        self.parts = max(1, window_ms // PART_MS[workload][0])
        self.open_parts = max(1, open_ms // PART_MS[workload][1])
        self.client_args = ["--open-warmup-ms", str(OPEN_WARMUP_MS), "--open-ms", str(open_ms),
                            "--open-parts", str(self.open_parts),
                            "--warmup-ms", str(WARMUP_MS[workload]),
                            "--window-ms", str(window_ms), "--window-parts", str(self.parts)]
        if trace:
            self.client_args += ["--latencies", "client.lat"]
        if setup_only:
            self.client_args.append("--setup-only")

    def _common(self, mode):
        return [self.binary, mode, "--workload", self.workload, "--ports", self.ports,
                "--seed", str(self.seed)]

    def _trace_arg(self, name):
        return ["--trace", name + ".jsonl"] if self.trace else []

    def launch_server(self, host, epoch=0):
        name = "host%d" % host if epoch == 0 else "host%d.e%d" % (host, epoch)
        argv = self._common("server") + ["--host", str(host)] + self._trace_arg(name)
        if epoch:
            argv += ["--rejoin", "--epoch", str(epoch)]
        proc = Proc(name, argv, self.run_dir)
        self.procs.append(proc)
        self.servers[host] = proc
        self.incarnations[host].append(proc)
        return proc

    def _on_client_mark(self, what):
        # Runs on the client's reader thread the moment the client announces
        # an edge of a window or of one of its parts.
        self.host_at[what] = host_cpu_ticks()
        if what.startswith(("window_", "part")):
            for proc in list(self.procs):
                if proc.status is None:
                    proc.cpu_at[what] = proc.cpu()
        if what in ("setup", "drained"):
            self.hwm_at[what] = {h: p.hwm_kb() for h, p in self.servers.items()}

    def memory(self):
        """(peak_rss_mb, rss_kb_per_txn). The servers keep state for every
        transaction they order, so their resident set grows in proportion
        to the work done, and a peak after a fixed time would follow the
        throughput. So memory is two figures: the footprint when serving
        starts — the largest VmHWM of the first incarnations at the first
        commit (data loaded, cluster formed) and the whole-life peak
        (ru_maxrss) of every rejoined incarnation (snapshot streamed and
        installed) — and the growth from the first commit to the drain per
        transaction each surviving first incarnation executed (largest of
        hosts 0 and 1). Every incarnation must have been reaped."""
        rejoined = [p.rusage.ru_maxrss for p in self.incarnations[2][1:]]
        peak = max(list(self.hwm_at["setup"].values()) + rejoined) / 1024.0
        growth = []
        for h in (0, 1):
            executed = sum(g["executed"] for g in self.servers[h].result["groups"])
            growth.append((self.hwm_at["drained"][h] - self.hwm_at["setup"][h]) / executed)
        return peak, max(growth)

    def start(self, deadline):
        for h in range(3):
            self.launch_server(h).wait_for("LISTEN", deadline)
        self.client = Proc("client", self._common("client") + self.client_args +
                           self._trace_arg("client"), self.run_dir, self._on_client_mark)
        self.procs.append(self.client)
        self.client.wait_for("LISTEN", deadline)
        for proc in self.procs:
            proc.go()
        self.launched = self.servers[0].launched

    def setup_s(self, deadline):
        self.client.wait_for("MARK setup", deadline)
        return self.client.marks["setup"] - self.launched

    def kill_and_rejoin(self, host, deadline):
        """SIGKILLs `host`, restarts it with --rejoin; returns restart →
        every replica of the new incarnation active again."""
        victim = self.servers[host]
        victim.cpu_at["killed"] = victim.cpu()
        victim.killed_at = time.monotonic()
        victim.signal(signal.SIGKILL)
        victim.reap(5)
        time.sleep(RESTART_AFTER_S)
        proc = self.launch_server(host, epoch=len(self.incarnations[host]))
        proc.wait_for("LISTEN", deadline)
        proc.go()
        proc.wait_for("MARK rejoined", deadline)
        return proc.marks["rejoined"] - proc.launched

    def finish_client(self, deadline):
        self.client.wait_for("RESULT", deadline)
        if self.client.reap(10) != 0:
            raise BenchError("client exited with %s" % self.client.status)
        if self.client.mark_error is not None:
            raise BenchError("sampling at a client mark failed: %r" % self.client.mark_error)

    def finish_servers(self, deadline):
        for proc in self.servers.values():
            proc.signal(signal.SIGTERM)
        for host, proc in self.servers.items():
            proc.wait_for("RESULT", deadline)
            if proc.reap(10) != 0:
                raise BenchError("host %d exited with %s" % (host, proc.status))

    def part_steal(self, edges):
        """Per part between consecutive edges, the share of machine CPU time
        stolen by other tenants; None if an edge was not announced."""
        if any(e not in self.host_at for e in edges):
            return None
        out = []
        for a, b in zip(edges, edges[1:]):
            steal = self.host_at[b][0] - self.host_at[a][0]
            total = self.host_at[b][1] - self.host_at[a][1]
            out.append(steal / total if total else 0.0)
        return out

    def part_cpu_s(self):
        """Per part of the closed-loop window, the CPU seconds of each host
        (servers summed over their incarnations) as {host: [per part]}."""
        edges = part_edges("window_start", "part", "window_end",
                           len(self.client.result["closed"]["parts"]))
        marks = self.client.marks
        out = {}
        for host, procs in list(self.incarnations.items()) + [(3, [self.client])]:
            out[host] = [sum(cpu_between(p, a, b, marks) for p in procs)
                         for a, b in zip(edges, edges[1:])]
        return out

    def stop(self):
        for proc in self.procs:
            proc.signal(signal.SIGKILL)
        for proc in self.procs:
            try:
                proc.reap(5)
            except ChildProcessError:
                pass


def wanted_parts(parts):
    """How many least-stolen parts of a window the figures come from."""
    return max(1, -(-parts * 3 // 4))


def part_edges(start, inner, end, parts):
    """The client's mark names bounding a window's parts."""
    return [start] + ["%s%d" % (inner, k) for k in range(1, parts)] + [end]


def cpu_between(proc, a, b, marks):
    """CPU seconds `proc` used between client marks a and b (0 outside its
    lifetime; a killed incarnation counts up to its kill)."""
    ta, tb = marks[a], marks[b]
    killed = getattr(proc, "killed_at", None)
    if proc.launched >= tb or (killed is not None and killed <= ta):
        return 0.0
    start = proc.cpu_at.get(a, 0.0)
    end = proc.cpu_at["killed"] if killed is not None and killed < tb else proc.cpu_at.get(b)
    if start is None or end is None:
        raise BenchError("no CPU sample for %s at %s" % (proc.name, b))
    return end - start


# ------------------------------------------------------------------ passes --

def setup_only_pass(binary, workload, seed, seconds, run_dir, deadline):
    cluster = Cluster(binary, workload, seed, seconds, run_dir, setup_only=True)
    try:
        cluster.start(deadline)
        return cluster.setup_s(deadline)
    finally:
        cluster.stop()


def measured_pass(binary, workload, seed, seconds, run_dir, deadline, trace=False,
                  rejoins=REJOINS, open_loop=False):
    """One full pass: set-up, open loop (if asked for), closed loop, drain;
    then host 2 is killed and rejoined `rejoins` times — a killed process
    loses its trace — and every server quiesces and reports."""
    cluster = Cluster(binary, workload, seed, seconds, run_dir, trace=trace, open_loop=open_loop)
    try:
        cluster.start(deadline)
        setup = cluster.setup_s(deadline)
        cluster.finish_client(deadline)
        times = [cluster.kill_and_rejoin(2, deadline) for _ in range(rejoins)]
        rejoin_s = statistics.median(times) if times else None
        cluster.finish_servers(deadline)
        peak_rss_mb, rss_kb_per_txn = cluster.memory()
        return {
            "setup_s": setup,
            "rejoin_s": rejoin_s,
            "client": cluster.client.result,
            "servers": {h: p.result for h, p in cluster.servers.items()},
            "part_cpu": cluster.part_cpu_s(),
            "closed_steal": cluster.part_steal(part_edges(
                "window_start", "part", "window_end", len(cluster.client.result["closed"]["parts"]))),
            "open_steal": (cluster.part_steal(part_edges(
                "open_start", "open_part", "open_end", cluster.open_parts))
                if cluster.client.result["open"]["parts"] else None),
            "peak_rss_mb": peak_rss_mb,
            "rss_kb_per_txn": rss_kb_per_txn,
            "rss_mb_by_process": {p.name: round(p.rusage.ru_maxrss / 1024.0, 1)
                                  for procs in cluster.incarnations.values() for p in procs},
        }
    finally:
        cluster.stop()


# ------------------------------------------------------------------- gates --

def correctness(workload, r):
    """The output gates of one measured pass; returns a list of failures."""
    bad = []
    servers = r["servers"]
    groups = {}
    for host, s in servers.items():
        for g in s["groups"]:
            groups.setdefault(g["group"], {})[host] = g
        if not s.get("rejoined", True):
            bad.append("host %d never rejoined" % host)
    for gid, by_host in sorted(groups.items()):
        digests = {h: g["digest"] for h, g in by_host.items()}
        if len(set(digests.values())) != 1:
            bad.append("group %d replica digests differ: %s" % (gid, digests))
    if workload == "tpcc":
        for gid, by_host in groups.items():
            for h, g in by_host.items():
                if not g.get("tpcc_consistent"):
                    bad.append("TPC-C consistency fails on host %d" % h)
    else:
        initial = 1000 * 1000  # 1,000 accounts of 1,000 each
        for h in servers:
            # Every group holds the whole table but changes only the keys it
            # owns: the others stay at their initial balance.
            total = sum(by_host[h]["bank_total"] for by_host in groups.values())
            total -= (len(groups) - 1) * initial
            want = initial + r["client"]["deposit_sum"]
            if total != want:
                bad.append("host %d balances sum to %d, want %d" % (h, total, want))
    return bad


# ----------------------------------------------------------------- metrics --

def quantile_us(samples, q):
    """Quantile of sorted whole-microsecond samples, reading each value v as
    the interval [v - 0.5, v + 0.5) it was rounded from (the grouped-data
    estimate), so a quantile is not stuck on the 1 us grid."""
    rank = q * len(samples)
    v = samples[min(int(rank), len(samples) - 1)]
    lo, hi = bisect.bisect_left(samples, v), bisect.bisect_right(samples, v)
    return v - 0.5 + (rank - lo) / (hi - lo)


def pooled(parts, *fields):
    """The latency samples (us) of the given parts, sorted."""
    out = sorted(x for p in parts for f in fields for x in p[f])
    if not out:
        raise BenchError("no committed %s samples" % "/".join(fields))
    return out


def tail_info(samples):
    """Sample count, median and the highest percentile with at least ten
    samples beyond it (ms)."""
    info = {"n": len(samples), "p50_ms": quantile_us(samples, 0.5) / 1000,
            "p99_ms": quantile_us(samples, 0.99) / 1000}
    for name, q in (("p9999", 0.9999), ("p999", 0.999)):
        if len(samples) * (1 - q) >= 10:
            info[name + "_ms"] = quantile_us(samples, q) / 1000
            break
    return info


def least_stolen(parts, steal):
    """The wanted_parts() parts of a window in which other tenants of the
    machine took the least CPU time (CPU steal, /proc/stat). Interference
    only slows a part down; the figures come from the parts that measure the
    program, not its neighbours."""
    if steal is None or len(steal) != len(parts):
        raise BenchError("a part edge of the window was not announced")
    order = sorted(range(len(parts)), key=lambda k: steal[k])
    return [parts[k] for k in sorted(order[:wanted_parts(len(parts))])]


def closed_throughput(r):
    """Committed txn/s over the kept parts of the closed-loop window."""
    closed = r["client"]["closed"]
    parts = least_stolen(closed["parts"], r["closed_steal"])
    part_s = closed["length_us"] / 1e6 / len(closed["parts"])
    return sum(p["committed"] for p in parts) / (part_s * len(parts))


def end_to_end(workload, r, setups):
    """Window figures pool the kept parts of the closed-loop window, its
    least-stolen three quarters: a burst of neighbour load on the machine
    moves the parts it hits out of the figures."""
    c = r["client"]
    closed, opn = c["closed"]["total"], c["open"]["total"]
    all_parts = c["closed"]["parts"]
    for k, p in enumerate(all_parts):
        p["server_cpu_s"] = sum(r["part_cpu"][h][k] for h in range(3))
    parts = least_stolen(all_parts, r["closed_steal"])
    committed = sum(p["committed"] for p in parts)
    if committed == 0:
        raise BenchError("nothing committed in the window")
    commit = pooled(parts, "update_us")
    m = {
        "setup_s": statistics.median(setups),
        "throughput_txn_s": closed_throughput(r),
        "commit_p50_ms": quantile_us(commit, 0.5) / 1000,
        "cpu_ms_per_ktxn": sum(p["server_cpu_s"] for p in parts) * 1e6 / committed,
        "peak_rss_mb": r["peak_rss_mb"],
        "rss_kb_per_txn": r["rss_kb_per_txn"],
        "rejoin_s": r["rejoin_s"],
    }
    # Informational: sample counts, the tails they support, the snapshot-
    # read latencies (tpcc, sharded_mix), the open loop (traced runs),
    # failures and the machine's steal.
    info = {"setup_samples_s": setups, "commit": tail_info(commit),
            "rejoin_s": r["rejoin_s"], "rss_mb_by_process": r["rss_mb_by_process"],
            "window_parts": [len(all_parts), len(parts)],
            "steal_pct_closed_parts": [round(x * 100, 2) for x in r["closed_steal"]]}
    if any(p["read_us"] for p in parts):
        info["read"] = tail_info(pooled(parts, "read_us"))
    if c["open"]["parts"]:
        info["open"] = tail_info(pooled(least_stolen(c["open"]["parts"], r["open_steal"]),
                                        "update_us", "read_us"))
    attempted = closed["attempted"] + opn["attempted"]
    failed = closed["failed"] + opn["failed"]
    info["failed_ratio"] = failed / attempted if attempted else 0.0
    info["semantic_aborts"] = closed["semantic_aborts"] + opn["semantic_aborts"]
    return m, info, attempted, failed


def per_layer(workload, plain, traced, analysis, micro):
    """Per-layer metrics from the untraced pass (counters), the traced pass
    (stage spans) and the in-process micro-timings."""
    c = plain["client"]
    servers = plain["servers"].values()
    committed_all = (c["closed"]["total"]["committed"] + c["open"]["total"]["committed"]) or 1
    delivered = sum(s["messages_delivered"] for s in servers) + c["messages_delivered"]
    calls = sum(s["writev_calls"] for s in servers)
    records = sum(s["writev_records"] for s in servers)
    st = analysis["stages"]
    plain_tput = closed_throughput(plain)
    traced_tput = closed_throughput(traced)
    m = {
        "client.hop_us_p50": st["client.hop"]["p50"],
        "client.hop_us_p99": st["client.hop"]["p99"],
        "tob.queue_us_p50": st["tob.queue"]["p50"],
        "tob.queue_us_p99": st["tob.queue"]["p99"],
        "tob.batch_cmds": analysis["batch_mean"],
        "consensus.decide_us_p50": st["consensus.decide"]["p50"],
        "consensus.decide_us_p99": st["consensus.decide"]["p99"],
        "consensus.ballots": analysis["ballots"],
        "tob.deliver_us_p50": st["tob.deliver"]["p50"],
        "core.exec_queue_us_p50": analysis["exec_queue_us"]["p50"],
        "core.exec_queue_us_p99": analysis["exec_queue_us"]["p99"],
        "core.pipeline_depth_p99": max(s["pipeline_depth_p99"]
                                       for s in traced["servers"].values()),
        "core.reply_us_p50": st["core.reply"]["p50"],
        "core.reply_us_p99": st["core.reply"]["p99"],
        "client.retries_per_ktxn": c["retries"] * 1000 / committed_all,
        "client.gen_lag_ms_p99": c["open_lag_us"]["p99"] / 1000,
        "net.frames_per_txn": delivered / committed_all,
        "net.records_per_writev": records / calls if calls else 0.0,
        "net.reconnects": sum(s["reconnect_attempts"] for s in servers) + c["reconnect_attempts"],
        "wire.bytes_copied_per_txn": sum(s["batch_bytes_copied"] for s in servers) / committed_all,
        "repl.stream_ms": analysis["stream_ms"]["p50"],
        "repl.bytes_wire": sum(s["repl_bytes_wire"] for s in traced["servers"].values()),
        "obs.trace_overhead_pct": (plain_tput - traced_tput) * 100 / plain_tput,
        "obs.stage_coverage": analysis["coverage"],
        "obs.check_events_per_s": analysis["check_events_per_s"],
    }
    for h in range(4):
        m["proc.cpu_s.host%d" % h] = sum(plain["part_cpu"][h])
    m.update(micro)
    info = {
        "stage_means_us": {k: v["mean"] for k, v in st.items()},
        "client_timed": analysis["client_timed"], "matched": analysis["matched"],
        "matched_stage_sum_us": analysis["matched_stage_sum_us"],
        "matched_client_us": analysis["matched_client_us"],
        "committed_ordered": analysis["committed"], "covered": analysis["covered"],
        "snapshot_reads": analysis["ro_committed"], "check": analysis["check_summary"],
    }
    if workload == "sharded_mix":
        info["core.xs_us_p50"] = analysis["xs_us"]["p50"]
        info["core.xs_us_p99"] = analysis["xs_us"]["p99"]
        xs_attempts = c["xs_answered"] + c["conflict_retries"]
        info["core.xs_conflict_ratio"] = c["conflict_retries"] / xs_attempts if xs_attempts else 0
        info["core.ro_restart_ratio"] = (c["ro_restarts"] / c["ro_committed"]
                                         if c["ro_committed"] else 0)
    return m, info


# -------------------------------------------------------------------- runs --

def fresh_run_dir(workload, seed, trace):
    """The run's output directory; earlier runs of the same workload and
    kind are removed (a traced run's spans file is large)."""
    runs = os.path.join(build_dir(), "runs")
    prefix = "%s-t%d-" % (workload, int(trace))
    if os.path.isdir(runs):
        for old in os.listdir(runs):
            if old.startswith(prefix):
                shutil.rmtree(os.path.join(runs, old), ignore_errors=True)
    d = os.path.join(runs, prefix + "s%d" % seed)
    os.makedirs(d)
    return d


def run_timed(binary, workload, seed, seconds, deadline):
    run_dir = fresh_run_dir(workload, seed, False)
    setups = [setup_only_pass(binary, workload, seed, seconds, run_dir, deadline)
              for _ in range(SETUPS[workload] - 1)]
    r = measured_pass(binary, workload, seed, seconds, run_dir, deadline)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(r, f)
    setups.append(r["setup_s"])
    bad = correctness(workload, r)
    m, info, attempted, failed = end_to_end(workload, r, setups)
    return m, info, attempted, failed, bad


def run_traced(binary, span_test, workload, seed, seconds, deadline):
    """An untraced and a traced pass of half of `seconds` each: the trace
    check's cost grows faster than the trace, and a whole run must fit
    RUN_DEADLINE_S."""
    run_dir = fresh_run_dir(workload, seed, True)
    bad = []
    if subprocess.call([span_test], stdout=subprocess.DEVNULL) != 0:
        bad.append("span join unit test failed")
    plain = measured_pass(binary, workload, seed, seconds / 2, run_dir, deadline, rejoins=0,
                          open_loop=True)
    bad += correctness(workload, plain)
    traced = measured_pass(binary, workload, seed, seconds / 2, run_dir, deadline, trace=True,
                           rejoins=1, open_loop=True)
    bad += correctness(workload, traced)
    pairs = []
    for s in traced["servers"].values():
        pairs += ["%d:%d:%d" % (g["group"], g["tob"], g["db"]) for g in s["groups"]]
    traces = sorted(f for f in os.listdir(run_dir) if f.endswith(".jsonl"))
    out = subprocess.run([binary, "analyze", "--pairs", ",".join(pairs), "--spans",
                          "spans.jsonl", "--latencies", "client.lat"] + traces, cwd=run_dir, capture_output=True, text=True,
                         timeout=max(deadline - time.monotonic(), 1))
    if out.returncode != 0 or not out.stdout.startswith("RESULT "):
        raise BenchError("trace analysis failed: " + out.stderr[-500:])
    analysis = json.loads(out.stdout.split("RESULT ", 1)[1])
    for f in traces:
        os.remove(os.path.join(run_dir, f))  # large; the spans file stays
    if not analysis["check_ok"]:
        bad.append("trace check failed: " + analysis["check_summary"])
    if analysis["coverage"] < 0.99:
        bad.append("stage coverage %.4f < 0.99" % analysis["coverage"])
    # The stages tile each span, so their sum is the trace's begin → ack.
    # Held against the client's own timing of the same transactions, it
    # shows whether the join picked each transaction's events.
    if analysis["matched"] < 0.9 * analysis["covered"]:
        bad.append("only %d of %d covered transactions were timed by the client" %
                   (analysis["matched"], analysis["covered"]))
    client_us = analysis["matched_client_us"]
    if abs(analysis["matched_stage_sum_us"] - client_us) > 0.10 * client_us:
        bad.append("stage means sum to %.1f us, the client timed %.1f us" %
                   (analysis["matched_stage_sum_us"], client_us))
    if any(s.get("trace_dropped", 0) for s in traced["servers"].values()):
        bad.append("trace ring overflowed")
    out = subprocess.run([binary, "micro"], capture_output=True, text=True,
                         timeout=max(deadline - time.monotonic(), 1))
    if out.returncode != 0 or not out.stdout.startswith("RESULT "):
        raise BenchError("micro-timings failed: " + out.stderr[-500:])
    micro = json.loads(out.stdout.split("RESULT ", 1)[1])
    m, info = per_layer(workload, plain, traced, analysis, micro)
    c = plain["client"]
    attempted = c["closed"]["total"]["attempted"] + c["open"]["total"]["attempted"]
    failed = c["closed"]["total"]["failed"] + c["open"]["total"]["failed"]
    return m, info, attempted, failed, bad


UNITS = dict(END_TO_END + PER_LAYER)


def one(binary, span_test, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        m, info, attempted, failed, bad = run_traced(binary, span_test, workload, seed,
                                                     seconds, deadline)
    else:
        m, info, attempted, failed, bad = run_timed(binary, workload, seed, seconds, deadline)
    print("== %s (seed %d, %s run)" % (workload, seed, "traced" if trace else "timed"))
    for name, value in m.items():
        print("  %-30s %14.4f %s" % (name, value, UNITS[name]))
    print("  info " + json.dumps(info, sort_keys=True))
    for b in bad:
        print("  GATE FAILED: " + b)
    return m, attempted, failed, bad


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated driver still stops its cluster (the passes' finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.chdir(ROOT)
    try:
        binary, span_test = build()
        results = {}
        total_attempted = total_failed = 0
        all_bad = []
        for w in [args.workload] if args.workload else WORKLOADS:
            m, attempted, failed, bad = one(binary, span_test, w, args.seed, args.seconds,
                                            bool(args.trace))
            results[w] = m
            total_attempted += attempted
            total_failed += failed
            all_bad += bad
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    if args.workload:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in results[args.workload].items()}
    else:
        metrics = {"%s.%s" % (w, k): {"value": v, "unit": UNITS[k]}
                   for w, m in results.items() for k, v in m.items()}
    print(json.dumps({"correct": not all_bad, "attempted": total_attempted,
                      "failed": total_failed, "metrics": metrics}))
    return 0 if not all_bad else 1


if __name__ == "__main__":
    sys.exit(main())
