// Real-socket backend of the transport abstraction.
//
// One TcpTransport instance drives one OS process ("host") of a ShadowDB
// cluster: it binds a listening TCP socket, lazily opens one nonblocking
// connection per peer host, and runs a poll(2) event loop that
//
//   * length-prefix-reads the existing checksummed wire frames off the
//     sockets, validates them (`wire::decode_frame`), decodes bodies through
//     the process-wide `wire::Registry`, and drives the same
//     `net::MessageHandler`s the simulator drives;
//   * fires one-shot timers off a monotonic-clock min-heap;
//   * writes outgoing frames nonblocking, sharing one frame buffer across
//     all destinations of a multicast.
//
// Topology is static and replicated: every process runs the identical
// assembly code (add_host / add_node in the same order) against the same
// host address table, so NodeIds and HostIds agree across the cluster and a
// 12-byte routing prefix `[record_len u32][from u32][to u32]` in front of
// each frame is all the directory needed. Frames addressed to a node on the
// local host short-circuit through an in-process loopback queue but still
// take the full decode path, so loopback and remote deliveries are
// indistinguishable to the protocol stack.
//
// Sim-only facilities (partitions, link faults, the CPU-busy model) have no
// TCP counterpart: `charge()` is a no-op because the real CPU was actually
// consumed, and packet damage is produced by real networks rather than
// injected.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/spsc_ring.hpp"
#include "net/transport.hpp"

namespace shadow::net {

/// Where one host (OS process) of the cluster listens.
struct TcpHostAddr {
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = bind an ephemeral port (in-process tests)
};

struct TcpOptions {
  /// Index into `hosts` identifying *this* process.
  std::uint32_t local_host = 0;
  /// The full cluster address table, identical in every process.
  std::vector<TcpHostAddr> hosts;
  /// Seed for the per-node deterministic RNGs (forked in add_node order).
  std::uint64_t seed = 1;
  /// Clock origin for now(). Instances that must share a timeline (the
  /// in-process loopback tests run several transports side by side) pass
  /// the same epoch; by default each instance starts its clock at 0.
  std::optional<std::chrono::steady_clock::time_point> epoch;
  /// Base delay before re-trying a refused/broken peer connection. Each
  /// consecutive failure doubles the delay (capped at connect_retry_cap)
  /// and a successful connect resets it, so a dead peer costs ever fewer
  /// syscalls while a restarted one is picked up quickly.
  Time connect_retry = 50000;  // 50 ms
  Time connect_retry_cap = 2000000;  // 2 s
  /// Uniform jitter applied to every backoff delay (fraction of the delay,
  /// drawn from the transport's seeded RNG): 0.2 → delay x [0.8, 1.2].
  /// Desynchronizes the reconnect stampede when a host restarts.
  double connect_retry_jitter = 0.2;
};

/// Poll-loop TCP implementation of net::Transport.
///
/// Two execution modes:
///
///   Single-threaded (default) — all socket I/O, handlers and timers run on
///   the thread that calls poll_once()/run_for(), exactly like the
///   simulator's event loop.
///
///   Pipelined (after start_pipeline()) — a dedicated transport I/O thread
///   owns every socket: it polls, parses and validates frames, decodes
///   bodies through the wire registry, and writes outgoing records. The
///   thread that calls poll_once()/run_for() becomes the consensus thread:
///   it runs all handlers, timers and loopback deliveries. The two are
///   connected by bounded SPSC rings whose values carry frame buffers by
///   shared_ptr — zero payload bytes cross the boundary by copy. The
///   consensus thread never blocks on the rings (outbound overflow spills to
///   an unbounded consensus-side deque); the I/O thread blocks pushing
///   inbound frames when consensus falls behind, which stalls its reads and
///   turns into genuine TCP backpressure toward the sender.
///
/// Topology (add_host/add_node/set_handler) must be complete before
/// start_pipeline(): the node table is immutable while the I/O thread runs.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpOptions options);
  ~TcpTransport() override;

  /// Binds and listens on the local host's address. Returns false (leaving
  /// the transport unusable but destructible) if sockets are unavailable —
  /// callers in sandboxed environments skip gracefully.
  bool start();
  bool started() const { return listen_fd_ >= 0; }
  /// The actual listening port (after an ephemeral bind of port 0).
  std::uint16_t listen_port() const { return listen_port_; }
  /// Patch a peer's port discovered after its ephemeral bind (in-process
  /// tests bind all transports first, then exchange real ports).
  void set_host_port(HostId host, std::uint16_t port);

  /// One event-loop iteration: waits at most `max_wait` µs for socket or
  /// timer activity, then drains reads, due timers, loopback deliveries,
  /// and pending writes. Returns the number of handler invocations.
  /// In pipelined mode this drives the consensus stage only (the I/O thread
  /// polls the sockets); the calling thread must be the same for every call.
  std::size_t poll_once(Time max_wait);
  /// Runs poll_once until `duration` µs of wall-clock have elapsed.
  std::size_t run_for(Time duration);

  /// Switches to pipelined mode: spawns the transport I/O thread and hands
  /// it the sockets. Call once, after start(), set_host_port() and the full
  /// assembly (the topology freezes here). Returns false if the wake pipe
  /// cannot be created.
  bool start_pipeline();
  bool pipelined() const { return pipelined_; }

  /// Wakes the consensus thread out of its poll_once wait (thread-safe).
  void wake() override;

  /// Closes every socket; the transport stays queryable but inert. In
  /// pipelined mode, stops and joins the I/O thread first.
  void shutdown();

  // -- net::Transport --------------------------------------------------------
  HostId add_host() override;
  NodeId add_node(std::string name, std::optional<HostId> host = std::nullopt) override;
  void set_handler(NodeId node, MessageHandler handler) override;
  const std::string& node_name(NodeId node) const override;
  HostId host_of(NodeId node) const override;
  bool is_local(NodeId node) const override;
  Rng& node_rng(NodeId node) override;

  Time now() const override;
  TimerId schedule_timer_for_node(NodeId node, Time at, TimerFn fn) override;
  void cancel(TimerId id) override;

  void post(NodeId from, NodeId to, Message msg) override;

  void stop(NodeId node) override;
  bool stopped(NodeId node) const override;

  // -- stats -----------------------------------------------------------------
  std::uint64_t messages_delivered() const {
    return delivered_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t wire_drops() const { return wire_drops_.load(std::memory_order_relaxed); }
  /// Scatter-gather write syscalls and the records they carried: the ratio
  /// is the decision-coalescing factor (records per writev).
  std::uint64_t writev_calls() const { return writev_calls_.load(std::memory_order_relaxed); }
  std::uint64_t writev_records() const {
    return writev_records_.load(std::memory_order_relaxed);
  }
  /// Connect attempts made after a failure (first tries don't count).
  std::uint64_t reconnect_attempts() const {
    return reconnect_attempts_.load(std::memory_order_relaxed);
  }
  /// Established peer connections lost (one per outage).
  std::uint64_t peer_down_total() const {
    return peer_down_total_.load(std::memory_order_relaxed);
  }

 private:
  class TcpContext;
  friend class TcpContext;

  struct Node {
    std::string name;
    HostId host;
    MessageHandler handler;
    bool stopped = false;
    Rng rng;
  };

  /// One queued outgoing record: the 12-byte routing prologue plus the
  /// frame, whose buffer is shared with every other destination of the same
  /// multicast and written straight from there (sendmsg/iovec). `offset`
  /// counts bytes already written across the whole record, so a connection
  /// failure mid-record can rewind and resend the record on the replacement
  /// connection (the receiver discarded the partial stream).
  struct OutRecord {
    std::array<std::uint8_t, 12> prefix{};  // [record_len u32][from u32][to u32]
    OwnedBytes frame;
    std::size_t offset = 0;
    std::size_t size() const { return prefix.size() + frame->size(); }
  };

  struct Peer {
    int fd = -1;
    bool connecting = false;
    Time retry_at = 0;        // when to attempt (re)connecting, 0 = now
    Time backoff = 0;         // current (pre-jitter) retry delay, 0 = base
    std::uint64_t attempts = 0;  // consecutive failures this outage
    Time down_since = 0;      // when an established connection died, 0 = never
    std::deque<OutRecord> outq;
  };

  struct Inbound {
    int fd = -1;
    Bytes buf;
    std::size_t consumed = 0;
  };

  struct PendingTimer {
    Time at = 0;
    std::uint64_t seq = 0;
    TimerId id = 0;
    NodeId node{};
    bool operator>(const PendingTimer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  struct LoopbackRecord {
    NodeId from{};
    NodeId to{};
    OwnedBytes frame;
  };

  /// A decoded message crossing I/O thread → consensus thread. The body and
  /// its frame travel by shared_ptr inside `msg`.
  struct InboundDelivery {
    NodeId from{};
    NodeId to{};
    Message msg;
  };

  /// A serialized frame crossing consensus thread → I/O thread. The frame
  /// buffer is the same shared_ptr every other destination of the multicast
  /// holds.
  struct OutboundRecord {
    HostId host{};
    NodeId from{};
    NodeId to{};
    OwnedBytes frame;
  };

  /// Routes one message's frame: loopback queue for local destinations, the
  /// peer connection otherwise.
  void route(NodeId from, NodeId to, Message& msg);
  void enqueue_record(HostId host, NodeId from, NodeId to, OwnedBytes frame);
  void ensure_peer_connection(HostId host);
  void flush_peer(HostId host);
  void fail_peer(HostId host);
  /// Backoff bookkeeping for one failed connect attempt: doubles the delay
  /// (capped), jitters it, arms retry_at, and fires on_reconnect_attempt.
  void schedule_reconnect(HostId host);
  /// A connect completed: resets the backoff and fires on_peer_up.
  void peer_connected(HostId host);
  /// Closes an inbound connection; any partially buffered frame is released
  /// and accounted as a traced wire drop (the peer died mid-record).
  void close_inbound(Inbound& in, wire::FrameStatus reason);
  std::size_t drain_inbound(Inbound& in);
  bool parse_records(Inbound& in, std::size_t& handled);
  /// Validates + decodes one frame and delivers it: a frame read off a
  /// socket (`from_socket`) goes to the consensus thread through the inbound
  /// ring when pipelined; a loopback frame is delivered inline. The decoded
  /// body's batch payloads share `frame`. Invalid frames and unknown headers
  /// become traced drops, never crashes.
  bool dispatch_frame(NodeId from, NodeId to, OwnedBytes frame, bool from_socket);
  /// Delivery tail on the consensus thread: stopped check, observers,
  /// handler invocation.
  bool finish_delivery(NodeId to, Message&& msg);
  std::size_t fire_due_timers();
  std::size_t drain_loopback();
  /// The socket half of one loop iteration (connects, poll, accept, reads,
  /// flushes). `wake_fd` ≥ 0 adds the pipelined I/O thread's wake pipe to
  /// the poll set. Returns frames dispatched.
  std::size_t poll_sockets(Time max_wait, int wake_fd);
  void close_fd(int& fd);

  // -- pipelined mode ----------------------------------------------------------
  void io_loop();
  std::size_t drive_once(Time max_wait);        // consensus-side poll_once
  void push_outbound(OutboundRecord rec);        // consensus thread; never blocks
  std::size_t flush_outbound_overflow();         // consensus thread
  void wake_io();                                // any thread → I/O poll
  void notify_driver();                          // any thread → consensus wait

  TcpOptions options_;
  Rng rng_;
  std::chrono::steady_clock::time_point epoch_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::uint32_t next_host_ = 0;  // add_host() cursor into options_.hosts
  std::vector<Node> nodes_;
  std::vector<Peer> peers_;      // indexed by HostId
  std::vector<Inbound> inbound_;

  std::uint64_t timer_seq_ = 0;
  TimerId next_timer_ = 1;
  std::priority_queue<PendingTimer, std::vector<PendingTimer>, std::greater<>> timers_;
  std::unordered_map<TimerId, TimerFn> timer_fns_;  // cancel() erases the fn

  std::deque<LoopbackRecord> loopback_;

  // Debug uids are assigned on the consensus thread only (route + delivery
  // tail), so a plain counter suffices in both modes.
  std::uint64_t msg_uid_counter_ = 0;
  std::atomic<std::uint64_t> delivered_count_{0};
  std::atomic<std::uint64_t> wire_drops_{0};
  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::uint64_t> writev_records_{0};
  std::atomic<std::uint64_t> reconnect_attempts_{0};
  std::atomic<std::uint64_t> peer_down_total_{0};

  // -- pipelined mode state ----------------------------------------------------
  static constexpr std::size_t kRingCapacity = 4096;
  bool pipelined_ = false;
  std::atomic<bool> io_stop_{false};
  std::thread io_thread_;
  int wake_pipe_[2] = {-1, -1};  // [0] read end in the I/O poll set
  std::unique_ptr<SpscRing<InboundDelivery>> inbound_ring_;
  std::unique_ptr<SpscRing<OutboundRecord>> outbound_ring_;
  /// Consensus-side spill when the outbound ring is full: the consensus
  /// thread must never block (the I/O thread could be blocked pushing
  /// inbound at the same moment), so excess records wait here and re-enter
  /// the ring at the top of every drive iteration.
  std::deque<OutboundRecord> outbound_overflow_;
  std::mutex driver_mu_;
  std::condition_variable driver_cv_;
  bool driver_work_ = false;  // guarded by driver_mu_
};

}  // namespace shadow::net
