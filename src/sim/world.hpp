// The deterministic discrete-event world: virtual clock, machines with a
// CPU-busy model, nodes (processes), a TCP-like FIFO network with latency +
// bandwidth, timers, crash and partition injection, and an observer hook the
// Logic-of-Events recorder subscribes to.
//
// World is the simulation backend of the net::Transport abstraction
// (net/transport.hpp): protocol code sees only net::NodeContext /
// net::Transport and runs identically on the TCP backend. Sim-only features
// — partitions, link faults, wire fidelity, the CPU-busy model — remain
// concrete World API.
//
// Execution model
// ---------------
// Each node belongs to a machine. A machine processes one job (incoming
// message or fired timer) at a time: a job arriving at time t starts at
// max(t, machine.busy_until), the handler runs and *charges* virtual CPU
// micros via Context::charge, and all messages it sends are released at the
// job's completion time. This is what makes throughput saturate and latency
// grow under load exactly as on the paper's cluster — co-located processes
// (ShadowDB replicas and Paxos acceptors share machines in §IV) compete for
// the same CPU.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"
#include "wire/framing.hpp"

namespace shadow::sim {

/// Simulated machines are the sim's realization of transport hosts.
using MachineId = net::HostId;

using TimerId = net::TimerId;
using MessageHandler = net::MessageHandler;

/// Trace observers moved to the transport layer; the sim keeps its old name.
using WorldObserver = net::TransportObserver;

class World;

/// Handed to message/timer handlers; the only way handlers interact with the
/// world (send, charge CPU, set timers), so all effects are attributable.
class Context final : public net::NodeContext {
 public:
  Context(World& world, NodeId self, Time start) : world_(world), self_(self), start_(start) {}

  NodeId self() const override { return self_; }
  Time now() const override { return start_ + charged_; }

  /// Queue a message send; released on the network at job completion.
  void send(NodeId to, Message msg) override;

  /// Send to many destinations, all sharing the message's one frame.
  void multicast(const std::vector<NodeId>& tos, const Message& msg) override;

  /// Consume virtual CPU time. Advances this machine's busy horizon.
  void charge(Time micros) override { charged_ += micros; }

  /// One-shot timer; the callback runs as a job on this node's machine.
  TimerId set_timer(Time delay, net::TimerFn fn) override;
  void cancel_timer(TimerId id) override;

  /// Per-node deterministic RNG.
  Rng& rng() override;

  World& world() { return world_; }
  Time charged() const { return charged_; }

 private:
  friend class World;
  World& world_;
  NodeId self_;
  Time start_;
  Time charged_ = 0;
  std::vector<std::pair<NodeId, Message>> outbox_;
};

/// Byte-level fault model for one directed link: each frame crossing it is
/// independently corrupted (one byte flipped) or truncated (tail cut) with
/// the given probabilities, drawn from the world's seeded RNG.
struct LinkFault {
  double corrupt_prob = 0.0;
  double truncate_prob = 0.0;
};

struct NetworkConfig {
  Time base_latency = 100_us;        // one-way propagation on the LAN
  Time same_machine_latency = 20_us; // loopback between co-located processes
  double bandwidth_bytes_per_us = 125.0;  // 1 Gb/s ≈ 125 B/µs
  double jitter_mean = 15.0;         // exponential jitter, microseconds
};

/// The simulated world. Deterministic given the seed and the schedule of
/// external stimuli.
class World final : public net::Transport {
 public:
  explicit World(std::uint64_t seed = 1, NetworkConfig net = {});
  ~World() override;

  // -- topology (net::Transport) -------------------------------------------
  MachineId add_machine();
  net::HostId add_host() override { return add_machine(); }
  /// Creates a node on the given machine (creates a fresh machine if omitted).
  NodeId add_node(std::string name, std::optional<MachineId> machine = std::nullopt) override;
  void set_handler(NodeId node, MessageHandler handler) override;
  const std::string& node_name(NodeId node) const override;
  MachineId machine_of(NodeId node) const;
  net::HostId host_of(NodeId node) const override { return machine_of(node); }
  /// The sim executes every node's handler in-process.
  bool is_local(NodeId node) const override;

  // -- clock / execution ---------------------------------------------------
  Time now() const override { return now_; }
  /// Runs events with timestamp <= t. Returns number of events processed.
  std::size_t run_until(Time t);
  /// Runs until the event queue drains (or max_events). Returns count.
  std::size_t run(std::size_t max_events = SIZE_MAX);
  bool idle() const;

  // -- external stimuli ----------------------------------------------------
  /// Inject a message from outside any handler (e.g. benchmark drivers).
  void post(NodeId from, NodeId to, Message msg) override;
  /// Schedule an arbitrary callback at now()+delay (benchmark drivers).
  TimerId schedule(Time delay, std::function<void()> fn);
  void cancel(TimerId id) override;

  // -- failure injection ---------------------------------------------------
  void crash(NodeId node);
  void crash_machine(MachineId machine);
  bool crashed(NodeId node) const;
  /// net::Transport lifecycle maps onto crash injection: a stopped node's
  /// handler never runs again and its pending timers are suppressed.
  void stop(NodeId node) override { crash(node); }
  bool stopped(NodeId node) const override { return crashed(node); }
  /// Cut (or heal) the link between two nodes, both directions.
  void set_partitioned(NodeId a, NodeId b, bool blocked);

  // -- wire fidelity / byte-level fault injection ---------------------------
  /// When on, every codec-built message's frame is validated and decoded
  /// at delivery; the handler sees the freshly decoded body (so
  /// shared mutable state cannot be smuggled through shared_ptr bodies), and
  /// the decode is re-encoded and checked byte-identical (round-trip proof).
  void set_wire_fidelity(bool on) { wire_fidelity_ = on; }
  bool wire_fidelity() const { return wire_fidelity_; }

  /// Installs (or updates) a byte-level fault model on the directed link
  /// from→to. Corrupted/truncated frames fail frame validation at delivery
  /// and are dropped, surfaced via WorldObserver::on_wire_drop.
  void set_link_fault(NodeId from, NodeId to, LinkFault fault);
  void clear_link_fault(NodeId from, NodeId to);

  std::uint64_t frames_faulted() const { return frames_faulted_; }
  std::uint64_t wire_drops() const { return wire_drops_; }

  // -- observation ----------------------------------------------------------
  std::uint64_t messages_delivered() const { return delivered_count_; }

  Rng& node_rng(NodeId node) override;

  /// Schedules a node-context timer at absolute time `at` (used by Context).
  TimerId schedule_timer_for_node(NodeId node, Time at, net::TimerFn fn) override;

 private:
  friend class Context;

  struct TimerJob {
    net::TimerFn fn;
  };
  struct Job {
    NodeId node;
    Time arrival;
    std::variant<Message, TimerJob> payload;
  };

  struct Node {
    std::string name;
    MachineId machine;
    MessageHandler handler;
    bool crashed = false;
    Rng rng;
  };

  struct Machine {
    Time busy_until = 0;
    std::deque<Job> queue;
    bool pump_scheduled = false;
    bool crashed = false;
  };

  struct Scheduled {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    TimerId id;
    bool operator>(const Scheduled& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  /// Whether any delivery may take the byte path (decode real frames).
  bool byte_path_possible() const { return wire_fidelity_ || !link_faults_.empty(); }
  /// Counts one outgoing frame (Transport::encode_count) while the byte path
  /// is on: once per send or post, once per multicast fan-out.
  void note_frame(const Message& msg);

  void schedule_at(Time at, TimerId id, std::function<void()> fn);
  void enqueue_job(Job job);
  void pump_machine(MachineId machine);
  void run_job(MachineId machine);
  void release_outbox(Context& ctx, Time completion);
  void deliver(NodeId from, NodeId to, Message msg, Time send_time);
  /// Runs the byte path for one message: inject faults into a private copy
  /// of its frame, validate, decode. Returns false if the frame was dropped
  /// (corruption-as-loss); on success `msg` carries the freshly decoded
  /// body.
  bool transmit_bytes(NodeId from, NodeId to, Message& msg);
  Time link_latency(NodeId from, NodeId to, std::size_t wire_size);
  static std::uint64_t channel_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  }

  NetworkConfig net_;
  Rng rng_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  TimerId next_timer_ = 1;
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>> events_;
  std::unordered_set<TimerId> cancelled_;
  std::vector<Node> nodes_;
  std::vector<Machine> machines_;
  std::unordered_map<std::uint64_t, Time> channel_last_delivery_;
  std::unordered_set<std::uint64_t> partitions_;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t msg_uid_counter_ = 0;
  bool wire_fidelity_ = false;
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  std::uint64_t frames_faulted_ = 0;  // frames mutated by fault injection
  std::uint64_t wire_drops_ = 0;      // frames dropped at delivery validation
};

}  // namespace shadow::sim
