// The transport abstraction the protocol stack is written against.
//
// Every protocol layer (consensus, TOB, PBR/SMR core, baselines, GPM
// runtime) interacts with the outside world exclusively through two
// interfaces:
//
//   NodeContext — handed to message/timer handlers; the only way a handler
//                 can act (send, multicast, charge CPU, set timers, RNG).
//   Transport   — topology (hosts, nodes, handlers), the clock, timers,
//                 external stimuli, stop/crash, and observer hooks.
//
// Two implementations exist:
//
//   sim::World          — the deterministic discrete-event simulator
//                         (virtual clock, CPU-busy model, latency/bandwidth
//                         links, partitions, byte-level fault injection).
//   net::TcpTransport   — a poll(2) event loop per OS process that writes
//                         the same checksummed wire frames to nonblocking
//                         TCP sockets and drives the same handlers.
//
// Because protocol code sees only these interfaces, the identical
// PBR/SMR/TOB binaries run simulated or on real sockets with zero protocol
// changes (the paper deployed on a physical cluster; the sim reproduces its
// figures).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/time.hpp"
#include "wire/framing.hpp"

namespace shadow::net {

/// A host groups co-located nodes (processes): one machine in the simulator,
/// one OS process for the TCP transport. Co-located nodes share CPU (sim)
/// and an event loop (tcp), and talk over loopback.
struct HostId {
  std::uint32_t value = 0;
  constexpr auto operator<=>(const HostId&) const = default;
};

class NodeContext;

using TimerFn = std::function<void(NodeContext&)>;
using MessageHandler = std::function<void(NodeContext&, const Message&)>;

/// Handed to message/timer handlers; the only way handlers interact with the
/// transport (send, charge CPU, set timers), so all effects are attributable.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  virtual NodeId self() const = 0;
  virtual Time now() const = 0;

  /// Queue a message send. Delivery semantics are per-transport (the sim
  /// releases at job completion; TCP writes at handler return).
  virtual void send(NodeId to, Message msg) = 0;

  /// Send to many destinations, encoding the frame at most once.
  virtual void multicast(const std::vector<NodeId>& tos, const Message& msg) = 0;

  /// Consume CPU time: advances the busy horizon in the simulator's CPU
  /// model; a no-op on real hardware (the real CPU was actually consumed).
  virtual void charge(Time micros) = 0;

  /// One-shot timer; the callback runs as a handler job on this node.
  virtual TimerId set_timer(Time delay, TimerFn fn) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Per-node deterministic RNG.
  virtual Rng& rng() = 0;
};

/// Observer hook for trace recording (obs::Tracer, Logic of Events) and
/// debugging. Implemented by both transports.
class TransportObserver {
 public:
  virtual ~TransportObserver() = default;
  virtual void on_send(Time /*t*/, NodeId /*from*/, NodeId /*to*/, const Message& /*m*/) {}
  virtual void on_deliver(Time /*t*/, NodeId /*to*/, const Message& /*m*/) {}
  virtual void on_crash(Time /*t*/, NodeId /*node*/) {}
  /// A frame failed validation at delivery (bad checksum, truncation, or an
  /// unknown header) and was dropped — corruption surfaces as loss.
  virtual void on_wire_drop(Time /*t*/, NodeId /*from*/, NodeId /*to*/,
                            const std::string& /*header*/, std::size_t /*wire_size*/,
                            wire::FrameStatus /*reason*/) {}
  /// A message's frame was handed to the transport: once per send, and once
  /// per multicast fan-out, whose destinations all share the one buffer
  /// (obs turns this into the `net.encode_count` metric). Fires before any
  /// routing, so it also sees frames addressed to stopped nodes.
  virtual void on_frame_sent(Time /*t*/, const Message& /*m*/) {}
  /// An established peer connection died (TCP backend). Fires once per
  /// outage, not per reconnect attempt.
  virtual void on_peer_down(Time /*t*/, HostId /*peer*/) {}
  /// A peer connection (re-)established. `downtime` is µs since the
  /// matching on_peer_down, 0 for a first-ever connect.
  virtual void on_peer_up(Time /*t*/, HostId /*peer*/, Time /*downtime*/) {}
  /// A reconnect attempt was scheduled after a failure. `attempt` counts
  /// from 1 within the outage; `backoff` is the chosen (pre-jitter) delay.
  virtual void on_reconnect_attempt(Time /*t*/, HostId /*peer*/, std::uint64_t /*attempt*/,
                                    Time /*backoff*/) {}
};

/// Abstract transport: topology, clock, timers, lifecycle, observation.
/// Driving execution (run loops) is backend-specific and lives on the
/// concrete classes — tests and benches own a concrete transport anyway.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // -- topology ------------------------------------------------------------
  virtual HostId add_host() = 0;
  /// Creates a node on the given host (creates a fresh host if omitted).
  /// NodeIds are assigned densely in call order, so running the identical
  /// assembly code in every OS process yields the identical node table —
  /// that is how the TCP transport routes by NodeId without a directory.
  virtual NodeId add_node(std::string name, std::optional<HostId> host = std::nullopt) = 0;
  virtual void set_handler(NodeId node, MessageHandler handler) = 0;
  virtual const std::string& node_name(NodeId node) const = 0;
  virtual HostId host_of(NodeId node) const = 0;
  /// Whether this transport instance executes the node's handler (always
  /// true in the sim; true for nodes on the local host under TCP). Assembly
  /// code uses this to construct replica state only where it runs.
  virtual bool is_local(NodeId node) const = 0;
  virtual Rng& node_rng(NodeId node) = 0;

  // -- clock / timers --------------------------------------------------------
  virtual Time now() const = 0;
  /// Schedules a node-context timer at absolute time `at` (NodeContext
  /// timers and component start-up hooks funnel through this).
  virtual TimerId schedule_timer_for_node(NodeId node, Time at, TimerFn fn) = 0;
  virtual void cancel(TimerId id) = 0;

  // -- external stimuli ------------------------------------------------------
  /// Inject a message from outside any handler (benchmark drivers, tests).
  virtual void post(NodeId from, NodeId to, Message msg) = 0;

  // -- lifecycle -------------------------------------------------------------
  /// Stop a node: its handler never runs again and pending timers are
  /// suppressed. The simulator models a crash; TCP uses it for shutdown.
  virtual void stop(NodeId node) = 0;
  virtual bool stopped(NodeId node) const = 0;

  // -- pipelining hooks -------------------------------------------------------
  /// Wake the transport's event loop from another thread. Pipeline stages
  /// call this after handing the consensus thread work through a queue (an
  /// executor pushing a completion, an I/O thread pushing an inbound frame)
  /// so a loop blocked in poll/wait re-evaluates immediately. Single-threaded
  /// transports (the simulator) have nothing to wake: default no-op.
  virtual void wake() {}

  /// Register work the event loop runs whenever it completes an iteration —
  /// after handlers, timers and loopback have drained. The hook returns how
  /// many items it processed so the loop can treat "nonzero" as progress
  /// (e.g. keep draining before sleeping). Used by the executor pipeline to
  /// post transaction completions back onto the consensus thread. Hooks must
  /// be registered before the loop starts running and are never removed.
  void add_idle_hook(std::function<std::size_t()> hook) {
    idle_hooks_.push_back(std::move(hook));
  }

  // -- observation -----------------------------------------------------------
  void add_observer(TransportObserver* obs) { observers_.push_back(obs); }

  /// Frames handed to this transport. A multicast shares its frame across
  /// destinations and counts once (see `net.encode_count`).
  std::uint64_t encode_count() const { return encode_count_; }

 protected:
  const std::vector<TransportObserver*>& observers() const { return observers_; }

  /// Counts one outgoing frame (a send, or a whole multicast fan-out) and
  /// notifies observers.
  void count_frame(const Message& msg) {
    ++encode_count_;
    for (TransportObserver* obs : observers_) obs->on_frame_sent(now(), msg);
  }

  /// Runs every registered idle hook once; returns the total items processed.
  std::size_t run_idle_hooks() {
    std::size_t processed = 0;
    for (auto& hook : idle_hooks_) processed += hook();
    return processed;
  }
  bool has_idle_hooks() const { return !idle_hooks_.empty(); }

  std::vector<TransportObserver*> observers_;
  std::vector<std::function<std::size_t()>> idle_hooks_;
  std::uint64_t encode_count_ = 0;
};

}  // namespace shadow::net
