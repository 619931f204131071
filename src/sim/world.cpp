#include "sim/world.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "wire/registry.hpp"

namespace shadow::sim {

// ---------------------------------------------------------------- Context --

void Context::send(NodeId to, Message msg) {
  world_.note_frame(msg);
  msg.from = self_;
  outbox_.emplace_back(to, std::move(msg));
}

void Context::multicast(const std::vector<NodeId>& tos, const Message& msg) {
  if (tos.empty()) return;
  // One frame for the whole fan-out: every destination shares its buffer.
  world_.note_frame(msg);
  for (NodeId to : tos) {
    outbox_.emplace_back(to, msg);
    outbox_.back().second.from = self_;
  }
}

TimerId Context::set_timer(Time delay, net::TimerFn fn) {
  return world_.schedule_timer_for_node(self_, now() + delay, std::move(fn));
}

void Context::cancel_timer(TimerId id) { world_.cancel(id); }

Rng& Context::rng() { return world_.node_rng(self_); }

// ------------------------------------------------------------------ World --

World::World(std::uint64_t seed, NetworkConfig net) : net_(net), rng_(seed) {}

World::~World() = default;

MachineId World::add_machine() {
  machines_.emplace_back();
  return MachineId{static_cast<std::uint32_t>(machines_.size() - 1)};
}

NodeId World::add_node(std::string name, std::optional<MachineId> machine) {
  // Not value_or: its argument is evaluated eagerly, which used to create a
  // phantom empty machine for every explicitly-placed node.
  const MachineId m = machine.has_value() ? *machine : add_machine();
  SHADOW_REQUIRE(m.value < machines_.size());
  Node node;
  node.name = std::move(name);
  node.machine = m;
  node.rng = rng_.fork();
  nodes_.push_back(std::move(node));
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void World::set_handler(NodeId node, MessageHandler handler) {
  SHADOW_REQUIRE(node.value < nodes_.size());
  nodes_[node.value].handler = std::move(handler);
}

const std::string& World::node_name(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].name;
}

MachineId World::machine_of(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].machine;
}

bool World::is_local(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return true;
}

Rng& World::node_rng(NodeId node) {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].rng;
}

std::size_t World::run_until(Time t) {
  std::size_t n = 0;
  while (!events_.empty() && events_.top().at <= t) {
    Scheduled ev = events_.top();
    events_.pop();
    if (cancelled_.erase(ev.id) > 0) continue;
    SHADOW_CHECK(ev.at >= now_);
    now_ = ev.at;
    ev.fn();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

std::size_t World::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && !events_.empty()) {
    Scheduled ev = events_.top();
    events_.pop();
    if (cancelled_.erase(ev.id) > 0) continue;
    SHADOW_CHECK(ev.at >= now_);
    now_ = ev.at;
    ev.fn();
    ++n;
  }
  return n;
}

bool World::idle() const { return events_.empty(); }

void World::post(NodeId from, NodeId to, Message msg) {
  note_frame(msg);
  msg.from = from;
  deliver(from, to, std::move(msg), now_);
}

void World::note_frame(const Message& msg) {
  if (byte_path_possible() && msg.frame != nullptr) count_frame(msg);
}

TimerId World::schedule(Time delay, std::function<void()> fn) {
  const TimerId id = next_timer_++;
  schedule_at(now_ + delay, id, std::move(fn));
  return id;
}

void World::cancel(TimerId id) { cancelled_.insert(id); }

TimerId World::schedule_timer_for_node(NodeId node, Time at, net::TimerFn fn) {
  const TimerId id = next_timer_++;
  schedule_at(at, id, [this, node, fn = std::move(fn)]() mutable {
    if (crashed(node)) return;
    enqueue_job(Job{node, now_, TimerJob{std::move(fn)}});
  });
  return id;
}

void World::crash(NodeId node) {
  SHADOW_REQUIRE(node.value < nodes_.size());
  if (nodes_[node.value].crashed) return;
  nodes_[node.value].crashed = true;
  for (WorldObserver* obs : observers_) obs->on_crash(now_, node);
  // Drop queued jobs addressed to this node.
  auto& q = machines_[nodes_[node.value].machine.value].queue;
  std::erase_if(q, [node](const Job& j) { return j.node == node; });
}

void World::crash_machine(MachineId machine) {
  SHADOW_REQUIRE(machine.value < machines_.size());
  machines_[machine.value].crashed = true;
  machines_[machine.value].queue.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].machine == machine) crash(NodeId{static_cast<std::uint32_t>(i)});
  }
}

bool World::crashed(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].crashed || machines_[nodes_[node.value].machine.value].crashed;
}

void World::set_link_fault(NodeId from, NodeId to, LinkFault fault) {
  link_faults_[channel_key(from, to)] = fault;
}

void World::clear_link_fault(NodeId from, NodeId to) {
  link_faults_.erase(channel_key(from, to));
}

void World::set_partitioned(NodeId a, NodeId b, bool blocked) {
  if (blocked) {
    partitions_.insert(channel_key(a, b));
    partitions_.insert(channel_key(b, a));
  } else {
    partitions_.erase(channel_key(a, b));
    partitions_.erase(channel_key(b, a));
  }
}

void World::schedule_at(Time at, TimerId id, std::function<void()> fn) {
  SHADOW_CHECK(at >= now_);
  events_.push(Scheduled{at, seq_++, std::move(fn), id});
}

void World::enqueue_job(Job job) {
  const MachineId m = nodes_[job.node.value].machine;
  Machine& machine = machines_[m.value];
  if (machine.crashed) return;
  machine.queue.push_back(std::move(job));
  pump_machine(m);
}

void World::pump_machine(MachineId m) {
  Machine& machine = machines_[m.value];
  if (machine.pump_scheduled || machine.queue.empty() || machine.crashed) return;
  machine.pump_scheduled = true;
  const Time start = std::max(now_, machine.busy_until);
  schedule_at(start, 0, [this, m]() { run_job(m); });
}

void World::run_job(MachineId m) {
  Machine& machine = machines_[m.value];
  machine.pump_scheduled = false;
  if (machine.crashed || machine.queue.empty()) return;
  Job job = std::move(machine.queue.front());
  machine.queue.pop_front();

  if (!crashed(job.node)) {
    Context ctx(*this, job.node, now_);
    if (auto* msg = std::get_if<Message>(&job.payload)) {
      for (WorldObserver* obs : observers_) obs->on_deliver(now_, job.node, *msg);
      ++delivered_count_;
      Node& node = nodes_[job.node.value];
      if (node.handler) node.handler(ctx, *msg);
    } else {
      std::get<TimerJob>(job.payload).fn(ctx);
    }
    const Time completion = now_ + ctx.charged();
    machine.busy_until = std::max(machine.busy_until, completion);
    release_outbox(ctx, completion);
  }
  pump_machine(m);
}

void World::release_outbox(Context& ctx, Time completion) {
  for (auto& [to, msg] : ctx.outbox_) {
    const NodeId from = ctx.self();
    if (completion == now_) {
      deliver(from, to, std::move(msg), completion);
    } else {
      schedule_at(completion, 0,
                  [this, from, to, m = std::move(msg)]() mutable { deliver(from, to, std::move(m), now_); });
    }
  }
  ctx.outbox_.clear();
}

void World::deliver(NodeId from, NodeId to, Message msg, Time send_time) {
  SHADOW_REQUIRE(to.value < nodes_.size());
  if (crashed(from) || crashed(to)) return;
  if (partitions_.count(channel_key(from, to)) > 0) return;
  msg.uid = ++msg_uid_counter_;
  for (WorldObserver* obs : observers_) obs->on_send(send_time, from, to, msg);

  const Time latency = link_latency(from, to, msg.wire_size);
  Time arrival = send_time + latency;
  // TCP-like FIFO channels: never deliver earlier than a previously sent
  // message on the same (from, to) channel.
  Time& last = channel_last_delivery_[channel_key(from, to)];
  arrival = std::max(arrival, last);
  last = arrival;

  schedule_at(arrival, 0, [this, from, to, m = std::move(msg)]() mutable {
    if (crashed(to)) return;
    const bool byte_path = wire_fidelity_ || link_faults_.count(channel_key(from, to)) > 0;
    if (byte_path && !transmit_bytes(from, to, m)) return;  // corruption-as-loss
    enqueue_job(Job{to, now_, std::move(m)});
  });
}

bool World::transmit_bytes(NodeId from, NodeId to, Message& msg) {
  SHADOW_CHECK_MSG(msg.frame != nullptr,
                   "message '" + msg.header +
                       "' was built without a codec (explicit-size make_msg) and cannot "
                       "be serialized to a frame");

  // Fault injection mutates a private copy of the frame, so one corrupted
  // destination cannot damage the buffer the rest of the fan-out shares.
  // It runs only on faulted links; clean links read the shared frame.
  OwnedBytes frame = msg.frame;
  if (const auto it = link_faults_.find(channel_key(from, to)); it != link_faults_.end()) {
    bool faulted = false;
    Bytes mutated;
    if (it->second.corrupt_prob > 0 && rng_.chance(it->second.corrupt_prob)) {
      // Flip one byte anywhere in the frame (prologue, header, or body —
      // including inside a batch sub-frame).
      mutated = *msg.frame;
      const std::size_t pos = rng_.index(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng_.index(255));
      faulted = true;
    }
    if (it->second.truncate_prob > 0 && rng_.chance(it->second.truncate_prob)) {
      if (mutated.empty()) mutated = *msg.frame;
      mutated.resize(rng_.index(mutated.size()));
      faulted = true;
    }
    if (faulted) {
      ++frames_faulted_;
      frame = std::make_shared<const Bytes>(std::move(mutated));
    }
  }

  const auto drop = [&](wire::FrameStatus status) {
    // The checksum (or length prologue, or registry lookup) caught the
    // damage: the receiver discards the frame, and the protocol above sees
    // a lost message.
    ++wire_drops_;
    for (WorldObserver* obs : observers_) {
      obs->on_wire_drop(now_, from, to, msg.header, msg.wire_size, status);
    }
    return false;
  };

  wire::FrameView view;
  const wire::FrameStatus status = wire::decode_frame(*frame, view);
  if (status != wire::FrameStatus::kOk) return drop(status);
  SHADOW_CHECK(view.header == msg.header);
  if (msg.has_body()) {
    // A structurally valid frame whose header no codec was registered for
    // cannot be interpreted; receivers drop it rather than crash.
    if (!wire::registry().contains(msg.header)) {
      return drop(wire::FrameStatus::kUnknownHeader);
    }
    // The handler receives the freshly decoded body, not the sender's
    // object: any state shared through the shared_ptr body is severed.
    // (Batch payload views inside the body do share the received frame's
    // buffer — it is immutable, so sharing is safe and free.)
    msg.frame = std::move(frame);
    std::shared_ptr<const std::any> decoded =
        wire::registry().decode(msg.header, msg.body_bytes());
    if (wire_fidelity_) {
      const Bytes reencoded = wire::registry().encode(msg.header, *decoded);
      SHADOW_CHECK_MSG(std::ranges::equal(reencoded, view.body),
                       "message '" + msg.header + "' does not round-trip byte-identically");
    }
    msg.body = std::move(decoded);
  }
  return true;
}

Time World::link_latency(NodeId from, NodeId to, std::size_t wire_size) {
  const bool same_machine = nodes_[from.value].machine == nodes_[to.value].machine;
  const Time base = same_machine ? net_.same_machine_latency : net_.base_latency;
  const Time transmit =
      static_cast<Time>(static_cast<double>(wire_size) / net_.bandwidth_bytes_per_us);
  const Time jitter = static_cast<Time>(rng_.exponential(net_.jitter_mean));
  return base + transmit + jitter;
}

}  // namespace shadow::sim
