// The DB executor stage of the pipelined threading model.
//
// In pipelined mode a node is a three-stage pipeline (see ARCHITECTURE.md,
// "Threading and pipeline model"):
//
//   transport I/O thread  →  consensus thread  →  DB executor thread
//        (TcpTransport)      (handlers/timers)       (this file)
//
// ExecutorPipeline owns the third stage: a dedicated thread that executes
// decided transaction batches against the replica's engine while the
// consensus thread goes back to ordering the next slots. The two threads are
// connected by bounded SPSC rings whose values carry the decided
// `consensus::EncodedBatch` by shared_ptr — no payload byte crosses the
// ring by copy:
//
//   batches ring      consensus → executor   one DeliverBatchHandoff per
//                                            decided slot, payload shared
//   completions ring  executor → consensus   one response Message per txn,
//                                            posted to the transport by the
//                                            drain_completions() idle hook
//
// Cross-thread ownership rules (the reason this is safe without locking the
// executor state):
//
//   * The consensus thread calls `batch.commands()` BEFORE pushing, so the
//     memoized decode inside the shared EncodedBatch rep is materialized
//     before publication; the executor thread only ever reads it.
//   * TxnExecutor (engine + dedup table) belongs to the executor thread
//     while the pipeline is running. The consensus thread may touch it only
//     after flush() — which is exactly what the snapshot/state-transfer and
//     shutdown paths do.
//   * Response messages are built on the executor thread through the
//     process-wide wire::Registry, whose read path is mutation-free after
//     register_wire_codecs(); they are handed back to the consensus thread,
//     which alone talks to the transport.
//
// Backpressure: the consensus thread spins push → drain completions (it must
// keep draining, or a full completions ring would deadlock both threads);
// the executor blocks on an empty batches ring. Queue depth (batches pushed
// but not yet executed) is exported as the `pipeline.queue_depth` histogram
// and is what TobNode::set_backlog_probe feeds to adaptive batching.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/spsc_ring.hpp"
#include "core/replica_common.hpp"
#include "net/transport.hpp"

namespace shadow::obs {
class Tracer;
}  // namespace shadow::obs

namespace shadow::core {

class ExecutorPipeline {
 public:
  /// `executor` and `tracer` must outlive the pipeline; the executor thread
  /// starts immediately. `self` is the replica node responses are posted
  /// from (via Transport::post on the consensus thread). `metric_scope`
  /// prefixes the queue-depth metric ("group.<id>." in sharded deployments).
  ExecutorPipeline(net::Transport& world, NodeId self, TxnExecutor& executor,
                   std::size_t ring_capacity, obs::Tracer* tracer,
                   std::string metric_scope = {});
  ~ExecutorPipeline();

  ExecutorPipeline(const ExecutorPipeline&) = delete;
  ExecutorPipeline& operator=(const ExecutorPipeline&) = delete;

  /// Consensus thread: hand one decided slot to the executor. Pre-decodes
  /// the batch (decode-before-publish), records `pipeline.queue_depth`, and
  /// drains completions while waiting if the batches ring is full.
  void push(DeliverBatchHandoff handoff);

  /// Consensus thread: post every queued response back into the transport.
  /// Registered as the transport's idle hook; returns messages posted.
  std::size_t drain_completions();

  /// Consensus thread: block until every pushed batch has executed and all
  /// of its responses are posted. Called before any code path that needs
  /// the executor state quiescent under the consensus thread's feet
  /// (snapshots, control commands, digest checks, shutdown).
  void flush();

  /// Batches pushed but not yet fully executed (consensus thread).
  std::size_t queue_depth() const {
    return static_cast<std::size_t>(pushed_ - executed_batches_.load(std::memory_order_acquire));
  }

  /// Transactions the executor thread has finished (thread-safe).
  std::uint64_t executed_txns() const {
    return executed_txns_.load(std::memory_order_relaxed);
  }

  /// Sharded deployments: stamp responses with this group id and the
  /// command's apply position (read-only session floors, see core/rosnap.hpp).
  /// Call before the first push — the executor thread reads it unfenced.
  void set_commit_group(std::uint32_t group) {
    commit_group_ = group;
    stamp_commit_ = true;
  }

  /// flush() + stop and join the executor thread. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  struct Completion {
    NodeId reply_to{};
    net::Message msg;
  };

  void executor_loop();

  net::Transport& world_;
  NodeId self_;
  TxnExecutor& executor_;
  obs::Tracer* tracer_;
  std::string depth_metric_;  // metric_scope + "pipeline.queue_depth"

  SpscRing<DeliverBatchHandoff> batches_;
  SpscRing<Completion> completions_;

  std::uint64_t pushed_ = 0;                      // consensus thread only
  std::atomic<std::uint64_t> executed_batches_{0};
  std::atomic<std::uint64_t> executed_txns_{0};
  std::uint32_t commit_group_ = 0;  // set once before the first push
  bool stamp_commit_ = false;

  std::thread executor_thread_;  // last: joined before members die
};

}  // namespace shadow::core
