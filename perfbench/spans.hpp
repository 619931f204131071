// Per-transaction span trees rebuilt from a merged cluster trace.
//
// The program already records events at its layer boundaries (txn_begin at
// the client, tob_broadcast at the TOB frontend, tob_propose at the leader,
// tob_decide / tob_deliver at every TOB node, txn_execute or the 2PC commit at
// every replica, txn_ack back at the client). Joining them by (client, seq)
// and slot gives, for every committed transaction that entered a TOB log, one
// root span begin → ack with six contiguous child stages:
//
//   client.hop          txn_begin      → tob_broadcast  (client → frontend)
//   tob.queue           tob_broadcast  → tob_propose    (batching queue)
//   consensus.decide    tob_propose    → tob_decide     (Paxos round)
//   tob.deliver         tob_decide     → tob_deliver
//   core.exec_queue     tob_deliver    → txn_execute    (executor ring + run)
//     or core.xs        tob_deliver    → 2PC commit     (cross-shard)
//   core.reply          txn_execute    → txn_ack        (reply path)
//
// The replica chain is the (TOB node, replica) pair that applied the
// transaction first — the one whose answer the client most likely kept.
// Snapshot reads never enter a TOB log; they are counted, not staged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace shadow::perfbench {

/// A co-located (TOB node, replica) pair of one replication group.
struct NodePair {
  std::uint32_t group = 0;
  NodeId tob{};
  NodeId db{};
};

inline constexpr std::size_t kStageCount = 6;
inline constexpr std::size_t kApplyStage = 4;  // core.exec_queue or core.xs
extern const char* const kStageNames[kStageCount];

struct SpanReport {
  std::uint64_t committed = 0;     // acked-committed transactions that entered a log
  std::uint64_t covered = 0;       // ... that carry every stage
  std::uint64_t ro_committed = 0;  // snapshot reads (no ordered stages)
  std::uint64_t cross_shard = 0;   // covered cross-shard transactions
  /// Per stage, the duration (µs) of every covered transaction. The apply
  /// stage holds both the executor and the cross-shard variant.
  std::vector<std::vector<double>> stages = std::vector<std::vector<double>>(kStageCount);
  std::vector<double> exec_queue_us;  // single-group transactions only
  std::vector<double> xs_us;          // 2PC prepare → commit at the chosen replica
  /// (client, seq, sum of its stage durations in µs) of every covered txn.
  struct Covered {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    double stage_sum_us = 0;
  };
  std::vector<Covered> covered_spans;
  std::vector<double> batch_sizes;    // first proposal of every slot
  std::uint64_t ballots = 0;
  /// Rejoin streams: state_transfer begin → done at the receiving replica.
  std::vector<double> stream_ms;

  double coverage() const {
    return committed == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(committed);
  }
};

/// A committed transaction's latency as the client process timed it, apart
/// from the trace (the benchmark's own hooks).
struct ClientLatency {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  double us = 0;
};

/// Covered spans that the client also timed: their count, the mean of their
/// stage sums, and the mean of the client's own latencies for them.
struct LatencyMatch {
  std::uint64_t matched = 0;
  double stage_sum_mean_us = 0;
  double client_mean_us = 0;
};
LatencyMatch match_latencies(const SpanReport& report, const std::vector<ClientLatency>& client);

/// Joins the events of `trace` into spans. When `spans_out` is given, writes
/// one JSON line per committed ordered transaction: the root span with its
/// self time and the child stages (empty, with "missing", if not covered).
SpanReport join_spans(const obs::Trace& trace, const std::vector<NodePair>& pairs,
                      std::ostream* spans_out);

/// Quantile of `v` by linear interpolation (v is sorted in place); 0 if empty.
double quantile(std::vector<double>& v, double q);
/// Quantile of whole-microsecond samples, reading each value v as the
/// interval [v - 0.5, v + 0.5) it was rounded from (the grouped-data
/// estimate), so a quantile is not stuck on the 1 µs grid. Sorts `v`.
double quantile_us(std::vector<double>& v, double q);
double mean(const std::vector<double>& v);

}  // namespace shadow::perfbench
