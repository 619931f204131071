// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure of the paper's evaluation
// (Sec. IV) and prints the measured series next to the paper's reference
// numbers, so the *shape* comparison (who wins, by what factor, where the
// knees are) is visible directly in the output. See EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace shadow::bench {

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void print_row_rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// One point of a latency/throughput curve.
struct CurvePoint {
  std::size_t clients = 0;
  double throughput_per_sec = 0.0;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double abort_rate = 0.0;
};

inline void print_curve(const std::string& name, const std::vector<CurvePoint>& points,
                        bool with_aborts = false) {
  std::printf("\n-- %s --\n", name.c_str());
  if (with_aborts) {
    std::printf("%8s %14s %14s %12s %10s\n", "clients", "commits/s", "mean lat ms", "p99 ms",
                "aborts");
  } else {
    std::printf("%8s %14s %14s %12s\n", "clients", "throughput/s", "mean lat ms", "p99 ms");
  }
  for (const CurvePoint& p : points) {
    if (with_aborts) {
      std::printf("%8zu %14.1f %14.3f %12.3f %9.1f%%\n", p.clients, p.throughput_per_sec,
                  p.mean_latency_ms, p.p99_latency_ms, p.abort_rate * 100.0);
    } else {
      std::printf("%8zu %14.1f %14.3f %12.3f\n", p.clients, p.throughput_per_sec,
                  p.mean_latency_ms, p.p99_latency_ms);
    }
  }
}

inline double peak_throughput(const std::vector<CurvePoint>& points) {
  double best = 0.0;
  for (const CurvePoint& p : points) best = std::max(best, p.throughput_per_sec);
  return best;
}

/// Prints the per-component counters and latency histograms a Tracer derived
/// from one run (see src/obs/README.md for the metric names).
inline void print_metrics_block(const std::string& name, const obs::MetricsRegistry& metrics) {
  std::printf("\n-- metrics: %s --\n", name.c_str());
  const std::string block = metrics.format();
  std::fputs(block.empty() ? "  (no events recorded)\n" : block.c_str(), stdout);
}

inline void print_metrics_block(const std::string& name, obs::Tracer& tracer) {
  // Fold the process-wide batch counters in so net.batch_encode_count /
  // net.batch_bytes_copied appear in the block.
  tracer.sync_batch_stats();
  print_metrics_block(name, tracer.metrics());
  const auto& counters = tracer.metrics().counters();
  const auto counter = [&](const char* n) -> std::uint64_t {
    const auto it = counters.find(n);
    return it != counters.end() ? it->second.value() : 0;
  };
  const std::uint64_t delivered = counter("tob.deliveries");
  if (delivered > 0) {
    // The batch payload figures of merit, per delivered command: encodes
    // (encode-once keeps this at most 1) and bytes of already-encoded batch
    // content copied into the frames that carried it.
    std::printf("  batch payload: %.2f encodes and %.2f bytes copied per delivered command "
                "(%llu encodes, %llu bytes copied)\n",
                static_cast<double>(counter("net.batch_encode_count")) /
                    static_cast<double>(delivered),
                static_cast<double>(counter("net.batch_bytes_copied")) /
                    static_cast<double>(delivered),
                static_cast<unsigned long long>(counter("net.batch_encode_count")),
                static_cast<unsigned long long>(counter("net.batch_bytes_copied")));
  }
  const auto& histograms = tracer.metrics().histograms();
  const auto adaptive = histograms.find("net.batch_size_adaptive");
  const auto depth = histograms.find("pipeline.queue_depth");
  if (adaptive != histograms.end() || depth != histograms.end()) {
    // The pipelined-mode figure of merit: how far the adaptive batch limit
    // moved under load, and whether the executor thread kept its ring near
    // empty (p99 depth near the ring capacity means execution, not
    // ordering, was the bottleneck).
    std::printf("  pipeline:");
    if (adaptive != histograms.end()) {
      std::printf(" batch limit mean %.1f max %llu", adaptive->second.mean(),
                  static_cast<unsigned long long>(adaptive->second.max()));
    }
    if (depth != histograms.end()) {
      std::printf("%s queue depth p50 %llu p99 %llu",
                  adaptive != histograms.end() ? "," : "",
                  static_cast<unsigned long long>(depth->second.percentile(0.50)),
                  static_cast<unsigned long long>(depth->second.percentile(0.99)));
    }
    std::printf("\n");
  }
}

}  // namespace shadow::bench
