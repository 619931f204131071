// Consensus safety for TOB and cluster tests: a run's trace passes the
// offline checker's consensus invariants (obs/checker.hpp), and the check
// was not vacuous.
#pragma once

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "obs/checker.hpp"
#include "tob/tob.hpp"

namespace shadow::testing {

/// Points a TOB config's service and consensus hooks at `tracer`.
inline void trace_consensus(tob::TobConfig& config, obs::Tracer& tracer) {
  config.tracer = &tracer;
  config.paxos.tracer = &tracer;
  config.two_third.tracer = &tracer;
}

/// No consensus invariant is violated on the trace, and it decided at least
/// one slot. The other invariants are left to the tests that assert them
/// (a run beyond the failure budget may lose durability, never agreement).
inline ::testing::AssertionResult consensus_checked(const obs::Tracer& tracer) {
  static const std::set<std::string> kConsensus = {
      "consensus-agreement", "consensus-validity",   "consensus-integrity",
      "promise-monotonic",   "accept-above-promise", "chosen-stability"};
  const obs::CheckResult check = obs::check_trace(
      tracer.snapshot(), {.max_violations = std::numeric_limits<std::size_t>::max()});
  bool ok = check.slots_checked > 0;
  for (const obs::Violation& v : check.violations) ok = ok && kConsensus.count(v.invariant) == 0;
  if (ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << check.summary();
}

}  // namespace shadow::testing
