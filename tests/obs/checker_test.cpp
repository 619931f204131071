// Unit tests for the offline trace checker: a clean trace passes with
// non-vacuous coverage, and each seeded invariant violation — total-order
// divergence, double execution, strict-serializability inversion, lost
// durability, and each consensus invariant — is detected under its name.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/checker.hpp"
#include "obs/trace.hpp"

namespace shadow::obs {
namespace {

/// Hand-building traces event by event keeps each test a readable script of
/// one execution; the builder only fills the fields the checker reads.
struct TraceBuilder {
  Trace trace;

  std::uint32_t label(const std::string& s) {
    const auto it = std::find(trace.strings.begin(), trace.strings.end(), s);
    if (it != trace.strings.end()) {
      return static_cast<std::uint32_t>(it - trace.strings.begin());
    }
    trace.strings.push_back(s);
    return static_cast<std::uint32_t>(trace.strings.size() - 1);
  }

  TraceEvent& add(net::Time t, EventKind kind, NodeId node) {
    TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.node = node;
    trace.events.push_back(e);
    return trace.events.back();
  }

  void begin(net::Time t, ClientId c, RequestSeq s) {
    TraceEvent& e = add(t, EventKind::kTxnBegin, NodeId{100 + c.value});
    e.client = c;
    e.seq = s;
    e.label = label("deposit");
  }

  void execute(net::Time t, NodeId node, ClientId c, RequestSeq s, std::uint64_t order,
               bool duplicate = false, const std::string& proc = "deposit") {
    TraceEvent& e = add(t, EventKind::kTxnExecute, node);
    e.client = c;
    e.seq = s;
    e.a = order;
    e.b = duplicate ? 1 : 0;
    e.c = 1;  // committed
    e.label = label(proc);
  }

  void ack(net::Time t, ClientId c, RequestSeq s, bool committed = true) {
    TraceEvent& e = add(t, EventKind::kTxnAck, NodeId{100 + c.value});
    e.client = c;
    e.seq = s;
    e.a = committed ? 1 : 0;
  }

  void deliver(net::Time t, NodeId node, std::uint64_t index, ClientId c, RequestSeq s) {
    TraceEvent& e = add(t, EventKind::kTobDeliver, node);
    e.client = c;
    e.seq = s;
    e.a = index;  // slot == index in these hand-built traces
    e.b = index;
  }

  void crash(net::Time t, NodeId node) { add(t, EventKind::kCrash, node); }

  void propose(net::Time t, NodeId node, Slot slot, std::uint64_t digest) {
    TraceEvent& e = add(t, EventKind::kTobPropose, node);
    e.a = slot;
    e.c = digest;
  }

  void decide(net::Time t, NodeId node, Slot slot, std::uint64_t digest) {
    TraceEvent& e = add(t, EventKind::kTobDecide, node);
    e.a = slot;
    e.c = digest;
  }

  /// A promise to ballot (round, leader) by one of three acceptors.
  void promise(net::Time t, NodeId acceptor, std::uint64_t round, NodeId leader) {
    TraceEvent& e = add(t, EventKind::kPromise, acceptor);
    e.a = ballot_key(round, leader);
    e.b = 3;
  }

  void accept(net::Time t, NodeId acceptor, Slot slot, std::uint64_t round, NodeId leader,
              std::uint64_t digest) {
    TraceEvent& e = add(t, EventKind::kAccept, acceptor);
    e.a = slot;
    e.b = ballot_key(round, leader);
    e.c = digest;
  }

  void group_info(NodeId node, std::uint64_t group) {
    TraceEvent& e = add(0, EventKind::kGroupInfo, node);
    e.a = group;
  }

  void xs_phase(net::Time t, NodeId node, ClientId c, RequestSeq s, XsPhase phase,
                std::uint64_t group, std::uint64_t pos = 0) {
    TraceEvent& e = add(t, EventKind::kXsPhase, node);
    e.client = c;
    e.seq = s;
    e.a = static_cast<std::uint64_t>(phase);
    e.b = group;
    e.c = pos;
    e.label = label("transfer");
  }

  void ro_cut(net::Time t, ClientId c, RequestSeq s, std::uint64_t group,
              std::uint64_t version, std::uint64_t parts) {
    TraceEvent& e = add(t, EventKind::kRoCut, NodeId{100 + c.value});
    e.client = c;
    e.seq = s;
    e.a = group;
    e.b = version;
    e.c = parts;
  }
};

bool has_violation(const CheckResult& result, const std::string& invariant) {
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

/// Two replicas execute two transactions in the same order, both acked after
/// execution: every invariant holds and the coverage counters are non-zero.
TEST(Checker, CleanTracePassesWithCoverage) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.deliver(20, NodeId{1}, 0, ClientId{1}, 1);
  b.deliver(21, NodeId{2}, 0, ClientId{1}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(31, NodeId{2}, ClientId{1}, 1, 0);
  b.ack(40, ClientId{1}, 1);
  b.begin(50, ClientId{2}, 1);
  b.deliver(60, NodeId{1}, 1, ClientId{2}, 1);
  b.deliver(61, NodeId{2}, 1, ClientId{2}, 1);
  b.execute(70, NodeId{1}, ClientId{2}, 1, 1);
  b.execute(71, NodeId{2}, ClientId{2}, 1, 1);
  b.ack(80, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.replicas_checked, 2u);
  EXPECT_EQ(result.executions_checked, 4u);
  EXPECT_EQ(result.committed_txns_checked, 2u);
  EXPECT_NE(result.summary().find("PASSED"), std::string::npos);
}

TEST(Checker, EmptyTracePassesVacuously) {
  const CheckResult result = check_trace(Trace{});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.replicas_checked, 0u);
  EXPECT_EQ(result.executions_checked, 0u);
}

/// Replica 1 executes (c1#1, c2#1); replica 2 executes them in the opposite
/// order at the same indices — the replicas diverge.
TEST(Checker, DetectsExecutionOrderDivergence) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.begin(11, ClientId{2}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(31, NodeId{1}, ClientId{2}, 1, 1);
  b.execute(30, NodeId{2}, ClientId{2}, 1, 0);
  b.execute(31, NodeId{2}, ClientId{1}, 1, 1);
  b.ack(40, ClientId{1}, 1);
  b.ack(41, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "total-order")) << result.summary();
  EXPECT_NE(result.summary().find("FAILED"), std::string::npos);
}

/// TOB learners disagree on which command occupies delivery index 0. Crash
/// status does not excuse this: consensus safety covers crashed learners too.
TEST(Checker, DetectsTobDeliveryDivergenceEvenOnCrashedNode) {
  TraceBuilder b;
  b.deliver(20, NodeId{1}, 0, ClientId{1}, 1);
  b.deliver(21, NodeId{2}, 0, ClientId{2}, 7);
  b.crash(30, NodeId{2});

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "total-order")) << result.summary();
}

/// One replica executes the same (client, seq) twice without the dedup table
/// marking the second as a duplicate.
TEST(Checker, DetectsDoubleExecutionOfSameTransaction) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(35, NodeId{1}, ClientId{1}, 1, 1);  // re-executed, not flagged duplicate
  b.ack(40, ClientId{1}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "at-most-once")) << result.summary();
}

/// One replica executes two different transactions at the same order index.
TEST(Checker, DetectsDoubleExecutionOfSameOrderIndex) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.begin(11, ClientId{2}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(31, NodeId{1}, ClientId{2}, 1, 0);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "at-most-once")) << result.summary();
}

/// A duplicate answer served from the dedup table is NOT a violation.
TEST(Checker, ToleratesDedupTableDuplicates) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(35, NodeId{1}, ClientId{1}, 1, kUnordered, /*duplicate=*/true);
  b.ack(40, ClientId{1}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
}

/// c2#1 was submitted (t=50) after c1#1 was acknowledged (t=40), yet the
/// agreed order serializes c2#1 first — a real-time inversion.
TEST(Checker, DetectsStrictSerializabilityInversion) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 1);  // c1#1 at order 1
  b.ack(40, ClientId{1}, 1);
  b.begin(50, ClientId{2}, 1);  // submitted after c1#1's answer...
  b.execute(60, NodeId{1}, ClientId{2}, 1, 0);  // ...but serialized before it
  b.ack(70, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "strict-serializability")) << result.summary();
}

/// Same interleaving in the agreed order, but c2#1 began before c1#1 was
/// acked — concurrent transactions may serialize either way.
TEST(Checker, AllowsConcurrentTransactionsInEitherOrder) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.begin(15, ClientId{2}, 1);  // concurrent with c1#1
  b.execute(30, NodeId{1}, ClientId{2}, 1, 0);
  b.execute(31, NodeId{1}, ClientId{1}, 1, 1);
  b.ack(40, ClientId{1}, 1);
  b.ack(41, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
}

/// A committed answer whose transaction only ever executed on a replica that
/// later crashed: the answer is not durable.
TEST(Checker, DetectsLostDurability) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.ack(40, ClientId{1}, 1);
  b.crash(50, NodeId{1});  // the only replica that executed it is gone

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "durability")) << result.summary();
}

/// The same crash is harmless when a surviving replica also executed the
/// transaction.
TEST(Checker, DurabilitySatisfiedByAnySurvivingReplica) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(31, NodeId{2}, ClientId{1}, 1, 0);
  b.ack(40, ClientId{1}, 1);
  b.crash(50, NodeId{1});

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
}

/// A crashed primary's unacknowledged suffix may diverge from the order the
/// next configuration commits; by default crashed replicas are excluded from
/// the execution-order agreement check.
TEST(Checker, CrashedReplicaDivergenceToleratedByDefault) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.begin(11, ClientId{2}, 1);
  // Old primary executed c2#1 at order 1 but crashed before anyone acked it.
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(31, NodeId{1}, ClientId{2}, 1, 1);
  b.crash(35, NodeId{1});
  // The new configuration re-executes order 0 identically but orders a
  // different transaction at index 1.
  b.execute(40, NodeId{2}, ClientId{1}, 1, 0);
  b.ack(45, ClientId{1}, 1);

  EXPECT_TRUE(check_trace(b.trace).ok());

  CheckOptions strict;
  strict.include_crashed_in_order_check = true;
  // With the crashed node included there is no divergence either (its log is
  // a superset at disjoint indices) — extend replica 2 to disagree at index 1.
  b.begin(46, ClientId{3}, 1);
  b.execute(50, NodeId{2}, ClientId{3}, 1, 1);
  b.ack(55, ClientId{3}, 1);
  EXPECT_TRUE(check_trace(b.trace).ok());
  EXPECT_FALSE(check_trace(b.trace, strict).ok());
}

/// Internal procedures (reconfigurations, "::"-prefixed) are not client
/// transactions and never count toward the checks.
TEST(Checker, IgnoresInternalProcedures) {
  TraceBuilder b;
  b.execute(30, NodeId{1}, ClientId{0}, 1, 0, false, "::reconfig");
  b.execute(31, NodeId{2}, ClientId{0}, 2, 0, false, "::view-change");

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.executions_checked, 0u);
}

/// Aborted answers carry no durability or ordering obligation.
TEST(Checker, AbortedAnswersAreNotChecked) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.ack(40, ClientId{1}, 1, /*committed=*/false);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.committed_txns_checked, 0u);
}

/// The violation cap keeps a systematically broken trace's report bounded.
TEST(Checker, ViolationReportIsCapped) {
  TraceBuilder b;
  for (std::uint64_t i = 0; i < 100; ++i) {
    // Every index executed twice on the same replica.
    b.execute(10 + i, NodeId{1}, ClientId{1}, i + 1, i);
    b.execute(11 + i, NodeId{1}, ClientId{2}, i + 1, i);
  }
  CheckOptions options;
  options.max_violations = 5;
  const CheckResult result = check_trace(b.trace, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.violations.size(), 5u);
}

// ---- sharded traces ---------------------------------------------------------

/// A 2PC decision applied as commit on one shard but abort on the other: the
/// transfer is half-applied and the checker must reject the trace. This is
/// the seeded isolation violation the sharded e2e gates rely on being
/// detectable.
TEST(Checker, DetectsCrossShardCommitAbortSplit) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.begin(10, ClientId{1}, 1);
  b.xs_phase(20, NodeId{1}, ClientId{1}, 1, XsPhase::kPrepare, 0);
  b.xs_phase(21, NodeId{2}, ClientId{1}, 1, XsPhase::kPrepare, 1);
  b.xs_phase(30, NodeId{1}, ClientId{1}, 1, XsPhase::kCommit, 0);
  b.xs_phase(31, NodeId{2}, ClientId{1}, 1, XsPhase::kAbort, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "cross-shard-atomicity")) << result.summary();
}

/// One group applying BOTH decisions for the same transaction is equally
/// broken (a replayed decide flipping the verdict).
TEST(Checker, DetectsConflictingDecisionsWithinOneGroup) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.xs_phase(20, NodeId{1}, ClientId{1}, 1, XsPhase::kPrepare, 0);
  b.xs_phase(30, NodeId{1}, ClientId{1}, 1, XsPhase::kCommit, 0);
  b.xs_phase(40, NodeId{1}, ClientId{1}, 1, XsPhase::kAbort, 0);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "cross-shard-atomicity")) << result.summary();
}

/// Uniform decisions — commit everywhere, or abort everywhere — pass.
TEST(Checker, UniformCrossShardDecisionsPass) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.xs_phase(20, NodeId{1}, ClientId{1}, 1, XsPhase::kCommit, 0);
  b.xs_phase(21, NodeId{2}, ClientId{1}, 1, XsPhase::kCommit, 1);
  b.xs_phase(30, NodeId{1}, ClientId{2}, 1, XsPhase::kAbort, 0);
  b.xs_phase(31, NodeId{2}, ClientId{2}, 1, XsPhase::kAbort, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
}

/// Nodes of different groups legitimately execute different transactions at
/// the same order index — order agreement is scoped to the group. A
/// single-group trace with the same events would be a total-order violation.
TEST(Checker, OrderAgreementIsScopedPerGroup) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.begin(11, ClientId{2}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(31, NodeId{2}, ClientId{2}, 1, 0);  // same index, different txn
  b.ack(40, ClientId{1}, 1);
  b.ack(41, ClientId{2}, 1);
  EXPECT_FALSE(check_trace(b.trace).ok());  // one group: divergence

  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  EXPECT_TRUE(check_trace(b.trace).ok()) << check_trace(b.trace).summary();
}

/// Two groups serializing two concurrent committed transactions in opposite
/// orders is NOT a violation: with no conflict information in the trace the
/// transactions may commute (and under no-wait 2PC, concurrently-committed
/// ones provably do). Regression test for an over-strict cross-group cycle
/// check that rejected exactly this.
TEST(Checker, AllowsOppositePositionsInDifferentGroups) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.begin(10, ClientId{1}, 1);
  b.begin(11, ClientId{2}, 1);  // concurrent with c1#1
  // Group 0 serializes c1#1 before c2#1; group 1 the other way around.
  b.execute(30, NodeId{1}, ClientId{1}, 1, 0);
  b.execute(31, NodeId{1}, ClientId{2}, 1, 1);
  b.execute(30, NodeId{2}, ClientId{2}, 1, 0);
  b.execute(31, NodeId{2}, ClientId{1}, 1, 1);
  b.ack(40, ClientId{1}, 1);
  b.ack(41, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.committed_txns_checked, 2u);
}

/// The real-time scan still applies within each group of a sharded trace.
TEST(Checker, DetectsRealTimeInversionInsideOneGroupOfShardedTrace) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.begin(10, ClientId{1}, 1);
  b.execute(30, NodeId{1}, ClientId{1}, 1, 1);
  b.ack(40, ClientId{1}, 1);
  b.begin(50, ClientId{2}, 1);                  // after c1#1's answer...
  b.execute(60, NodeId{1}, ClientId{2}, 1, 0);  // ...but serialized before it in group 0
  b.ack(70, ClientId{2}, 1);
  // Group 1 does unrelated clean work.
  b.begin(12, ClientId{3}, 1);
  b.execute(35, NodeId{2}, ClientId{3}, 1, 0);
  b.ack(45, ClientId{3}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "strict-serializability")) << result.summary();
}

// ---- read-only snapshot cuts ------------------------------------------------

/// A committed cross-shard transfer applied at position 5 on group 0 and 9 on
/// group 1. A read-only cut pinned at {g0: 5, g1: 8} sees the transfer's
/// debit but not its credit — a torn read the checker must reject. This is
/// the seeded violation the snapshot-read e2e gates rely on being detectable.
TEST(Checker, DetectsTornSnapshotReadCut) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.xs_phase(20, NodeId{1}, ClientId{1}, 1, XsPhase::kCommit, 0, /*pos=*/5);
  b.xs_phase(21, NodeId{2}, ClientId{1}, 1, XsPhase::kCommit, 1, /*pos=*/9);
  b.begin(30, ClientId{2}, 1);
  b.ro_cut(40, ClientId{2}, 1, 0, 5, 2);  // includes: 5 <= 5
  b.ro_cut(40, ClientId{2}, 1, 1, 8, 2);  // excludes: 9 > 8
  b.ack(50, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "snapshot-read")) << result.summary();
  EXPECT_EQ(result.ro_cuts_checked, 1u);
}

/// Cuts that include the transaction everywhere, or exclude it everywhere,
/// both pass — atomic visibility only demands uniformity.
TEST(Checker, ConsistentSnapshotReadCutsPass) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.xs_phase(20, NodeId{1}, ClientId{1}, 1, XsPhase::kCommit, 0, /*pos=*/5);
  b.xs_phase(21, NodeId{2}, ClientId{1}, 1, XsPhase::kCommit, 1, /*pos=*/9);
  b.begin(30, ClientId{2}, 1);
  b.ro_cut(40, ClientId{2}, 1, 0, 6, 2);  // after the commit on both groups
  b.ro_cut(40, ClientId{2}, 1, 1, 9, 2);
  b.ack(50, ClientId{2}, 1);
  b.begin(60, ClientId{2}, 2);
  b.ro_cut(70, ClientId{2}, 2, 0, 4, 2);  // before the commit on both groups
  b.ro_cut(70, ClientId{2}, 2, 1, 8, 2);
  b.ack(80, ClientId{2}, 2);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.ro_cuts_checked, 2u);
}

/// A cut sharing only ONE group with a committed cross-shard transaction can
/// never tear it: per-group visibility is atomic by construction.
TEST(Checker, SingleSharedGroupIsNeverATornCut) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.group_info(NodeId{3}, 2);
  b.xs_phase(20, NodeId{1}, ClientId{1}, 1, XsPhase::kCommit, 0, /*pos=*/5);
  b.xs_phase(21, NodeId{2}, ClientId{1}, 1, XsPhase::kCommit, 1, /*pos=*/9);
  b.begin(30, ClientId{2}, 1);
  b.ro_cut(40, ClientId{2}, 1, 1, 3, 2);  // excludes the transfer on g1...
  b.ro_cut(40, ClientId{2}, 1, 2, 7, 2);  // ...g2 never saw it at all
  b.ack(50, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
}

/// Commit events without an apply position (pre-versioned-storage traces,
/// e.c == 0) are skipped rather than misread as "position 0, always included".
TEST(Checker, UnrecordedCommitPositionsAreSkipped) {
  TraceBuilder b;
  b.group_info(NodeId{1}, 0);
  b.group_info(NodeId{2}, 1);
  b.xs_phase(20, NodeId{1}, ClientId{1}, 1, XsPhase::kCommit, 0);  // pos unrecorded
  b.xs_phase(21, NodeId{2}, ClientId{1}, 1, XsPhase::kCommit, 1, /*pos=*/9);
  b.begin(30, ClientId{2}, 1);
  b.ro_cut(40, ClientId{2}, 1, 0, 100, 2);
  b.ro_cut(40, ClientId{2}, 1, 1, 1, 2);
  b.ack(50, ClientId{2}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
}

/// Read-only snapshot transactions never execute as state-machine commands,
/// so a committed answer with ro_cut events and no execution is NOT a
/// durability violation (a write with the same shape still is).
TEST(Checker, ReadOnlyTransactionsExemptFromDurability) {
  TraceBuilder b;
  b.begin(10, ClientId{1}, 1);
  b.ro_cut(20, ClientId{1}, 1, 0, 7, 1);
  b.ack(30, ClientId{1}, 1);

  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.committed_txns_checked, 1u);

  b.begin(40, ClientId{2}, 1);  // a write with no surviving execution
  b.ack(50, ClientId{2}, 1);
  EXPECT_TRUE(has_violation(check_trace(b.trace), "durability"));
}

// ---- consensus invariants ----------------------------------------------------

/// One Paxos slot end to end: leader n0 proposes, all three acceptors
/// promise and accept its ballot, every learner decides the proposed batch.
TraceBuilder one_clean_slot() {
  TraceBuilder b;
  b.propose(10, NodeId{0}, 0, 0xa);
  for (std::uint32_t n = 0; n < 3; ++n) {
    b.promise(20, NodeId{n}, 1, NodeId{0});
    b.accept(30, NodeId{n}, 0, 1, NodeId{0}, 0xa);
  }
  for (std::uint32_t n = 0; n < 3; ++n) b.decide(40, NodeId{n}, 0, 0xa);
  return b;
}

TEST(CheckerConsensus, CleanSlotPassesWithSlotCoverage) {
  const CheckResult result = check_trace(one_clean_slot().trace);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.slots_checked, 1u);
  EXPECT_NE(result.summary().find("1 consensus slots"), std::string::npos);
  EXPECT_EQ(check_trace(Trace{}).slots_checked, 0u);
}

/// The Google disk-corruption bug of Sec. II-D: a promise going backwards.
TEST(CheckerConsensus, DetectsPromiseDecrease) {
  TraceBuilder b;
  b.promise(10, NodeId{1}, 3, NodeId{0});
  b.promise(20, NodeId{1}, 5, NodeId{1});  // ok: increases
  EXPECT_TRUE(check_trace(b.trace).ok());
  b.promise(30, NodeId{1}, 2, NodeId{0});
  EXPECT_TRUE(has_violation(check_trace(b.trace), "promise-monotonic"));
}

TEST(CheckerConsensus, DetectsAcceptBelowPromise) {
  TraceBuilder b;
  b.promise(10, NodeId{1}, 5, NodeId{0});
  b.accept(20, NodeId{1}, 0, 3, NodeId{0}, 0xa);
  EXPECT_TRUE(has_violation(check_trace(b.trace), "accept-above-promise"));
}

TEST(CheckerConsensus, DetectsConflictingDecisions) {
  TraceBuilder b;
  b.propose(10, NodeId{0}, 0, 0xa);
  b.propose(11, NodeId{1}, 0, 0xb);
  b.decide(20, NodeId{0}, 0, 0xa);
  b.decide(21, NodeId{1}, 0, 0xb);
  const CheckResult result = check_trace(b.trace);
  EXPECT_TRUE(has_violation(result, "consensus-agreement")) << result.summary();
  EXPECT_FALSE(has_violation(result, "consensus-validity")) << "both values were proposed";
}

TEST(CheckerConsensus, DetectsInventedDecidedValue) {
  TraceBuilder b;
  b.propose(10, NodeId{0}, 0, 0xa);
  b.decide(20, NodeId{0}, 0, 0xdead);
  EXPECT_TRUE(has_violation(check_trace(b.trace), "consensus-validity"));

  TraceBuilder unproposed;  // a slot whose proposer's trace was lost
  unproposed.decide(20, NodeId{0}, 0, 0xdead);
  EXPECT_TRUE(check_trace(unproposed.trace).ok());
}

TEST(CheckerConsensus, DetectsSecondDecisionInOneIncarnation) {
  TraceBuilder b = one_clean_slot();
  b.decide(50, NodeId{1}, 0, 0xa);  // the same value, but decided twice
  EXPECT_TRUE(has_violation(check_trace(b.trace), "consensus-integrity"));

  TraceBuilder restarted = one_clean_slot();
  restarted.crash(50, NodeId{1});
  restarted.decide(60, NodeId{1}, 0, 0xa);  // a new incarnation learns it again
  EXPECT_TRUE(check_trace(restarted.trace).ok());
}

TEST(CheckerConsensus, DetectsChosenValueChangedByHigherBallot) {
  TraceBuilder b;
  b.accept(10, NodeId{0}, 0, 1, NodeId{0}, 0xa);
  b.accept(11, NodeId{1}, 0, 1, NodeId{0}, 0xa);  // a quorum: 0xa is chosen
  b.accept(20, NodeId{2}, 0, 2, NodeId{1}, 0xb);
  b.promise(5, NodeId{0}, 1, NodeId{0});  // records the synod size (3)
  EXPECT_TRUE(has_violation(check_trace(b.trace), "chosen-stability"));

  TraceBuilder minority;  // one acceptor is no quorum: 0xa was never chosen
  minority.promise(5, NodeId{0}, 1, NodeId{0});
  minority.accept(10, NodeId{0}, 0, 1, NodeId{0}, 0xa);
  minority.accept(20, NodeId{1}, 0, 2, NodeId{1}, 0xb);
  minority.accept(21, NodeId{2}, 0, 2, NodeId{1}, 0xb);
  EXPECT_TRUE(check_trace(minority.trace).ok());
}

/// Amnesia across restarts is outside these invariants: an acceptor's
/// promise may fall across its crash, never within one incarnation.
TEST(CheckerConsensus, PromiseMayFallOnlyAcrossAnIncarnation) {
  TraceBuilder b;
  b.promise(10, NodeId{1}, 5, NodeId{1});
  b.crash(20, NodeId{1});
  b.promise(30, NodeId{1}, 2, NodeId{0});
  EXPECT_TRUE(check_trace(b.trace).ok()) << check_trace(b.trace).summary();

  TraceBuilder no_crash;
  no_crash.promise(10, NodeId{1}, 5, NodeId{1});
  no_crash.promise(30, NodeId{1}, 2, NodeId{0});
  EXPECT_TRUE(has_violation(check_trace(no_crash.trace), "promise-monotonic"));

  // A new restart epoch, or the next trace generation of a merged run,
  // starts a new incarnation as a crash does.
  TraceBuilder epochs;
  epochs.group_info(NodeId{1}, 0);  // epoch 0
  epochs.promise(10, NodeId{1}, 5, NodeId{1});
  epochs.add(20, EventKind::kGroupInfo, NodeId{1}).b = 1;
  epochs.promise(30, NodeId{1}, 2, NodeId{0});
  EXPECT_TRUE(check_trace(epochs.trace).ok());
  TraceBuilder first;
  first.promise(10, NodeId{1}, 5, NodeId{1});
  TraceBuilder second;
  second.promise(30, NodeId{1}, 2, NodeId{0});
  EXPECT_TRUE(check_trace(merge_traces({first.trace, second.trace})).ok());
}

}  // namespace
}  // namespace shadow::obs
