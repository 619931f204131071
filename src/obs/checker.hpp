// Offline trace checker: replays a recorded execution (in-memory or parsed
// back from its JSON-lines export) and verifies the correctness properties
// the paper claims for ShadowDB, from observable events alone:
//
//   total-order      — replicas agree on which transaction occupies every
//                      execution-order index, and TOB nodes agree on which
//                      command occupies every delivery index;
//   at-most-once     — no replica executes the same (client, seq) twice, and
//                      no order index is executed twice on one replica;
//   strict-serializability
//                    — committed transactions are equivalent to a serial
//                      execution in the agreed order that respects real time:
//                      if T1 was acknowledged before T2 was submitted, T1
//                      precedes T2 in the execution order;
//   durability       — every acknowledged-committed transaction was executed
//                      on at least one surviving (never-crashed) replica.
//                      Read-only snapshot transactions are exempt: they never
//                      enter a TOB log (their ro_cut events identify them).
//   cross-shard-atomicity (sharded traces)
//                    — a cross-shard transaction's 2PC decision is uniform:
//                      no participant group applies a commit while another
//                      applies an abort.
//   snapshot-read (sharded traces)
//                    — every cross-shard read-only cut (the per-group read
//                      versions in its ro_cut events) observes each committed
//                      cross-shard transaction uniformly: visible at a shared
//                      group iff its decision applied at a position <= the
//                      cut's version there, and that answer agrees across all
//                      shared groups (no torn reads).
//
// and the consensus safety properties the paper proves for TwoThird and the
// Paxos Synod, per replication group, from the propose/decide digests and
// the acceptors' promise/accept events:
//
//   consensus-agreement  — no slot is decided with two different batches,
//                          across all nodes and incarnations;
//   consensus-validity   — a decided batch was proposed for that slot
//                          (checked for slots that have a propose event: a
//                          SIGKILLed process's proposals are lost with it);
//   consensus-integrity  — a node decides a slot at most once per
//                          incarnation;
//   promise-monotonic    — an acceptor's promise never falls within one
//                          incarnation;
//   accept-above-promise — an acceptor never accepts below its promise;
//   chosen-stability     — once a quorum accepted ballot b for a slot, every
//                          accept at a ballot >= b for it carries b's batch.
//                          The quorum is a majority of the acceptor count
//                          the promise events record.
//
// An incarnation of a node ends at its kCrash event, at a group_info event
// with a new restart epoch, and where merge_traces switches to another
// trace generation (another process lifetime) for it.
//
// Sharded traces (group_info events present, core/group.hpp) are checked
// per replication group — each group is its own TOB instance and execution
// order, so order agreement and the real-time scan run within each group —
// plus cross-shard atomicity over the 2PC decision events. There is no
// cross-group order-agreement check: groups may serialize non-conflicting
// transactions in opposite orders (they commute), and the trace does not
// record key sets, so a checker demanding a single order embedding every
// group's full chain would reject correct executions. Traces without
// group_info events put every node in group 0 and take exactly the original
// single-group checks.
//
// Replicas that crash during the run are excluded from the order-agreement
// comparison by default: a crashed primary may have executed a suffix of
// unacknowledged transactions that the next configuration legitimately
// discards and re-orders (the paper's Durability property only covers
// answered transactions). Internal procedures (names starting with "::",
// e.g. reconfigurations) never count as client transactions.
//
// See src/obs/README.md for the invariant statements and their relation to
// the paper's proofs.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace shadow::obs {

struct Violation {
  std::string invariant;  // "total-order", "at-most-once", "strict-serializability",
                          // "durability", "cross-shard-atomicity", "snapshot-read",
                          // or one of the consensus invariants above
  std::string detail;
};

struct CheckResult {
  std::vector<Violation> violations;
  // Coverage counters so a "pass" on an empty trace is visibly vacuous.
  std::size_t replicas_checked = 0;
  std::size_t executions_checked = 0;
  std::size_t committed_txns_checked = 0;
  std::size_t ro_cuts_checked = 0;  // cross-shard read-only cuts examined
  std::size_t slots_checked = 0;    // decided consensus slots (per group) examined

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

struct CheckOptions {
  /// Include replicas that crashed during the run in the execution-order
  /// agreement check (their unacknowledged suffix may legitimately diverge;
  /// enable only for traces without reconfiguration).
  bool include_crashed_in_order_check = false;
  /// Cap on reported violations (a systematically broken trace would
  /// otherwise produce one violation per event).
  std::size_t max_violations = 32;
};

CheckResult check_trace(const Trace& trace, const CheckOptions& options = {});

/// Merges per-process traces (one Tracer per OS process of a TCP cluster)
/// into a single checkable trace: labels are re-interned into one string
/// table, each event's `gen` is the index of its input trace, and events are
/// ordered by timestamp, which is meaningful across processes because the
/// cluster's transports share a clock epoch.
Trace merge_traces(const std::vector<Trace>& traces);

}  // namespace shadow::obs
