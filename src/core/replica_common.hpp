// Machinery shared by the ShadowDB replication protocols: transaction
// execution against the local engine, at-most-once bookkeeping, the
// server-side cost model, the replication message bodies that PBR and chain
// replication exchange (same shapes under protocol-specific headers), and the
// one snapshot stream PBR, chain and SMR state transfer all mount.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "consensus/types.hpp"
#include "db/engine.hpp"
#include "db/wire.hpp"
#include "repl/state_transfer.hpp"
#include "workload/messages.hpp"
#include "workload/procedures.hpp"

namespace shadow::core {

// -- replication message bodies ----------------------------------------------
//
// PBR and chain replication exchange structurally identical messages; the
// forwarding step even shares one header ("repl-fwd") since the body already
// carries the configuration that scopes it. Snapshot streams use the
// repl/wire.hpp bodies directly (see the stream headers below).

/// Primary → backup (or chain successor), and chain node → successor:
/// execute this transaction. One header for both protocols — a node is only
/// ever part of one, and `config` scopes the message to its configuration.
inline constexpr const char* kReplFwdHeader = "repl-fwd";

/// Primary → backup (or chain successor): execute this transaction.
struct ReplForwardBody {
  ConfigSeq config = 0;
  std::uint64_t order = 0;
  workload::TxnRequest request;
};

/// Backup → primary: transaction at `order` executed. Also the PBR/chain
/// recovery acknowledgement: recovered in `config` up to `order`.
struct ReplAckBody {
  ConfigSeq config = 0;
  std::uint64_t order = 0;
};

/// Election round: (configuration, highest executed order).
struct ReplElectBody {
  ConfigSeq config = 0;
  std::uint64_t executed = 0;
};

/// Catch-up from the bounded executed-transaction cache.
struct ReplCatchupBody {
  ConfigSeq config = 0;
  std::vector<std::pair<std::uint64_t, workload::TxnRequest>> txns;
};

// The snapshot stream (repl/state_transfer.hpp) every protocol's state
// transfer mounts: SMR rejoin and spare promotion, PBR and chain recovery.
// The headers are node-addressed and protocol-free — a node runs one
// protocol, and the bookkeeping in begin/done (PBR/chain configuration,
// SMR resume point) scopes a stream to it.
inline constexpr const char* kSnapBegin2Header = "repl-snap-begin";
inline constexpr const char* kSnapBatch2Header = "repl-snap-batch";
inline constexpr const char* kSnapDelete2Header = "repl-snap-del";
inline constexpr const char* kSnapDone2Header = "repl-snap-done";

inline repl::StreamHeaders snapshot_stream_headers() {
  return {kSnapBegin2Header, kSnapBatch2Header, kSnapDone2Header, kSnapDelete2Header};
}

/// Loopback handoff of a TOB delivery into the replica's own identity.
struct DeliverHandoff {
  Slot slot = 0;
  std::uint64_t index = 0;
  consensus::Command command;
};

/// Loopback handoff of one whole decided slot. The batch travels as the
/// decided `EncodedBatch` — never re-encoded — so a pipelined replica can
/// move it onto its executor thread by reference
/// (the i-th command has global delivery index `base_index + i`).
struct DeliverBatchHandoff {
  Slot slot = 0;
  std::uint64_t base_index = 0;
  consensus::EncodedBatch batch;
};

/// Server-side virtual CPU costs beyond the engine's own (request decode,
/// dispatch, reply marshalling). Replicas execute transactions in-process
/// ("in the same JVM as the database"), so per-statement dispatch is cheap.
struct ServerCosts {
  std::uint64_t per_txn_us = 80;
  // In-process JDBC still pays per-statement dispatch (prepared-statement
  // lookup, parameter binding, result marshalling).
  std::uint64_t per_stmt_us = 14;
};

/// Executes transactions exactly once. "Each replica has to keep track of
/// which transactions have been performed already, treating duplicates as
/// no-ops... by recording the sequence number of the last transaction
/// submitted by each client."
class TxnExecutor {
 public:
  TxnExecutor(std::shared_ptr<db::Engine> engine,
              std::shared_ptr<const workload::ProcedureRegistry> registry,
              ServerCosts costs = {});

  /// Executes (or deduplicates) the request. Returns the response and the
  /// virtual CPU cost the caller must charge.
  struct Execution {
    workload::TxnResponse response;
    std::uint64_t cost_us = 0;
    bool duplicate = false;
  };
  Execution execute(const workload::TxnRequest& req);

  /// Applies a cross-shard transaction's decision (core/twopc.hpp): runs the
  /// staged statements in one engine transaction (commit) or nothing (abort),
  /// records the outcome in the dedup table either way, and prices it like a
  /// normal execution. The statements were planned under exclusive locks, so
  /// they must apply cleanly.
  Execution apply_prepared(const workload::TxnRequest& req,
                           const std::vector<db::Statement>& staged, bool commit,
                           std::string error);

  /// Number of distinct transactions executed (not deduplicated).
  std::uint64_t executed_count() const { return executed_; }

  db::Engine& engine() { return *engine_; }
  const db::Engine& engine() const { return *engine_; }
  std::shared_ptr<db::Engine> engine_ptr() const { return engine_; }

  /// The dedup table travels with state transfer so a restored replica
  /// keeps treating old duplicates as no-ops.
  const std::unordered_map<std::uint32_t, std::pair<RequestSeq, workload::TxnResponse>>&
  dedup_table() const {
    return last_by_client_;
  }
  void install_dedup_table(
      std::unordered_map<std::uint32_t, std::pair<RequestSeq, workload::TxnResponse>> table) {
    last_by_client_ = std::move(table);
  }

 private:
  std::shared_ptr<db::Engine> engine_;
  std::shared_ptr<const workload::ProcedureRegistry> registry_;
  ServerCosts costs_;
  std::unordered_map<std::uint32_t, std::pair<RequestSeq, workload::TxnResponse>> last_by_client_;
  std::uint64_t executed_ = 0;
};

/// Rebuilds the executor's dedup table from a snapshot prologue. The stored
/// responses are synthesized (committed, empty rows): a client that re-sends
/// a request old enough to be under the snapshot's floor has necessarily seen
/// its real response already.
inline void install_snapshot_dedup(TxnExecutor& executor, const repl::SnapBegin2Body& body) {
  std::unordered_map<std::uint32_t, std::pair<RequestSeq, workload::TxnResponse>> dedup;
  for (const auto& [client, seq] : body.dedup_seqs) {
    dedup[client] = {seq, workload::TxnResponse{ClientId{client}, seq, true, {}, ""}};
  }
  executor.install_dedup_table(std::move(dedup));
}

/// Copies the executor's dedup floor into a snapshot prologue.
inline void collect_snapshot_dedup(const TxnExecutor& executor, repl::SnapBegin2Body& body) {
  for (const auto& [client, entry] : executor.dedup_table()) {
    body.dedup_seqs.emplace_back(client, entry.first);
  }
}

}  // namespace shadow::core

namespace shadow::wire {

template <>
struct Codec<core::ReplForwardBody> {
  static void encode(BytesWriter& w, const core::ReplForwardBody& v) {
    w.u64(v.config);
    w.u64(v.order);
    Codec<workload::TxnRequest>::encode(w, v.request);
  }
  static core::ReplForwardBody decode(BytesReader& r) {
    core::ReplForwardBody v;
    v.config = r.u64();
    v.order = r.u64();
    v.request = Codec<workload::TxnRequest>::decode(r);
    return v;
  }
};

template <>
struct Codec<core::ReplAckBody> {
  static void encode(BytesWriter& w, const core::ReplAckBody& v) {
    w.u64(v.config);
    w.u64(v.order);
  }
  static core::ReplAckBody decode(BytesReader& r) {
    core::ReplAckBody v;
    v.config = r.u64();
    v.order = r.u64();
    return v;
  }
};

template <>
struct Codec<core::ReplElectBody> {
  static void encode(BytesWriter& w, const core::ReplElectBody& v) {
    w.u64(v.config);
    w.u64(v.executed);
  }
  static core::ReplElectBody decode(BytesReader& r) {
    core::ReplElectBody v;
    v.config = r.u64();
    v.executed = r.u64();
    return v;
  }
};

template <>
struct Codec<core::ReplCatchupBody> {
  static void encode(BytesWriter& w, const core::ReplCatchupBody& v) {
    w.u64(v.config);
    Codec<std::vector<std::pair<std::uint64_t, workload::TxnRequest>>>::encode(w, v.txns);
  }
  static core::ReplCatchupBody decode(BytesReader& r) {
    core::ReplCatchupBody v;
    v.config = r.u64();
    v.txns = Codec<std::vector<std::pair<std::uint64_t, workload::TxnRequest>>>::decode(r);
    return v;
  }
};

template <>
struct Codec<core::DeliverHandoff> {
  static void encode(BytesWriter& w, const core::DeliverHandoff& v) {
    w.u64(v.slot);
    w.u64(v.index);
    Codec<consensus::Command>::encode(w, v.command);
  }
  static core::DeliverHandoff decode(BytesReader& r) {
    core::DeliverHandoff v;
    v.slot = r.u64();
    v.index = r.u64();
    v.command = Codec<consensus::Command>::decode(r);
    return v;
  }
};

template <>
struct Codec<core::DeliverBatchHandoff> {
  static void encode(BytesWriter& w, const core::DeliverBatchHandoff& v) {
    w.u64(v.slot);
    w.u64(v.base_index);
    Codec<consensus::EncodedBatch>::encode(w, v.batch);
  }
  static core::DeliverBatchHandoff decode(BytesReader& r) {
    core::DeliverBatchHandoff v;
    v.slot = r.u64();
    v.base_index = r.u64();
    v.batch = Codec<consensus::EncodedBatch>::decode(r);
    return v;
  }
};

}  // namespace shadow::wire
