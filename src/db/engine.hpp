// The in-memory SQL engine.
//
// One implementation, parameterized by EngineTraits, backs the "diverse"
// databases the paper deploys (H2, HSQLDB, Derby for ShadowDB replicas;
// MySQL's memory and InnoDB engines for the baselines). The traits control
// what actually distinguishes those systems for the paper's experiments:
// lock granularity (table vs row), index structure (hash vs ordered), the
// per-operation cost profile, and the lock-wait timeout.
//
// Transactions use strict two-phase locking with undo-based rollback.
// Statements that hit a lock conflict return kBlocked and complete later
// through the wake callback (granted) or abort on timeout — the mechanism
// behind the H2-repl/MySQL contention collapse in Fig. 9(a).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "db/lock_manager.hpp"
#include "db/statement.hpp"
#include "db/table.hpp"
#include "net/time.hpp"

namespace shadow::db {

/// Virtual CPU costs (µs) of engine operations; calibrated per engine
/// flavour (see make_*_traits below and EXPERIMENTS.md).
struct EngineCosts {
  std::uint64_t begin_us = 6;
  std::uint64_t commit_us = 28;
  std::uint64_t insert_us = 16;
  std::uint64_t point_read_us = 9;
  std::uint64_t point_write_us = 14;
  double scan_row_us = 0.35;        // per row visited
  double byte_us = 0.08;            // per byte touched by point reads/writes
  std::uint64_t lock_retry_us = 20; // CPU burned on a failed acquisition
  // State transfer (Fig. 10(b)): row-insertion speed is the bottleneck.
  double snap_serialize_col_us = 4.0;   // per column serialized
  double snap_serialize_byte_us = 0.045;
  double snap_insert_row_us = 30.0;     // per row inserted at the destination
  double snap_insert_byte_us = 0.045;
};

struct EngineTraits {
  std::string name = "h2like";
  bool row_locks = false;     // false: table-level locks (H2, MySQL-memory)
  bool ordered_index = false; // true: ordered storage (HSQLDB, Derby, InnoDB)
  // READ_COMMITTED (H2's default): plain read locks are statement-scoped,
  // released as soon as the statement finishes; write locks are held to
  // commit. false: strict 2PL (Derby/InnoDB serializable-style behaviour).
  bool read_committed = false;
  EngineCosts costs;
  net::Time lock_timeout = 500000;  // 500 ms, H2's default order of magnitude
};

// The engine flavours deployed in the paper's evaluation.
EngineTraits make_h2_traits();      // table locks, hash index, fastest
EngineTraits make_hsqldb_traits();  // table locks, ordered index
EngineTraits make_derby_traits();   // row locks, ordered index, slowest
EngineTraits make_innodb_traits();  // row locks, ordered index, redo overhead
EngineTraits make_mysql_memory_traits();  // table locks, hash index

class Engine {
 public:
  using WakeFn = std::function<void(TxnId, const ExecResult&)>;

  explicit Engine(EngineTraits traits);

  const EngineTraits& traits() const { return traits_; }

  /// DDL, outside transactions (schema setup).
  void create_table(TableSchema schema);
  bool has_table(const std::string& name) const;

  // -- transactions -----------------------------------------------------------
  TxnId begin();
  ExecResult execute(TxnId txn, const Statement& stmt);
  ExecResult commit(TxnId txn);
  /// Client-requested rollback; also used internally on failures.
  ExecResult abort(TxnId txn);
  bool is_active(TxnId txn) const;

  /// Delivery channel for kBlocked statements (grant or timeout-abort).
  void set_wake(WakeFn fn) { wake_ = std::move(fn); }

  /// Drives lock-wait timeouts; call with the current virtual time.
  void tick(net::Time now);
  /// Current virtual time source for lock deadlines (set by the server).
  void set_clock(std::function<net::Time()> clock) { clock_ = std::move(clock); }

  // -- statistics ---------------------------------------------------------------
  std::uint64_t committed_count() const { return committed_; }
  std::uint64_t aborted_count() const { return aborted_; }
  std::size_t total_rows() const;
  /// Transactions currently queued on locks (contention gauge).
  std::size_t waiting_count() const { return locks_.waiting_count(); }

  // -- snapshots / state transfer ----------------------------------------------
  struct SnapshotBatch {
    std::string table;
    Bytes data;
    std::size_t rows = 0;
  };
  struct Snapshot {
    std::vector<SnapshotBatch> batches;
    std::vector<TableSchema> schemas;
    std::uint64_t serialize_cost_us = 0;
    std::size_t total_bytes = 0;
    std::size_t total_rows = 0;
  };

  /// Serializes all tables in ~batch_bytes chunks (the paper uses ~50 KB).
  Snapshot snapshot(std::size_t batch_bytes = 50 * 1024) const;
  /// Like snapshot(), but only rows where `include(table, key)` is true.
  /// Used by shard rebalancing to serialize exactly the migrating range.
  Snapshot snapshot_filtered(
      std::size_t batch_bytes,
      const std::function<bool(const std::string&, const Key&)>& include) const;
  /// Applies one batch; returns the CPU cost (row insertion dominates).
  std::uint64_t restore_batch(const SnapshotBatch& batch);
  /// Installs schemas and clears data (start of a full state transfer).
  void reset_for_restore(const std::vector<TableSchema>& schemas);

  // -- incremental (delta) state transfer ---------------------------------------
  //
  // The replication layer stamps a monotone state version on the engine as it
  // applies its command sequence (the same version at the same position on
  // every replica of a group). Every mutation stamps the current version on
  // what it leaves behind: on the row's storage entry if the key is present
  // (StoredRow::touched), in a per-table tombstone map if it is absent. A
  // delta snapshot "since V" then ships exactly the rows stamped after V plus
  // the keys tombstoned after V — a receiver whose state matches version V
  // reaches the sender's state by upserting/deleting them.

  /// Sets the current state version; mutations stamp their keys with it.
  void set_state_version(std::uint64_t v) { state_version_ = v; }
  std::uint64_t state_version() const { return state_version_; }
  /// Oldest version a delta can be served from. 0 on a fresh engine (every
  /// mutation has been stamped); raised to the restore version after a full
  /// restore (history before it was never observed here).
  std::uint64_t delta_floor() const { return delta_floor_; }
  /// Also re-opens versioned reads from `v`: a completed restore at version
  /// `v` makes current storage exactly the state at `v`. Until then a full
  /// restore leaves both floors parked at UINT64_MAX ("nothing
  /// reconstructible here").
  void set_delta_floor(std::uint64_t v) {
    delta_floor_ = v;
    history_floor_ = v;
  }
  bool delta_valid(std::uint64_t since) const { return since >= delta_floor_; }

  struct DeltaSnapshot {
    std::vector<SnapshotBatch> upserts;  // current rows of keys touched after `since`
    std::vector<std::pair<std::string, std::vector<Key>>> deletes;  // per table
    std::uint64_t serialize_cost_us = 0;
    std::size_t total_bytes = 0;
    std::size_t total_rows = 0;
    std::size_t total_deletes = 0;
  };
  /// Requires delta_valid(since). Deterministic (keys emitted in order).
  DeltaSnapshot delta_snapshot(std::uint64_t since, std::size_t batch_bytes = 50 * 1024) const;
  /// Applies a delta batch: insert-or-overwrite each row. Returns CPU cost.
  std::uint64_t restore_upsert_batch(const SnapshotBatch& batch);
  /// Applies a delta's deletions for one table. Returns CPU cost.
  std::uint64_t apply_deletes(const std::string& table, const std::vector<Key>& keys);
  /// Deletes every row of `table` where `include(key)` (rebalancing: the
  /// donor group drops the migrated range at the routing flip). Returns the
  /// number of rows removed.
  std::size_t delete_where_key(const std::string& table,
                               const std::function<bool(const Key&)>& include);

  /// Order-independent digest of the full database state, for the paper's
  /// State-agreement property ("replicas start in the same state").
  std::uint64_t state_digest() const;

  // -- versioned reads (MVCC-lite) ----------------------------------------------
  //
  // Every mutation captures the key's pre-image into a bounded version chain
  // before overwriting it, stamped with the state version doing the
  // overwrite. A read "at version V" then reconstructs the row exactly as it
  // stood after all mutations stamped <= V: the first chain entry superseding
  // the key after V holds the historical value, and a key with none is
  // unchanged since V, so current storage is the answer. A scan skips the
  // chain lookup for rows whose storage-entry stamp is <= V. Readers never
  // take locks and writers never wait for readers — the chains are
  // append-only and GC'd below the slowest registered reader.

  /// Pins `version` against GC; returns a reader id for release_reader().
  std::uint64_t register_reader(std::uint64_t version);
  void release_reader(std::uint64_t reader_id);
  /// Slowest in-flight registered reader's version (state_version() if none):
  /// the GC watermark — chain entries that only serve reads below it die.
  std::uint64_t read_watermark() const;
  /// Oldest version read_at() can still reconstruct exactly. Raised by GC
  /// (to the watermark) and by full restores (history was never seen here).
  std::uint64_t min_read_version() const { return history_floor_; }
  bool read_version_valid(std::uint64_t v) const { return v >= min_read_version(); }
  /// Executes a read-only statement (kSelect / kScan) against the state as
  /// of `version`, without touching the lock manager or any transaction.
  /// Requires read_version_valid(version).
  ExecResult read_at(const Statement& stmt, std::uint64_t version) const;
  /// Drops version-chain entries no reader can still need. Returns the
  /// number of entries dropped; also runs automatically every few thousand
  /// pre-image captures so unread history never accumulates.
  std::size_t gc_versions();
  /// Live version-chain entries (memory gauge for benches and tests).
  std::size_t version_entries() const { return history_entries_; }

 private:
  struct UndoEntry {
    enum class Kind : std::uint8_t { kInsert, kUpdate, kDelete };
    Kind kind;
    std::string table;
    Key key;
    Row old_row;  // kUpdate/kDelete
  };

  struct Txn {
    enum class State : std::uint8_t { kActive, kBlocked, kCommitted, kAborted };
    State state = State::kActive;
    std::vector<UndoEntry> undo;
    std::unique_ptr<Statement> blocked;  // statement awaiting a lock
  };

  Table& table_of(const std::string& name);
  const Table& table_of(const std::string& name) const;
  /// Stamps a mutation that left (table, key) in storage at the current state
  /// version. `was_absent` (an insert) also drops the key's tombstone: a key
  /// is tombstoned only while absent.
  void touch_present(const std::string& table, const Key& key, StoredRow& stored,
                     bool was_absent);
  /// Stamps a mutation that left (table, key) absent: tombstones the key.
  void touch_absent(const std::string& table, const Key& key);
  /// Removes (table, key) from storage as one mutation: capture, erase, stamp.
  void erase_key(Table& table, const std::string& table_name, const Key& key);
  /// Appends the key's value before the current mutation (`pre_image`, null
  /// if absent) to its version chain, stamped superseded-at the current
  /// state version. Called for every mutation; a second capture within the
  /// same state version is a no-op (the chain records the value at the
  /// version's start).
  void capture_history(const std::string& table, const Key& key, const Row* pre_image);
  ExecResult run_statement(Txn& txn, TxnId id, const Statement& stmt);
  ExecResult do_insert(Txn& txn, const Statement& stmt, Table& table);
  ExecResult do_point(Txn& txn, const Statement& stmt, Table& table);
  ExecResult do_predicate(Txn& txn, const Statement& stmt, Table& table);
  AcquireStatus acquire(TxnId id, Txn& txn, const LockTarget& target, LockMode mode);
  void rollback(Txn& txn);
  void wake_granted(const std::vector<TxnId>& granted);
  ExecResult abort_result(TxnId id, Txn& txn, std::string why);
  net::Time now() const { return clock_ ? clock_() : 0; }

  EngineTraits traits_;
  std::map<std::string, Table> tables_;
  LockManager locks_;
  std::unordered_map<TxnId, Txn> txns_;
  TxnId next_txn_ = 1;
  WakeFn wake_;
  std::function<net::Time()> clock_;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;

  // Delta state-transfer tracking: a present key's last-touch version lives
  // on its storage entry; an absent key's, if a mutation removed it, here.
  // Cleared by reset_for_restore (the floor takes over).
  using Tombstones = std::unordered_map<Key, std::uint64_t, KeyHash>;
  std::uint64_t state_version_ = 0;
  std::uint64_t delta_floor_ = 0;
  std::map<std::string, Tombstones> tombstones_;

  // MVCC-lite version chains: per key, the pre-images of its mutations in
  // ascending superseded-at order. An entry {V, existed, row} holds the value
  // the key had before the first mutation stamped V — i.e. its value at every
  // version in [previous entry's V, V-1].
  struct VersionEntry {
    std::uint64_t superseded_at = 0;
    bool existed = false;
    Row row;
  };
  using VersionChain = std::vector<VersionEntry>;
  /// The first entry of `chain` superseded after `version` (null if none):
  /// the key's value as of `version`, if a later mutation replaced it.
  static const VersionEntry* entry_after(const VersionChain& chain, std::uint64_t version);
  /// entry_after on (table, key)'s chain. Null means the key is unchanged
  /// since `version` (for any version read_version_valid() admits): every
  /// mutation stamped V leaves an entry superseded at V, and GC keeps every
  /// entry above the floor. The one capture that is not a mutation, a
  /// rejected duplicate insert, holds the unchanged current row.
  const VersionEntry* pre_image_after(const std::string& table, const Key& key,
                                      std::uint64_t version) const;
  std::map<std::string, std::unordered_map<Key, VersionChain, KeyHash>> history_;
  std::unordered_map<std::uint64_t, std::uint64_t> readers_;  // reader id → version
  std::uint64_t next_reader_ = 1;
  std::uint64_t history_floor_ = 0;
  std::size_t history_entries_ = 0;
  std::uint64_t captures_since_gc_ = 0;
};

}  // namespace shadow::db
