#include "db/engine.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace shadow::db {

EngineTraits make_h2_traits() {
  EngineTraits t;
  t.name = "h2like";
  t.row_locks = false;     // "H2 does not offer row-level locks"
  t.ordered_index = true;  // H2's MVStore is a B-tree: range scans work
  t.read_committed = true; // H2's default isolation level
  return t;
}

EngineTraits make_hsqldb_traits() {
  EngineTraits t;
  t.name = "hsqldblike";
  t.row_locks = false;
  t.ordered_index = true;
  t.read_committed = true;
  t.costs.point_read_us = 11;
  t.costs.point_write_us = 17;
  t.costs.insert_us = 19;
  return t;
}

EngineTraits make_derby_traits() {
  EngineTraits t;
  t.name = "derbylike";
  t.row_locks = true;
  t.ordered_index = true;
  t.costs.point_read_us = 14;
  t.costs.point_write_us = 22;
  t.costs.insert_us = 25;
  t.costs.commit_us = 40;
  return t;
}

EngineTraits make_innodb_traits() {
  EngineTraits t;
  t.name = "innodblike";
  t.row_locks = true;
  t.ordered_index = true;
  // InnoDB's plain SELECTs are MVCC consistent reads that take no locks;
  // statement-scoped read locks are the closest lock-based approximation.
  t.read_committed = true;
  // Row locks plus redo-log bookkeeping (synchronous disk writes disabled,
  // as in the paper's MySQL configuration).
  t.costs.point_read_us = 12;
  t.costs.point_write_us = 20;
  t.costs.insert_us = 22;
  t.costs.commit_us = 45;
  t.lock_timeout = 2000000;  // InnoDB waits far longer than H2 by default
  return t;
}

EngineTraits make_mysql_memory_traits() {
  EngineTraits t;
  t.name = "mysql-memory";
  t.read_committed = true;  // MySQL's default isolation on MyISAM/MEMORY
  t.row_locks = false;      // the memory engine only provides table locking
  t.ordered_index = false;  // hash-indexed: "less than"/"order by" degrade to
                            // full scans, which is why the paper switches
                            // MySQL to InnoDB for TPC-C
  t.costs.point_read_us = 10;
  t.costs.point_write_us = 15;
  t.costs.insert_us = 17;
  t.costs.commit_us = 32;
  return t;
}

Engine::Engine(EngineTraits traits) : traits_(std::move(traits)) {}

void Engine::create_table(TableSchema schema) {
  SHADOW_REQUIRE_MSG(tables_.find(schema.name) == tables_.end(),
                     "table already exists: " + schema.name);
  SHADOW_REQUIRE(!schema.columns.empty() && !schema.primary_key.empty());
  std::string name = schema.name;
  tables_.emplace(std::move(name), Table(std::move(schema), traits_.ordered_index));
}

bool Engine::has_table(const std::string& name) const { return tables_.count(name) > 0; }

Table& Engine::table_of(const std::string& name) {
  auto it = tables_.find(name);
  SHADOW_REQUIRE_MSG(it != tables_.end(), "unknown table: " + name);
  return it->second;
}

const Table& Engine::table_of(const std::string& name) const {
  auto it = tables_.find(name);
  SHADOW_REQUIRE_MSG(it != tables_.end(), "unknown table: " + name);
  return it->second;
}

TxnId Engine::begin() {
  const TxnId id = next_txn_++;
  txns_[id] = Txn{};
  return id;
}

bool Engine::is_active(TxnId txn) const {
  auto it = txns_.find(txn);
  return it != txns_.end() &&
         (it->second.state == Txn::State::kActive || it->second.state == Txn::State::kBlocked);
}

AcquireStatus Engine::acquire(TxnId id, Txn& txn, const LockTarget& target, LockMode mode) {
  const AcquireStatus status = locks_.acquire(id, target, mode, now() + traits_.lock_timeout);
  if (status == AcquireStatus::kQueued) txn.state = Txn::State::kBlocked;
  return status;
}

ExecResult Engine::execute(TxnId id, const Statement& stmt) {
  auto it = txns_.find(id);
  if (it == txns_.end()) {
    ExecResult r;
    r.status = ExecResult::Status::kAborted;
    r.error = "transaction no longer exists";
    return r;
  }
  Txn& txn = it->second;
  if (txn.state == Txn::State::kAborted) {
    ExecResult r;
    r.status = ExecResult::Status::kAborted;
    r.error = "transaction already aborted";
    return r;
  }
  SHADOW_REQUIRE_MSG(txn.state == Txn::State::kActive, "transaction is not active");
  ExecResult result = run_statement(txn, id, stmt);
  if (result.status == ExecResult::Status::kBlocked) {
    txn.blocked = std::make_unique<Statement>(stmt);
  }
  return result;
}

ExecResult Engine::run_statement(Txn& txn, TxnId id, const Statement& stmt) {
  ExecResult result;
  if (stmt.kind == Statement::Kind::kCreateTable) {
    create_table(stmt.schema);
    result.cost_us = traits_.costs.insert_us;
    return result;
  }

  Table& table = table_of(stmt.table);

  // -- locking ---------------------------------------------------------------
  const bool write = !stmt.is_read_only() || stmt.for_update;
  const LockMode mode = write ? LockMode::kExclusive : LockMode::kShared;
  LockTarget target{stmt.table, std::nullopt};
  const bool point_op = stmt.kind == Statement::Kind::kInsert ||
                        stmt.kind == Statement::Kind::kSelect ||
                        stmt.kind == Statement::Kind::kUpdate ||
                        stmt.kind == Statement::Kind::kDelete;
  if (traits_.row_locks && point_op) {
    // Multigranularity: IS/IX on the table, then S/X on the row. The
    // intention lock is what keeps whole-table scans (S/X on the table)
    // from seeing uncommitted row updates.
    const LockMode intent =
        write ? LockMode::kIntentionExclusive : LockMode::kIntentionShared;
    const AcquireStatus intent_status = acquire(id, txn, target, intent);
    if (intent_status == AcquireStatus::kDeadlock) {
      return abort_result(id, txn, "deadlock detected on " + stmt.table);
    }
    if (intent_status == AcquireStatus::kQueued) {
      result.status = ExecResult::Status::kBlocked;
      result.cost_us = traits_.costs.lock_retry_us;
      return result;
    }
    target.row = stmt.kind == Statement::Kind::kInsert ? table.schema.key_of(stmt.row) : stmt.key;
  }
  const AcquireStatus status = acquire(id, txn, target, mode);
  if (status == AcquireStatus::kDeadlock) {
    return abort_result(id, txn, "deadlock detected on " + stmt.table);
  }
  if (status == AcquireStatus::kQueued) {
    result.status = ExecResult::Status::kBlocked;
    result.cost_us = traits_.costs.lock_retry_us;
    return result;
  }

  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      result = do_insert(txn, stmt, table);
      break;
    case Statement::Kind::kSelect:
    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete:
      result = do_point(txn, stmt, table);
      break;
    case Statement::Kind::kScan:
    case Statement::Kind::kUpdateWhere:
    case Statement::Kind::kDeleteWhere:
      result = do_predicate(txn, stmt, table);
      break;
    case Statement::Kind::kCreateTable:
      SHADOW_CHECK_MSG(false, "unreachable statement kind");
      break;
  }
  // READ_COMMITTED: plain read locks are statement-scoped.
  if (traits_.read_committed && !write && result.status == ExecResult::Status::kOk) {
    wake_granted(locks_.release_shared(id, target));
    if (target.row.has_value()) {
      wake_granted(locks_.release_shared(id, LockTarget{stmt.table, std::nullopt}));
    }
  }
  return result;
}

namespace {

Row project(const Row& row, const std::vector<std::size_t>& columns) {
  if (columns.empty()) return row;
  Row out;
  out.reserve(columns.size());
  for (std::size_t c : columns) out.push_back(row[c]);
  return out;
}

void apply_sets(Row& row, const std::vector<SetClause>& sets) {
  for (const SetClause& set : sets) {
    if (set.op == SetOp::kAssign) {
      row[set.column] = set.value;
    } else {
      row[set.column] = row[set.column].plus(set.value);
    }
  }
}

}  // namespace

ExecResult Engine::do_insert(Txn& txn, const Statement& stmt, Table& table) {
  ExecResult result;
  result.cost_us = traits_.costs.insert_us +
                   static_cast<std::uint64_t>(traits_.costs.byte_us *
                                              static_cast<double>(row_wire_size(stmt.row)));
  SHADOW_REQUIRE_MSG(stmt.row.size() == table.schema.columns.size(),
                     "row arity mismatch for " + stmt.table);
  const Key key = table.schema.key_of(stmt.row);
  const auto [stored, inserted] = table.storage->insert(key, Row(stmt.row));
  capture_history(stmt.table, key, inserted ? nullptr : &stored->row);
  if (!inserted) {
    result.status = ExecResult::Status::kAborted;
    result.error = "duplicate primary key in " + stmt.table;
    return result;
  }
  txn.undo.push_back(UndoEntry{UndoEntry::Kind::kInsert, stmt.table, key, {}});
  touch_present(stmt.table, key, *stored, /*was_absent=*/true);
  result.affected = 1;
  return result;
}

ExecResult Engine::do_point(Txn& txn, const Statement& stmt, Table& table) {
  ExecResult result;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      result.cost_us = traits_.costs.point_read_us;
      if (const StoredRow* stored = table.storage->find(stmt.key)) {
        result.cost_us += static_cast<std::uint64_t>(
            traits_.costs.byte_us * static_cast<double>(row_wire_size(stored->row)));
        result.rows.push_back(project(stored->row, stmt.select_columns));
      }
      return result;
    }
    case Statement::Kind::kUpdate: {
      result.cost_us = traits_.costs.point_write_us;
      if (StoredRow* stored = table.storage->find(stmt.key)) {
        result.cost_us += static_cast<std::uint64_t>(
            traits_.costs.byte_us * static_cast<double>(row_wire_size(stored->row)));
        txn.undo.push_back(UndoEntry{UndoEntry::Kind::kUpdate, stmt.table, stmt.key, stored->row});
        capture_history(stmt.table, stmt.key, &stored->row);
        apply_sets(stored->row, stmt.sets);
        touch_present(stmt.table, stmt.key, *stored, /*was_absent=*/false);
        result.affected = 1;
      }
      return result;
    }
    case Statement::Kind::kDelete: {
      result.cost_us = traits_.costs.point_write_us;
      if (std::optional<Row> row = table.storage->take(stmt.key)) {
        capture_history(stmt.table, stmt.key, &*row);
        txn.undo.push_back(
            UndoEntry{UndoEntry::Kind::kDelete, stmt.table, stmt.key, std::move(*row)});
        touch_absent(stmt.table, stmt.key);
        result.affected = 1;
      }
      return result;
    }
    default:
      SHADOW_CHECK_MSG(false, "not a point statement");
      return result;
  }
}

namespace {

/// Index-range planning: extract the longest equality-pinned prefix of the
/// primary key (plus an optional lower/upper bound on the next key column)
/// from a conjunction. All conditions are still re-checked as filters, so
/// the plan only affects which rows are *visited*.
struct ScanPlan {
  Key prefix;                       // equality-pinned leading PK columns
  std::optional<Value> next_lo;     // >= bound on the next PK column
  std::optional<Value> next_hi;     // <= / < bound on the next PK column
  bool use_index = false;
};

ScanPlan plan_scan(const Statement& stmt, const TableSchema& schema) {
  ScanPlan plan;
  for (std::size_t pk_pos = 0; pk_pos < schema.primary_key.size(); ++pk_pos) {
    const std::size_t col = schema.primary_key[pk_pos];
    const Condition* eq = nullptr;
    for (const Condition& c : stmt.where) {
      if (c.column == col && c.op == CmpOp::kEq) eq = &c;
    }
    if (eq != nullptr) {
      plan.prefix.push_back(eq->value);
      continue;
    }
    // No equality for this PK column: look for range bounds, then stop.
    for (const Condition& c : stmt.where) {
      if (c.column != col) continue;
      if (c.op == CmpOp::kGe || c.op == CmpOp::kGt) plan.next_lo = c.value;
      if (c.op == CmpOp::kLe || c.op == CmpOp::kLt) plan.next_hi = c.value;
    }
    break;
  }
  plan.use_index = !plan.prefix.empty() || plan.next_lo.has_value();
  return plan;
}

/// Shared kScan row accumulation (aggregates, projection, order_by, limit),
/// used by both the locked read path and the lock-free versioned read path.
struct ScanAccumulator {
  const Statement& stmt;
  ExecResult& result;
  bool agg_init = false;
  std::int64_t count = 0;
  Value agg;

  void add(const Row& row) {
    switch (stmt.agg) {
      case Agg::kNone:
        result.rows.push_back(project(row, stmt.select_columns));
        break;
      case Agg::kCount:
        ++count;
        break;
      case Agg::kSum:
        agg = agg_init ? agg.plus(row[stmt.agg_column]) : row[stmt.agg_column];
        agg_init = true;
        break;
      case Agg::kMin:
        if (!agg_init || row[stmt.agg_column] < agg) agg = row[stmt.agg_column];
        agg_init = true;
        break;
      case Agg::kMax:
        if (!agg_init || agg < row[stmt.agg_column]) agg = row[stmt.agg_column];
        agg_init = true;
        break;
    }
  }

  void finish() {
    if (stmt.agg == Agg::kCount) {
      result.agg_value = Value(count);
    } else if (stmt.agg != Agg::kNone) {
      result.agg_value = agg;
    }
    if (stmt.agg == Agg::kNone) {
      if (stmt.order_by) {
        const auto [col, desc] = *stmt.order_by;
        // Note: projection happens before ordering, so order_by columns must
        // be part of select_columns (or select all). The SQL front end
        // enforces this.
        std::stable_sort(result.rows.begin(), result.rows.end(),
                         [col = col, desc = desc](const Row& a, const Row& b) {
                           return desc ? b[col] < a[col] : a[col] < b[col];
                         });
      }
      if (result.rows.size() > stmt.limit) result.rows.resize(stmt.limit);
    }
  }
};

}  // namespace

ExecResult Engine::do_predicate(Txn& txn, const Statement& stmt, Table& table) {
  ExecResult result;
  std::size_t visited = 0;
  const auto matches = [&stmt](const Row& row) {
    return std::all_of(stmt.where.begin(), stmt.where.end(),
                       [&row](const Condition& c) { return c.matches(row); });
  };

  // Choose between an index range scan (ordered storage) and a full scan.
  const ScanPlan plan = plan_scan(stmt, table.schema);
  const bool indexed = plan.use_index && table.storage->ordered();
  const auto ranged_scan = [&](const RowVisitor& visit) {
    if (!indexed) {
      table.storage->scan(visit);
      return;
    }
    // The range is [prefix ++ lo, prefix ++ hi]: every key there has the
    // equality-pinned prefix, so no visited key needs re-checking against it.
    Key start = plan.prefix;
    if (plan.next_lo) start.push_back(*plan.next_lo);
    Key last = plan.prefix;
    if (plan.next_hi) last.push_back(*plan.next_hi);
    table.storage->scan_range(start, last, visit);
  };

  if (stmt.kind == Statement::Kind::kScan) {
    ScanAccumulator accum{stmt, result};
    ranged_scan([&](const Key&, const StoredRow& stored) {
      ++visited;
      if (matches(stored.row)) accum.add(stored.row);
      return true;
    });
    accum.finish();
  } else {
    // UpdateWhere / DeleteWhere: collect matching keys first, then mutate.
    std::vector<Key> keys;
    ranged_scan([&](const Key& key, const StoredRow& stored) {
      ++visited;
      if (matches(stored.row)) keys.push_back(key);
      return true;
    });
    for (Key& key : keys) {
      if (stmt.kind == Statement::Kind::kUpdateWhere) {
        StoredRow* stored = table.storage->find(key);
        SHADOW_CHECK(stored != nullptr);
        capture_history(stmt.table, key, &stored->row);
        txn.undo.push_back(UndoEntry{UndoEntry::Kind::kUpdate, stmt.table, key, stored->row});
        apply_sets(stored->row, stmt.sets);
        touch_present(stmt.table, key, *stored, /*was_absent=*/false);
      } else {
        std::optional<Row> row = table.storage->take(key);
        SHADOW_CHECK(row.has_value());
        capture_history(stmt.table, key, &*row);
        touch_absent(stmt.table, key);
        txn.undo.push_back(
            UndoEntry{UndoEntry::Kind::kDelete, stmt.table, std::move(key), std::move(*row)});
      }
      ++result.affected;
    }
  }

  result.cost_us = traits_.costs.point_read_us +
                   static_cast<std::uint64_t>(traits_.costs.scan_row_us *
                                              static_cast<double>(visited)) +
                   traits_.costs.point_write_us * result.affected;
  return result;
}

ExecResult Engine::commit(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) {
    // The transaction was already torn down (e.g. lock-timeout abort raced
    // with the commit request).
    ExecResult r;
    r.status = ExecResult::Status::kAborted;
    r.error = "transaction no longer exists";
    return r;
  }
  Txn& txn = it->second;
  ExecResult result;
  if (txn.state != Txn::State::kActive) {
    result.status = ExecResult::Status::kAborted;
    result.error = "commit of non-active transaction";
    txns_.erase(it);
    return result;
  }
  txn.state = Txn::State::kCommitted;
  ++committed_;
  result.cost_us = traits_.costs.commit_us;
  const std::vector<TxnId> granted = locks_.release_all(id);
  txns_.erase(it);
  wake_granted(granted);
  return result;
}

ExecResult Engine::abort(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) {
    ExecResult r;
    r.status = ExecResult::Status::kAborted;
    r.error = "transaction no longer exists";
    return r;
  }
  Txn& txn = it->second;
  ExecResult result;
  result.status = ExecResult::Status::kAborted;
  result.cost_us = traits_.costs.commit_us;
  rollback(txn);
  ++aborted_;
  const std::vector<TxnId> granted = locks_.release_all(id);
  txns_.erase(it);
  wake_granted(granted);
  return result;
}

void Engine::rollback(Txn& txn) {
  // The undo application is itself a mutation at the current version: each
  // step captures (a no-op when the forward mutation already captured here)
  // and re-stamps the key. The key's value is back to its pre-statement
  // state, so the stamp may over-approximate the delta, which is always safe.
  for (auto it = txn.undo.rbegin(); it != txn.undo.rend(); ++it) {
    Table& table = table_of(it->table);
    switch (it->kind) {
      case UndoEntry::Kind::kInsert:
        erase_key(table, it->table, it->key);
        break;
      case UndoEntry::Kind::kUpdate: {
        StoredRow* stored = table.storage->find(it->key);
        SHADOW_CHECK(stored != nullptr);
        capture_history(it->table, it->key, &stored->row);
        stored->row = std::move(it->old_row);
        touch_present(it->table, it->key, *stored, /*was_absent=*/false);
        break;
      }
      case UndoEntry::Kind::kDelete: {
        const auto [stored, inserted] = table.storage->insert(it->key, std::move(it->old_row));
        capture_history(it->table, it->key, inserted ? nullptr : &stored->row);
        touch_present(it->table, it->key, *stored, /*was_absent=*/true);
        break;
      }
    }
  }
  txn.undo.clear();
}

ExecResult Engine::abort_result(TxnId id, Txn& txn, std::string why) {
  rollback(txn);
  txn.state = Txn::State::kAborted;
  ++aborted_;
  ExecResult r;
  r.status = ExecResult::Status::kAborted;
  r.error = std::move(why);
  r.cost_us = traits_.costs.commit_us;
  // The transaction is dead: its locks must not outlive it, and waiters
  // must be woken. `txn` is invalid after the erase.
  const std::vector<TxnId> granted = locks_.release_all(id);
  txns_.erase(id);
  wake_granted(granted);
  return r;
}

void Engine::wake_granted(const std::vector<TxnId>& granted) {
  for (TxnId granted_txn : granted) {
    auto git = txns_.find(granted_txn);
    if (git == txns_.end() || git->second.state != Txn::State::kBlocked) continue;
    git->second.state = Txn::State::kActive;
    SHADOW_CHECK(git->second.blocked != nullptr);
    const Statement stmt = *git->second.blocked;
    git->second.blocked.reset();
    ExecResult retry = run_statement(git->second, granted_txn, stmt);
    if (retry.status == ExecResult::Status::kBlocked) {
      // run_statement may have erased/rehashed txns_ (nested aborts): re-find.
      auto again = txns_.find(granted_txn);
      if (again != txns_.end()) again->second.blocked = std::make_unique<Statement>(stmt);
    }
    if (wake_ && retry.status != ExecResult::Status::kBlocked) wake_(granted_txn, retry);
  }
}

void Engine::tick(net::Time now_time) {
  const LockManager::ExpireResult expired = locks_.expire(now_time);
  for (TxnId id : expired.expired) {
    auto it = txns_.find(id);
    if (it == txns_.end()) continue;
    // abort_result releases the transaction's locks, erases it, and wakes
    // the transactions its release unblocked.
    ExecResult aborted =
        abort_result(id, it->second, "lock wait timeout on " + traits_.name);
    if (wake_) wake_(id, aborted);
  }
  wake_granted(expired.granted);
}

std::size_t Engine::total_rows() const {
  std::size_t n = 0;
  for (const auto& [name, table] : tables_) n += table.storage->size();
  return n;
}

Engine::Snapshot Engine::snapshot(std::size_t batch_bytes) const {
  return snapshot_filtered(batch_bytes, nullptr);
}

Engine::Snapshot Engine::snapshot_filtered(
    std::size_t batch_bytes,
    const std::function<bool(const std::string&, const Key&)>& include) const {
  Snapshot snap;
  double cost = 0.0;
  for (const auto& [name, table] : tables_) {
    snap.schemas.push_back(table.schema);
    BytesWriter writer;
    std::size_t rows_in_batch = 0;
    const std::size_t cols = table.schema.columns.size();
    auto flush = [&]() {
      if (rows_in_batch == 0) return;
      SnapshotBatch batch;
      batch.table = name;
      batch.data = writer.take();
      batch.rows = rows_in_batch;
      snap.total_bytes += batch.data.size();
      snap.total_rows += batch.rows;
      snap.batches.push_back(std::move(batch));
      writer = BytesWriter();
      rows_in_batch = 0;
    };
    table.storage->scan([&](const Key& key, const StoredRow& stored) {
      if (include && !include(name, key)) return true;
      serialize_row(writer, stored.row);
      ++rows_in_batch;
      cost += traits_.costs.snap_serialize_col_us * static_cast<double>(cols) +
              traits_.costs.snap_serialize_byte_us *
                  static_cast<double>(row_wire_size(stored.row));
      if (writer.size() >= batch_bytes) flush();
      return true;
    });
    flush();
  }
  snap.serialize_cost_us = static_cast<std::uint64_t>(cost);
  return snap;
}

std::uint64_t Engine::restore_batch(const SnapshotBatch& batch) {
  Table& table = table_of(batch.table);
  BytesReader reader(batch.data);
  double cost = 0.0;
  while (!reader.done()) {
    Row row = deserialize_row(reader);
    cost += traits_.costs.snap_insert_row_us +
            traits_.costs.snap_insert_byte_us * static_cast<double>(row_wire_size(row));
    const Key key = table.schema.key_of(row);
    table.storage->insert(key, std::move(row));  // untouched: at or below the floor
  }
  return static_cast<std::uint64_t>(cost);
}

void Engine::reset_for_restore(const std::vector<TableSchema>& schemas) {
  tables_.clear();
  txns_.clear();
  locks_ = LockManager();
  // Touch stamps refer to state that just got wiped (the row stamps went
  // with the tables), so no delta can be served from here until a transfer
  // completes and stamps the restore version as the new floor.
  tombstones_.clear();
  delta_floor_ = UINT64_MAX;
  // Version chains likewise describe the wiped state; until the transfer
  // completes and stamps its version as the new floor (set_delta_floor),
  // no historical read can be served from here.
  history_.clear();
  history_entries_ = 0;
  readers_.clear();
  history_floor_ = UINT64_MAX;
  for (const TableSchema& schema : schemas) create_table(schema);
}

void Engine::touch_present(const std::string& table, const Key& key, StoredRow& stored,
                           bool was_absent) {
  stored.touched = state_version_;
  if (!was_absent) return;
  if (auto ts = tombstones_.find(table); ts != tombstones_.end()) ts->second.erase(key);
}

void Engine::touch_absent(const std::string& table, const Key& key) {
  tombstones_[table][key] = state_version_;
}

Engine::DeltaSnapshot Engine::delta_snapshot(std::uint64_t since,
                                             std::size_t batch_bytes) const {
  SHADOW_REQUIRE_MSG(delta_valid(since), "delta requested below the tracking floor");
  DeltaSnapshot delta;
  double cost = 0.0;
  for (const auto& [name, table] : tables_) {
    const std::size_t cols = table.schema.columns.size();
    // Deterministic emission: key order (hash storage visits unordered).
    std::vector<std::pair<const Key*, const Row*>> touched;
    table.storage->scan([&](const Key& key, const StoredRow& stored) {
      if (stored.touched > since) touched.emplace_back(&key, &stored.row);
      return true;
    });
    if (!table.storage->ordered()) {
      std::sort(touched.begin(), touched.end(),
                [](const auto& a, const auto& b) { return *a.first < *b.first; });
    }
    BytesWriter writer;
    std::size_t rows_in_batch = 0;
    auto flush = [&]() {
      if (rows_in_batch == 0) return;
      SnapshotBatch batch;
      batch.table = name;
      batch.data = writer.take();
      batch.rows = rows_in_batch;
      delta.total_bytes += batch.data.size();
      delta.total_rows += batch.rows;
      delta.upserts.push_back(std::move(batch));
      writer = BytesWriter();
      rows_in_batch = 0;
    };
    for (const auto& [key, row] : touched) {
      serialize_row(writer, *row);
      ++rows_in_batch;
      cost += traits_.costs.snap_serialize_col_us * static_cast<double>(cols) +
              traits_.costs.snap_serialize_byte_us * static_cast<double>(row_wire_size(*row));
      if (writer.size() >= batch_bytes) flush();
    }
    flush();
  }
  for (const auto& [name, gone] : tombstones_) {
    std::vector<Key> keys;
    for (const auto& [key, version] : gone) {
      if (version > since) keys.push_back(key);
    }
    if (keys.empty()) continue;
    std::sort(keys.begin(), keys.end());
    delta.total_deletes += keys.size();
    delta.deletes.emplace_back(name, std::move(keys));
  }
  delta.serialize_cost_us = static_cast<std::uint64_t>(cost);
  return delta;
}

std::uint64_t Engine::restore_upsert_batch(const SnapshotBatch& batch) {
  Table& table = table_of(batch.table);
  BytesReader reader(batch.data);
  double cost = 0.0;
  while (!reader.done()) {
    Row row = deserialize_row(reader);
    cost += traits_.costs.snap_insert_row_us +
            traits_.costs.snap_insert_byte_us * static_cast<double>(row_wire_size(row));
    const Key key = table.schema.key_of(row);
    const auto [stored, inserted] = table.storage->insert(key, std::move(row));
    capture_history(batch.table, key, inserted ? nullptr : &stored->row);
    if (!inserted) stored->row = std::move(row);
    touch_present(batch.table, key, *stored, /*was_absent=*/inserted);
  }
  return static_cast<std::uint64_t>(cost);
}

std::uint64_t Engine::apply_deletes(const std::string& table_name,
                                    const std::vector<Key>& keys) {
  Table& table = table_of(table_name);
  for (const Key& key : keys) erase_key(table, table_name, key);
  return traits_.costs.point_write_us * keys.size();
}

std::size_t Engine::delete_where_key(const std::string& table_name,
                                     const std::function<bool(const Key&)>& include) {
  Table& table = table_of(table_name);
  std::vector<Key> doomed;
  table.storage->scan([&](const Key& key, const StoredRow&) {
    if (include(key)) doomed.push_back(key);
    return true;
  });
  for (const Key& key : doomed) erase_key(table, table_name, key);
  return doomed.size();
}

void Engine::erase_key(Table& table, const std::string& table_name, const Key& key) {
  const std::optional<Row> row = table.storage->take(key);
  capture_history(table_name, key, row ? &*row : nullptr);
  touch_absent(table_name, key);
}

void Engine::capture_history(const std::string& table, const Key& key, const Row* pre_image) {
  VersionChain& chain = history_[table][key];
  // One capture per state version: the chain records the value at the
  // version's start, and later mutations within the version overwrite state
  // the first capture already preserved.
  if (!chain.empty() && chain.back().superseded_at >= state_version_) return;
  VersionEntry entry;
  entry.superseded_at = state_version_;
  if (pre_image != nullptr) {
    entry.existed = true;
    entry.row = *pre_image;
  }
  chain.push_back(std::move(entry));
  ++history_entries_;
  if (++captures_since_gc_ >= 4096) gc_versions();
}

const Engine::VersionEntry* Engine::entry_after(const VersionChain& chain,
                                                std::uint64_t version) {
  auto e = std::lower_bound(
      chain.begin(), chain.end(), version,
      [](const VersionEntry& a, std::uint64_t v) { return a.superseded_at <= v; });
  return e == chain.end() ? nullptr : &*e;
}

const Engine::VersionEntry* Engine::pre_image_after(const std::string& table, const Key& key,
                                                    std::uint64_t version) const {
  auto h = history_.find(table);
  if (h == history_.end()) return nullptr;
  auto it = h->second.find(key);
  return it == h->second.end() ? nullptr : entry_after(it->second, version);
}

ExecResult Engine::read_at(const Statement& stmt, std::uint64_t version) const {
  ExecResult result;
  if (stmt.kind == Statement::Kind::kSelect) {
    result.cost_us = traits_.costs.point_read_us;
    const Row* row = nullptr;
    if (const VersionEntry* e = pre_image_after(stmt.table, stmt.key, version)) {
      if (e->existed) row = &e->row;
    } else if (const StoredRow* stored = table_of(stmt.table).storage->find(stmt.key)) {
      row = &stored->row;
    }
    if (row != nullptr) {
      result.cost_us += static_cast<std::uint64_t>(traits_.costs.byte_us *
                                                   static_cast<double>(row_wire_size(*row)));
      result.rows.push_back(project(*row, stmt.select_columns));
    }
    return result;
  }
  if (stmt.kind != Statement::Kind::kScan) {
    result.status = ExecResult::Status::kAborted;
    result.error = "read_at supports only read-only statements";
    return result;
  }
  const Table& table = table_of(stmt.table);
  const auto matches = [&stmt](const Row& row) {
    return std::all_of(stmt.where.begin(), stmt.where.end(),
                       [&row](const Condition& c) { return c.matches(row); });
  };
  ScanAccumulator accum{stmt, result};
  std::size_t visited = 0;
  // Pass 1: keys currently in storage, each reconstructed as of `version`.
  // A row whose touch stamp is at or below `version` is its own value then;
  // only rows mutated since need their chains.
  table.storage->scan([&](const Key& key, const StoredRow& stored) {
    ++visited;
    const Row* row = &stored.row;
    if (stored.touched > version) {
      if (const VersionEntry* e = pre_image_after(stmt.table, key, version)) {
        row = e->existed ? &e->row : nullptr;
      }
    }
    if (row != nullptr && matches(*row)) accum.add(*row);
    return true;
  });
  // Pass 2: keys deleted since `version` survive only in the version chains
  // (sorted for deterministic row order).
  if (auto h = history_.find(stmt.table); h != history_.end()) {
    std::vector<std::pair<const Key*, const VersionChain*>> gone;
    for (const auto& [key, chain] : h->second) {
      if (table.storage->find(key) == nullptr) gone.emplace_back(&key, &chain);
    }
    std::sort(gone.begin(), gone.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    for (const auto& [key, chain] : gone) {
      ++visited;
      const VersionEntry* e = entry_after(*chain, version);
      if (e != nullptr && e->existed && matches(e->row)) accum.add(e->row);
    }
  }
  accum.finish();
  result.cost_us =
      traits_.costs.point_read_us +
      static_cast<std::uint64_t>(traits_.costs.scan_row_us * static_cast<double>(visited));
  return result;
}

std::uint64_t Engine::register_reader(std::uint64_t version) {
  const std::uint64_t id = next_reader_++;
  readers_[id] = version;
  return id;
}

void Engine::release_reader(std::uint64_t reader_id) { readers_.erase(reader_id); }

std::uint64_t Engine::read_watermark() const {
  std::uint64_t wm = state_version_;
  for (const auto& [id, version] : readers_) wm = std::min(wm, version);
  return wm;
}

std::size_t Engine::gc_versions() {
  captures_since_gc_ = 0;
  const std::uint64_t wm = read_watermark();
  std::size_t dropped = 0;
  for (auto t = history_.begin(); t != history_.end();) {
    auto& chains = t->second;
    for (auto it = chains.begin(); it != chains.end();) {
      VersionChain& chain = it->second;
      // An entry superseded at or before the watermark only serves reads
      // below it, which no registered reader can still issue.
      std::size_t dead = 0;
      while (dead < chain.size() && chain[dead].superseded_at <= wm) ++dead;
      if (dead > 0) {
        chain.erase(chain.begin(), chain.begin() + static_cast<std::ptrdiff_t>(dead));
        dropped += dead;
      }
      it = chain.empty() ? chains.erase(it) : std::next(it);
    }
    t = chains.empty() ? history_.erase(t) : std::next(t);
  }
  history_entries_ -= dropped;
  if (history_floor_ < wm) history_floor_ = wm;
  return dropped;
}

std::uint64_t Engine::state_digest() const {
  // Order-independent: XOR/sum of per-row hashes so hash- and tree-indexed
  // replicas of the same logical state agree.
  std::uint64_t digest = 0;
  KeyHash hasher;
  for (const auto& [name, table] : tables_) {
    const std::uint64_t table_tag = std::hash<std::string>{}(name);
    table.storage->scan([&](const Key&, const StoredRow& stored) {
      std::uint64_t h = table_tag;
      h ^= hasher(stored.row) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      digest += h * 0x2545f4914f6cdd1dULL;
      return true;
    });
  }
  return digest;
}

}  // namespace shadow::db
