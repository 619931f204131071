#include "db/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

std::size_t Engine::KeyBytesHash::operator()(std::string_view key) const {
  // Keys are a few 8-byte words: fold them in a word at a time, which keeps
  // the version-chain probe of every write and versioned read cheaper than
  // std::hash's general-purpose byte hash.
  std::uint64_t h = key.size() * 0x9e3779b97f4a7c15ULL;
  std::size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, key.data() + i, sizeof(word));
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  for (; i < key.size(); ++i) tail = (tail << 8) | static_cast<std::uint8_t>(key[i]);
  h = (h ^ tail) * 0xc4ceb9fe1a85ec53ULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

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

/// A statement's row as row bytes: the one place a Row becomes stored bytes.
Bytes row_bytes(const Row& row) {
  std::size_t size = 4;  // at most this many bytes: a NULL takes 1, not 9
  for (const Value& v : row) size += v.is_string() ? 5 + v.as_string().size() : 9;
  BytesWriter w;
  w.reserve(size);
  serialize_row(w, row);
  return w.take();
}

std::span<const std::uint8_t> as_span(std::string_view bytes) {
  return {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()};
}

/// The columns a statement selects (all if `columns` is empty), decoded.
Row project(RowView row, const std::vector<std::size_t>& columns) {
  if (columns.empty()) return row.to_row();
  Row out;
  out.reserve(columns.size());
  for (std::size_t c : columns) out.push_back(row.get(c));
  return out;
}

/// The row bytes `row` becomes under `sets`, applied in order: untouched
/// columns are copied as bytes, and only set columns are decoded.
Bytes apply_sets(RowView row, const std::vector<SetClause>& sets) {
  const std::size_t n = row.size();
  BytesWriter w;
  w.reserve(row.bytes().size() + 64);
  w.u32(static_cast<std::uint32_t>(n));
  std::size_t pos = RowView::kFirstColumn;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view column = row.next_column(pos);
    std::optional<Value> value;
    for (const SetClause& set : sets) {
      if (set.column != i) continue;
      value = set.op == SetOp::kAssign ? set.value
                                       : (value ? *value : RowView::decode(column)).plus(set.value);
    }
    if (value) {
      value->serialize(w);
    } else {
      w.raw(as_span(column));
    }
  }
  return w.take();
}

}  // namespace

ExecResult Engine::do_insert(Txn& txn, const Statement& stmt, Table& table) {
  ExecResult result;
  SHADOW_REQUIRE_MSG(stmt.row.size() == table.schema.columns.size(),
                     "row arity mismatch for " + stmt.table);
  const Bytes bytes = row_bytes(stmt.row);
  const std::string_view row = as_chars(bytes);
  result.cost_us = traits_.costs.insert_us +
                   static_cast<std::uint64_t>(traits_.costs.byte_us *
                                              static_cast<double>(row.size()));
  const std::string key = table.key_bytes(RowView(row));
  if (const std::optional<RowEntry> existing = table.insert(key, row, state_version_)) {
    capture_history(stmt.table, key, existing->row);
    result.status = ExecResult::Status::kAborted;
    result.error = "duplicate primary key in " + stmt.table;
    return result;
  }
  capture_history(stmt.table, key, std::nullopt);
  drop_tombstone(stmt.table, key);
  txn.undo.push_back(UndoEntry{UndoEntry::Kind::kInsert, stmt.table, key, {}});
  result.affected = 1;
  return result;
}

ExecResult Engine::do_point(Txn& txn, const Statement& stmt, Table& table) {
  ExecResult result;
  const std::string key = encode_key(stmt.key);
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      result.cost_us = traits_.costs.point_read_us;
      if (const std::optional<RowEntry> stored = table.storage->find(key)) {
        result.cost_us += static_cast<std::uint64_t>(
            traits_.costs.byte_us * static_cast<double>(stored->row.size()));
        result.rows.push_back(project(RowView(stored->row), stmt.select_columns));
      }
      return result;
    }
    case Statement::Kind::kUpdate: {
      result.cost_us = traits_.costs.point_write_us;
      if (const std::optional<RowEntry> stored = table.storage->find(key)) {
        result.cost_us += static_cast<std::uint64_t>(
            traits_.costs.byte_us * static_cast<double>(stored->row.size()));
        std::string old_row(stored->row);
        capture_history(stmt.table, key, old_row);
        table.replace(*stored, as_chars(apply_sets(RowView(old_row), stmt.sets)), state_version_);
        txn.undo.push_back(UndoEntry{UndoEntry::Kind::kUpdate, stmt.table, key, std::move(old_row)});
        result.affected = 1;
      }
      return result;
    }
    case Statement::Kind::kDelete: {
      result.cost_us = traits_.costs.point_write_us;
      if (std::optional<std::string> row = table.take(key)) {
        capture_history(stmt.table, key, *row);
        touch_absent(stmt.table, key);
        txn.undo.push_back(UndoEntry{UndoEntry::Kind::kDelete, stmt.table, key, std::move(*row)});
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
/// from a conjunction, and the equalities on columns outside the key. All
/// conditions are still re-checked as filters, so the plan only affects
/// which rows are *read*. A statement is charged for every row of the
/// plan's key range (the whole table without one), however few it reads.
struct ScanPlan {
  Key prefix;                       // equality-pinned leading PK columns
  std::optional<Value> next_lo;     // >= bound on the next PK column
  std::optional<Value> next_hi;     // <= / < bound on the next PK column
  bool use_index = false;
  // Equalities on non-key columns: a column's last one, by column (NaN,
  // equal to nothing, left out). On ordered storage the rows then come from
  // the access path over the prefix's columns and these.
  std::map<std::size_t, const Value*> non_key_eq;
};

ScanPlan plan_scan(const Statement& stmt, const TableSchema& schema) {
  ScanPlan plan;
  const std::vector<std::size_t>& pk = schema.primary_key;
  for (std::size_t pk_pos = 0; pk_pos < pk.size(); ++pk_pos) {
    const std::size_t col = pk[pk_pos];
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
  for (const Condition& c : stmt.where) {
    if (c.op != CmpOp::kEq || std::find(pk.begin(), pk.end(), c.column) != pk.end()) continue;
    if (c.value.is_double() && std::isnan(c.value.as_double())) continue;
    plan.non_key_eq[c.column] = &c.value;
  }
  return plan;
}

/// Shared kScan row accumulation (aggregates, projection, order_by, limit),
/// used by both the locked read path and the lock-free versioned read path.
struct ScanAccumulator {
  const Statement& stmt;
  ExecResult& result;
  bool agg_init = false;
  std::int64_t count = 0;
  Value agg{};

  void add(RowView row) {
    switch (stmt.agg) {
      case Agg::kNone:
        result.rows.push_back(project(row, stmt.select_columns));
        return;
      case Agg::kCount:
        ++count;
        return;
      case Agg::kSum:
        agg = agg_init ? agg.plus(row.get(stmt.agg_column)) : row.get(stmt.agg_column);
        break;
      case Agg::kMin:
        if (!agg_init || row.compare(stmt.agg_column, agg) < 0) agg = row.get(stmt.agg_column);
        break;
      case Agg::kMax:
        if (!agg_init || row.compare(stmt.agg_column, agg) > 0) agg = row.get(stmt.agg_column);
        break;
    }
    agg_init = true;
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

/// Whether `row` satisfies every condition of `stmt`'s conjunction.
bool matches(const Statement& stmt, RowView row) {
  return std::all_of(stmt.where.begin(), stmt.where.end(),
                     [&row](const Condition& c) { return c.matches(row); });
}

}  // namespace

ExecResult Engine::do_predicate(Txn& txn, const Statement& stmt, Table& table) {
  ExecResult result;
  const std::vector<std::size_t>& pk = table.schema.primary_key;
  const ScanPlan plan = plan_scan(stmt, table.schema);
  const bool ordered = table.storage->ordered();

  // The plan's key range, on ordered storage: [prefix ++ lo, prefix ++ hi].
  // Every key there has the equality-pinned prefix. In key bytes it is
  // [enc(prefix ++ lo), successor of enc(prefix ++ hi)); without an index
  // plan it is the whole table.
  std::string start;
  std::string end;
  if (plan.use_index && ordered) {
    for (const Value& v : plan.prefix) append_key_value(start, v);
    std::string last = start;
    if (plan.next_lo) append_key_value(start, *plan.next_lo);
    if (plan.next_hi) append_key_value(last, *plan.next_hi);
    end = prefix_successor(last);
  }
  const std::size_t charged_rows = table.storage->count_range(start, end);

  // The rows that can match, in key order on ordered storage: the range
  // itself, or, given equalities on non-key columns, the rows the access
  // path over the prefix's columns and those columns finds in it.
  const auto candidates = [&](const RowVisitor& visit) {
    if (!ordered) {
      table.storage->scan(visit);  // no key order: a full scan
    } else if (plan.non_key_eq.empty()) {
      table.storage->scan_range(start, end, visit);
    } else {
      std::vector<std::size_t> columns(pk.begin(),
                                       pk.begin() + static_cast<std::ptrdiff_t>(plan.prefix.size()));
      std::string values;
      for (const Value& v : plan.prefix) append_key_value(values, v);
      for (const auto& [column, value] : plan.non_key_eq) {
        columns.push_back(column);
        append_key_value(values, *value);
      }
      table.scan_path(columns, values, start, end, visit);
    }
  };

  if (stmt.kind == Statement::Kind::kScan) {
    // The MIN of the key column after the prefix is the first match's value
    // in key order.
    const bool first_match_only = ordered && stmt.agg == Agg::kMin &&
                                  plan.prefix.size() < pk.size() &&
                                  stmt.agg_column == pk[plan.prefix.size()];
    ScanAccumulator accum{stmt, result};
    candidates([&](const RowEntry& entry) {
      const RowView row(entry.row);
      if (!matches(stmt, row)) return true;
      accum.add(row);
      return !first_match_only;
    });
    accum.finish();
  } else {
    // UpdateWhere / DeleteWhere: collect matching keys first, then mutate.
    std::vector<std::string> keys;
    candidates([&](const RowEntry& entry) {
      if (matches(stmt, RowView(entry.row))) keys.emplace_back(entry.key);
      return true;
    });
    for (std::string& key : keys) {
      if (stmt.kind == Statement::Kind::kUpdateWhere) {
        const std::optional<RowEntry> stored = table.storage->find(key);
        SHADOW_CHECK(stored.has_value());
        std::string old_row(stored->row);
        capture_history(stmt.table, key, old_row);
        table.replace(*stored, as_chars(apply_sets(RowView(old_row), stmt.sets)), state_version_);
        txn.undo.push_back(
            UndoEntry{UndoEntry::Kind::kUpdate, stmt.table, std::move(key), std::move(old_row)});
      } else {
        std::optional<std::string> row = table.take(key);
        SHADOW_CHECK(row.has_value());
        capture_history(stmt.table, key, *row);
        touch_absent(stmt.table, key);
        txn.undo.push_back(
            UndoEntry{UndoEntry::Kind::kDelete, stmt.table, std::move(key), std::move(*row)});
      }
      ++result.affected;
    }
  }

  result.cost_us = traits_.costs.point_read_us +
                   static_cast<std::uint64_t>(traits_.costs.scan_row_us *
                                              static_cast<double>(charged_rows)) +
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
        const std::optional<RowEntry> stored = table.storage->find(it->key);
        SHADOW_CHECK(stored.has_value());
        capture_history(it->table, it->key, stored->row);
        table.replace(*stored, it->old_row, state_version_);
        break;
      }
      case UndoEntry::Kind::kDelete: {
        // The key is absent again: the undo runs in reverse, so every later
        // statement on it is already undone.
        const bool inserted = !table.insert(it->key, it->old_row, state_version_);
        SHADOW_CHECK(inserted);
        capture_history(it->table, it->key, std::nullopt);
        drop_tombstone(it->table, it->key);
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

std::uint64_t Engine::serialize_rows(std::size_t batch_bytes, const RowSelection& selection,
                                     const BatchSink& sink) const {
  SHADOW_REQUIRE_MSG(!selection.since || delta_valid(*selection.since),
                     "delta requested below the tracking floor");
  double cost = 0.0;
  for (const auto& [name, table] : tables_) {
    const std::size_t cols = table.schema.columns.size();
    BytesWriter writer;
    std::size_t rows_in_batch = 0;
    auto flush = [&]() {
      if (rows_in_batch == 0) return;
      sink(SnapshotBatch{name, writer.take(), rows_in_batch});
      writer = BytesWriter();
      rows_in_batch = 0;
    };
    // A batch is stored rows back to back: each row's bytes are copied as
    // they are.
    auto add = [&](std::string_view row) {
      writer.raw(as_span(row));
      ++rows_in_batch;
      cost += traits_.costs.snap_serialize_col_us * static_cast<double>(cols) +
              traits_.costs.snap_serialize_byte_us * static_cast<double>(row.size());
      if (writer.size() >= batch_bytes) flush();
    };
    // A delta is emitted in key order; hash storage visits rows unordered,
    // so its selected rows are sorted (by key bytes) first.
    const bool sort = selection.since && !table.storage->ordered();
    std::vector<std::pair<std::string_view, std::string_view>> selected;  // (key, row)
    table.storage->scan([&](const RowEntry& entry) {
      if (selection.since && entry.touched <= *selection.since) return true;
      if (selection.include && !selection.include(name, decode_key(entry.key))) return true;
      if (sort) {
        selected.emplace_back(entry.key, entry.row);
      } else {
        add(entry.row);
      }
      return true;
    });
    std::sort(selected.begin(), selected.end());
    for (const auto& [key, row] : selected) add(row);
    flush();
  }
  return static_cast<std::uint64_t>(cost);
}

std::vector<TableSchema> Engine::schemas() const {
  std::vector<TableSchema> out;
  for (const auto& [name, table] : tables_) out.push_back(table.schema);
  return out;
}

namespace {

/// Calls `fn` with each row of a batch, sliced out of its bytes in place.
template <typename Fn>
void for_each_batch_row(const Engine::SnapshotBatch& batch, const Table& table, Fn&& fn) {
  const std::string_view data = as_chars(batch.data);
  for (std::size_t pos = 0; pos < data.size();) {
    const std::string_view row = data.substr(pos, row_extent(data.substr(pos)));
    pos += row.size();
    SHADOW_REQUIRE(RowView(row).size() == table.schema.columns.size());
    fn(row);
  }
}

}  // namespace

std::uint64_t Engine::restore_batch(const SnapshotBatch& batch) {
  Table& table = table_of(batch.table);
  double cost = 0.0;
  for_each_batch_row(batch, table, [&](std::string_view row) {
    cost += traits_.costs.snap_insert_row_us +
            traits_.costs.snap_insert_byte_us * static_cast<double>(row.size());
    table.insert(table.key_bytes(RowView(row)), row, 0);  // untouched: at or below the floor
  });
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

void Engine::drop_tombstone(const std::string& table, std::string_view key) {
  if (auto ts = tombstones_.find(table); ts != tombstones_.end()) {
    if (auto it = ts->second.find(key); it != ts->second.end()) ts->second.erase(it);
  }
}

void Engine::touch_absent(const std::string& table, std::string_view key) {
  Tombstones& gone = tombstones_[table];
  if (auto it = gone.find(key); it != gone.end()) {
    it->second = state_version_;
  } else {
    gone.emplace(std::string(key), state_version_);
  }
}

std::vector<std::pair<std::string, std::vector<Key>>> Engine::deleted_since(
    std::uint64_t since) const {
  std::vector<std::pair<std::string, std::vector<Key>>> out;
  for (const auto& [name, gone] : tombstones_) {
    std::vector<std::string_view> keys;
    for (const auto& [key, version] : gone) {
      if (version > since) keys.emplace_back(key);
    }
    if (keys.empty()) continue;
    std::sort(keys.begin(), keys.end());
    std::vector<Key> decoded;
    decoded.reserve(keys.size());
    for (std::string_view key : keys) decoded.push_back(decode_key(key));
    out.emplace_back(name, std::move(decoded));
  }
  return out;
}

std::uint64_t Engine::restore_upsert_batch(const SnapshotBatch& batch) {
  Table& table = table_of(batch.table);
  double cost = 0.0;
  for_each_batch_row(batch, table, [&](std::string_view row) {
    cost += traits_.costs.snap_insert_row_us +
            traits_.costs.snap_insert_byte_us * static_cast<double>(row.size());
    const std::string key = table.key_bytes(RowView(row));
    if (const std::optional<RowEntry> existing = table.insert(key, row, state_version_)) {
      capture_history(batch.table, key, existing->row);
      table.replace(*existing, row, state_version_);
    } else {
      capture_history(batch.table, key, std::nullopt);
      drop_tombstone(batch.table, key);
    }
  });
  return static_cast<std::uint64_t>(cost);
}

std::uint64_t Engine::apply_deletes(const std::string& table_name,
                                    const std::vector<Key>& keys) {
  Table& table = table_of(table_name);
  for (const Key& key : keys) erase_key(table, table_name, encode_key(key));
  return traits_.costs.point_write_us * keys.size();
}

std::size_t Engine::delete_where_key(const std::string& table_name,
                                     const std::function<bool(const Key&)>& include) {
  Table& table = table_of(table_name);
  std::vector<std::string> doomed;
  table.storage->scan([&](const RowEntry& entry) {
    if (include(decode_key(entry.key))) doomed.emplace_back(entry.key);
    return true;
  });
  for (const std::string& key : doomed) erase_key(table, table_name, key);
  return doomed.size();
}

void Engine::erase_key(Table& table, const std::string& table_name, std::string_view key) {
  const std::optional<std::string> row = table.take(key);
  capture_history(table_name, key, row ? std::optional<std::string_view>(*row) : std::nullopt);
  touch_absent(table_name, key);
}

void Engine::capture_history(const std::string& table, std::string_view key,
                             std::optional<std::string_view> pre_image) {
  KeyBytesMap<VersionChain>& chains = history_[table];
  auto it = chains.find(key);
  if (it == chains.end()) it = chains.emplace(std::string(key), VersionChain{}).first;
  VersionChain& chain = it->second;
  // One capture per state version: the chain records the value at the
  // version's start, and later mutations within the version overwrite state
  // the first capture already preserved.
  if (!chain.empty() && chain.back().superseded_at >= state_version_) return;
  chain.push_back(VersionEntry{state_version_, std::string(pre_image.value_or(""))});
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

const Engine::VersionEntry* Engine::pre_image_after(const std::string& table,
                                                    std::string_view key,
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
    const std::string key = encode_key(stmt.key);
    std::optional<std::string_view> row;
    if (const VersionEntry* e = pre_image_after(stmt.table, key, version)) {
      if (e->existed()) row = e->row;
    } else if (const std::optional<RowEntry> stored = table_of(stmt.table).storage->find(key)) {
      row = stored->row;
    }
    if (row) {
      result.cost_us += static_cast<std::uint64_t>(traits_.costs.byte_us *
                                                   static_cast<double>(row->size()));
      result.rows.push_back(project(RowView(*row), stmt.select_columns));
    }
    return result;
  }
  if (stmt.kind != Statement::Kind::kScan) {
    result.status = ExecResult::Status::kAborted;
    result.error = "read_at supports only read-only statements";
    return result;
  }
  const Table& table = table_of(stmt.table);
  ScanAccumulator accum{stmt, result};
  std::size_t visited = 0;
  // Pass 1: keys currently in storage, each reconstructed as of `version`.
  // A row whose touch stamp is at or below `version` is its own value then;
  // only rows mutated since need their chains.
  table.storage->scan([&](const RowEntry& entry) {
    ++visited;
    std::optional<RowView> row = RowView(entry.row);
    if (entry.touched > version) {
      if (const VersionEntry* e = pre_image_after(stmt.table, entry.key, version)) {
        row = e->existed() ? std::optional<RowView>(RowView(e->row)) : std::nullopt;
      }
    }
    if (row && matches(stmt, *row)) accum.add(*row);
    return true;
  });
  // Pass 2: keys deleted since `version` survive only in the version chains
  // (sorted by key for deterministic row order).
  if (auto h = history_.find(stmt.table); h != history_.end()) {
    std::vector<std::pair<std::string_view, const VersionChain*>> gone;
    for (const auto& [key, chain] : h->second) {
      if (!table.storage->find(key)) gone.emplace_back(key, &chain);
    }
    std::sort(gone.begin(), gone.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, chain] : gone) {
      ++visited;
      const VersionEntry* e = entry_after(*chain, version);
      if (e != nullptr && e->existed() && matches(stmt, RowView(e->row))) accum.add(RowView(e->row));
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
  for (const auto& [name, table] : tables_) {
    const std::uint64_t table_tag = std::hash<std::string>{}(name);
    table.storage->scan([&](const RowEntry& entry) {
      std::uint64_t h = table_tag;
      h ^= RowView(entry.row).hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      digest += h * 0x2545f4914f6cdd1dULL;
      return true;
    });
  }
  return digest;
}

}  // namespace shadow::db
