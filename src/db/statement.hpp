// Structured SQL statements.
//
// The engines execute structured statements (what a JDBC PreparedStatement
// becomes after parsing); the mini-SQL front end (db/sql.hpp) parses textual
// SQL into these. ShadowDB replicas ship transaction *types and parameters*
// (stored procedures), never raw SQL, exactly as in the paper.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "db/schema.hpp"
#include "db/value.hpp"

namespace shadow::db {

enum class CmpOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

struct Condition {
  std::size_t column = 0;
  CmpOp op = CmpOp::kEq;
  Value value;

  bool matches(const RowView& row) const {
    const auto cmp = row.compare(column, value);
    switch (op) {
      case CmpOp::kEq: return cmp == 0;
      case CmpOp::kNe: return cmp != 0;
      case CmpOp::kLt: return cmp < 0;
      case CmpOp::kLe: return cmp <= 0;
      case CmpOp::kGt: return cmp > 0;
      case CmpOp::kGe: return cmp >= 0;
    }
    return false;
  }
};

enum class SetOp : std::uint8_t { kAssign, kAdd };

struct SetClause {
  std::size_t column = 0;
  SetOp op = SetOp::kAssign;
  Value value;
};

enum class Agg : std::uint8_t { kNone, kCount, kSum, kMin, kMax };

struct Statement {
  enum class Kind : std::uint8_t {
    kCreateTable,
    kInsert,
    kSelect,       // point lookup by primary key
    kUpdate,       // point update by primary key
    kDelete,       // point delete by primary key
    kScan,         // predicate scan with optional aggregate/order/limit
    kUpdateWhere,  // predicate update
    kDeleteWhere,  // predicate delete
  };

  Kind kind = Kind::kSelect;
  std::string table;
  TableSchema schema;            // kCreateTable
  Row row;                       // kInsert
  Key key;                       // point ops
  std::vector<SetClause> sets;   // updates
  std::vector<Condition> where;  // predicate ops
  Agg agg = Agg::kNone;
  std::size_t agg_column = 0;
  std::optional<std::pair<std::size_t, bool>> order_by;  // (column, descending)
  std::size_t limit = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> select_columns;  // empty = all columns
  /// SELECT ... FOR UPDATE: reads that precede a write to the same rows take
  /// exclusive locks up front, avoiding shared→exclusive upgrade deadlocks.
  bool for_update = false;

  bool is_read_only() const { return kind == Kind::kSelect || kind == Kind::kScan; }
};

// -- convenience builders (the prepared-statement API) ------------------------

Statement make_create_table(TableSchema schema);
Statement make_insert(std::string table, Row row);
Statement make_select(std::string table, Key key);
Statement make_select_for_update(std::string table, Key key);
Statement make_update(std::string table, Key key, std::vector<SetClause> sets);
Statement make_delete(std::string table, Key key);
Statement make_scan(std::string table, std::vector<Condition> where);
Statement make_update_where(std::string table, std::vector<Condition> where,
                            std::vector<SetClause> sets);

/// Result of executing one statement.
struct ExecResult {
  enum class Status : std::uint8_t {
    kOk,
    kBlocked,  // queued on a lock; a wake callback will deliver the outcome
    kAborted,  // transaction aborted (lock timeout / conflict)
  };

  Status status = Status::kOk;
  std::vector<Row> rows;    // select/scan output
  Value agg_value;          // aggregate result
  std::size_t affected = 0; // rows touched by writes
  std::uint64_t cost_us = 0;  // CPU consumed by this call (virtual micros)
  std::string error;

  bool ok() const { return status == Status::kOk; }
};

}  // namespace shadow::db
