// Row storage. Two independent storage structures back the "diverse"
// engines: a hash index (H2-like) and an ordered index (HSQLDB/Derby-like).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "db/schema.hpp"
#include "db/value.hpp"

namespace shadow::db {

struct KeyHash {
  std::size_t operator()(const Key& key) const;
};

/// The leading columns of a primary key, used as a range bound: a key
/// compares equal to it when its first `cols.size()` columns do.
struct KeyPrefix {
  const Key& cols;
};

/// Primary-key order, plus the heterogeneous comparisons against a
/// KeyPrefix that let an ordered store find a range's end in one descent.
struct KeyLess {
  using is_transparent = void;
  bool operator()(const Key& a, const Key& b) const { return a < b; }
  bool operator()(const Key& key, const KeyPrefix& prefix) const;
  bool operator()(const KeyPrefix& prefix, const Key& key) const;
};

/// A stored row plus the state version of the last mutation that left it in
/// storage (delta state transfer and versioned reads read it; 0 = untouched
/// since the initial load or a full restore).
struct StoredRow {
  Row row;
  std::uint64_t touched = 0;
};

using RowVisitor = std::function<bool(const Key&, const StoredRow&)>;

/// Abstract per-table row store, keyed by primary key. Entry pointers stay
/// valid until their own key is erased.
class Storage {
 public:
  virtual ~Storage() = default;

  /// Inserts `row` under `key` unless the key exists. Returns the key's entry
  /// and whether it was inserted; `row` is moved from only if it was.
  virtual std::pair<StoredRow*, bool> insert(const Key& key, Row&& row) = 0;
  virtual const StoredRow* find(const Key& key) const = 0;
  virtual StoredRow* find(const Key& key) = 0;
  /// Erases the key's entry and returns its row (nullopt if absent).
  virtual std::optional<Row> take(const Key& key) = 0;
  virtual std::size_t size() const = 0;

  /// Visits all rows (ordered stores visit in key order); the visitor
  /// returns false to stop early.
  virtual void scan(const RowVisitor& visit) const = 0;

  /// True if scan() visits rows in primary-key order; enables index range
  /// scans (the "less than" / "order by" optimization the MySQL memory
  /// engine lacks, per the paper's §IV.B).
  virtual bool ordered() const = 0;

  /// Visits, in key order, the rows with key >= `start` whose leading
  /// `last.size()` columns are <= `last`. Hash stores fall back to a full
  /// scan (callers re-check every row's predicate then).
  virtual void scan_range(const Key& start, const Key& last, const RowVisitor& visit) const = 0;
};

/// Hash-indexed storage (the H2-style engines).
class HashStorage final : public Storage {
 public:
  std::pair<StoredRow*, bool> insert(const Key& key, Row&& row) override;
  const StoredRow* find(const Key& key) const override;
  StoredRow* find(const Key& key) override;
  std::optional<Row> take(const Key& key) override;
  std::size_t size() const override { return rows_.size(); }
  void scan(const RowVisitor& visit) const override;
  bool ordered() const override { return false; }
  void scan_range(const Key& start, const Key& last, const RowVisitor& visit) const override;

 private:
  std::unordered_map<Key, StoredRow, KeyHash> rows_;
};

/// Ordered storage (AVL/B-tree-style engines; scans are key-ordered).
class OrderedStorage final : public Storage {
 public:
  std::pair<StoredRow*, bool> insert(const Key& key, Row&& row) override;
  const StoredRow* find(const Key& key) const override;
  StoredRow* find(const Key& key) override;
  std::optional<Row> take(const Key& key) override;
  std::size_t size() const override { return rows_.size(); }
  void scan(const RowVisitor& visit) const override;
  bool ordered() const override { return true; }
  void scan_range(const Key& start, const Key& last, const RowVisitor& visit) const override;

 private:
  std::map<Key, StoredRow, KeyLess> rows_;
};

/// A table: schema + storage.
struct Table {
  TableSchema schema;
  std::unique_ptr<Storage> storage;

  Table(TableSchema s, bool ordered)
      : schema(std::move(s)),
        storage(ordered ? std::unique_ptr<Storage>(std::make_unique<OrderedStorage>())
                        : std::unique_ptr<Storage>(std::make_unique<HashStorage>())) {}
};

}  // namespace shadow::db
