// Row storage. Two layouts over one row format back the "diverse" engines:
// an ordered layout (H2's MVStore, HSQLDB, Derby, InnoDB: B-tree-like, key
// ordered) and a hash layout (the MySQL memory engine).
//
// Both store each row as its row bytes (what serialize_row writes) under its
// key bytes (the order-preserving key encoding, value.hpp), plus the state
// version of the last mutation that left it in storage (delta state transfer
// and versioned reads read it; 0 = untouched since the initial load or a
// full restore). No Value is built to store, find or scan a row.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/schema.hpp"
#include "db/value.hpp"

namespace shadow::db {

/// One stored row as storage hands it out. The views point into the
/// storage's own bytes and stay valid until its next mutation.
struct RowEntry {
  std::string_view key;  // key bytes
  std::string_view row;  // row bytes
  std::uint64_t touched = 0;
};

using RowVisitor = std::function<bool(const RowEntry&)>;

/// Abstract per-table row store, keyed by key bytes.
class Storage {
 public:
  virtual ~Storage() = default;

  virtual std::optional<RowEntry> find(std::string_view key) const = 0;
  /// Stores `row` under `key` with stamp `touched` unless the key is
  /// present; returns the present entry then, and changes nothing.
  virtual std::optional<RowEntry> insert(std::string_view key, std::string_view row,
                                         std::uint64_t touched) = 0;
  /// Replaces the row and stamp of `found`, an entry that find() or
  /// insert() returned with no mutation since.
  virtual void replace(const RowEntry& found, std::string_view row, std::uint64_t touched) = 0;
  /// Erases the key's entry and returns its row bytes (nullopt if absent).
  virtual std::optional<std::string> take(std::string_view key) = 0;
  virtual std::size_t size() const = 0;

  /// Visits all rows (the ordered layout in key order); the visitor returns
  /// false to stop early.
  virtual void scan(const RowVisitor& visit) const = 0;

  /// True if scan() visits rows in primary-key order; enables index range
  /// scans (the "less than" / "order by" optimization the MySQL memory
  /// engine lacks, per the paper's §IV.B).
  virtual bool ordered() const = 0;

  /// Visits, in key order, the rows whose key bytes lie in [start, end)
  /// (an empty `end`: no upper bound). The hash layout falls back to a full
  /// scan (callers re-check every row's predicate then).
  virtual void scan_range(std::string_view start, std::string_view end,
                          const RowVisitor& visit) const = 0;
};

/// The hash layout (the MySQL memory engine): one entry per key. It hashes
/// key bytes by the values they encode (hash_key), the hash that fixes its
/// scan order, and with it a full stream's row order and the order of
/// unordered scan results.
class HashStorage final : public Storage {
 public:
  std::optional<RowEntry> find(std::string_view key) const override;
  std::optional<RowEntry> insert(std::string_view key, std::string_view row,
                                 std::uint64_t touched) override;
  void replace(const RowEntry& found, std::string_view row, std::uint64_t touched) override;
  std::optional<std::string> take(std::string_view key) override;
  std::size_t size() const override { return rows_.size(); }
  void scan(const RowVisitor& visit) const override;
  bool ordered() const override { return false; }
  void scan_range(std::string_view start, std::string_view end,
                  const RowVisitor& visit) const override;

 private:
  /// Hashes key bytes by the values they encode (hash_key).
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const { return hash_key(key); }
  };
  struct Entry {
    std::string row;
    std::uint64_t touched = 0;
  };
  std::unordered_map<std::string, Entry, KeyHash, std::equal_to<>> rows_;
};

/// The ordered layout: a sorted run of leaves, each a few KB of contiguous
/// records in key order. A record is
///   [u32 key length][u32 row length][key bytes][row bytes][u64 touched]
/// and a leaf keeps its records' offsets for binary search. Leaf i holds
/// the keys in [fences_[i], fences_[i+1]) (fences_[0] is empty: no lower
/// bound). An insert into a full leaf splits it at the insert point, so keys
/// that arrive in runs (a key-ordered load, each district's new orders)
/// leave full leaves behind. An erase that empties a leaf drops it.
class OrderedStorage final : public Storage {
 public:
  OrderedStorage();
  ~OrderedStorage() override;

  std::optional<RowEntry> find(std::string_view key) const override;
  std::optional<RowEntry> insert(std::string_view key, std::string_view row,
                                 std::uint64_t touched) override;
  /// In place when the row keeps its length; otherwise the record moves
  /// (the key is looked up again).
  void replace(const RowEntry& found, std::string_view row, std::uint64_t touched) override;
  std::optional<std::string> take(std::string_view key) override;
  std::size_t size() const override { return size_; }
  void scan(const RowVisitor& visit) const override;
  bool ordered() const override { return true; }
  void scan_range(std::string_view start, std::string_view end,
                  const RowVisitor& visit) const override;

 private:
  struct Leaf;
  /// The leaf whose fences bracket `key`.
  std::size_t leaf_for(std::string_view key) const;
  /// Inserts a record at position `pos` of leaf `li`, splitting it first
  /// if the record does not fit.
  void insert_at(std::size_t li, std::size_t pos, std::string_view key, std::string_view row,
                 std::uint64_t touched);
  /// Visits leaf `li`'s records from `pos` on, then every later leaf's,
  /// while their keys are below `end` (empty: no bound).
  void scan_from(std::size_t li, std::size_t pos, std::string_view end,
                 const RowVisitor& visit) const;

  std::vector<std::string> fences_;
  std::vector<std::unique_ptr<Leaf>> leaves_;
  std::size_t size_ = 0;
};

/// A table: schema + storage.
struct Table {
  TableSchema schema;
  std::unique_ptr<Storage> storage;

  Table(TableSchema s, bool ordered)
      : schema(std::move(s)),
        storage(ordered ? std::unique_ptr<Storage>(std::make_unique<OrderedStorage>())
                        : std::unique_ptr<Storage>(std::make_unique<HashStorage>())) {}

  /// The key bytes of a row of this table.
  std::string key_bytes(RowView row) const {
    std::string key;
    for (std::size_t idx : schema.primary_key) row.append_key_column(key, idx);
    return key;
  }
};

}  // namespace shadow::db
