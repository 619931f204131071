#include "db/table.hpp"

#include <algorithm>

namespace shadow::db {

std::size_t KeyHash::operator()(const Key& key) const {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : key) {
    std::size_t vh = std::visit(
        [](const auto& x) -> std::size_t {
          using T = std::decay_t<decltype(x)>;
          if constexpr (std::is_same_v<T, Value::Null>) {
            return 0;
          } else if constexpr (std::is_same_v<T, std::int64_t>) {
            return std::hash<std::int64_t>{}(x);
          } else if constexpr (std::is_same_v<T, double>) {
            return std::hash<double>{}(x);
          } else {
            return std::hash<std::string>{}(x);
          }
        },
        v.rep());
    h ^= vh + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

namespace {

/// Compares the key's leading `prefix.size()` columns to `prefix`: negative,
/// zero or positive (a key shorter than the prefix orders before it).
int compare_leading(const Key& key, const Key& prefix) {
  const std::size_t n = std::min(key.size(), prefix.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = key[i] <=> prefix[i];
    if (c < 0) return -1;
    if (c > 0) return 1;
  }
  return key.size() < prefix.size() ? -1 : 0;
}

}  // namespace

bool KeyLess::operator()(const Key& key, const KeyPrefix& prefix) const {
  return compare_leading(key, prefix.cols) < 0;
}

bool KeyLess::operator()(const KeyPrefix& prefix, const Key& key) const {
  return compare_leading(key, prefix.cols) > 0;
}

std::pair<StoredRow*, bool> HashStorage::insert(const Key& key, Row&& row) {
  auto [it, inserted] = rows_.try_emplace(key);
  if (inserted) it->second.row = std::move(row);
  return {&it->second, inserted};
}

const StoredRow* HashStorage::find(const Key& key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

StoredRow* HashStorage::find(const Key& key) {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

std::optional<Row> HashStorage::take(const Key& key) {
  auto node = rows_.extract(key);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped().row);
}

void HashStorage::scan(const RowVisitor& visit) const {
  for (const auto& [key, stored] : rows_) {
    if (!visit(key, stored)) return;
  }
}

void HashStorage::scan_range(const Key& /*start*/, const Key& /*last*/,
                             const RowVisitor& visit) const {
  scan(visit);  // no key order available: full scan
}

std::pair<StoredRow*, bool> OrderedStorage::insert(const Key& key, Row&& row) {
  auto [it, inserted] = rows_.try_emplace(key);
  if (inserted) it->second.row = std::move(row);
  return {&it->second, inserted};
}

const StoredRow* OrderedStorage::find(const Key& key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

StoredRow* OrderedStorage::find(const Key& key) {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

std::optional<Row> OrderedStorage::take(const Key& key) {
  auto node = rows_.extract(key);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped().row);
}

void OrderedStorage::scan(const RowVisitor& visit) const {
  for (const auto& [key, stored] : rows_) {
    if (!visit(key, stored)) return;
  }
}

void OrderedStorage::scan_range(const Key& start, const Key& last,
                                const RowVisitor& visit) const {
  auto it = rows_.lower_bound(start);
  // An empty range (start beyond last) would put `end` before `it`.
  if (it == rows_.end() || compare_leading(it->first, last) > 0) return;
  const auto end = rows_.upper_bound(KeyPrefix{last});
  for (; it != end; ++it) {
    if (!visit(it->first, it->second)) return;
  }
}

}  // namespace shadow::db
