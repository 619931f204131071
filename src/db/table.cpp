#include "db/table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace shadow::db {

// -- hash layout ----------------------------------------------------------------

std::optional<RowEntry> HashStorage::find(std::string_view key) const {
  auto it = rows_.find(key);
  if (it == rows_.end()) return std::nullopt;
  return RowEntry{it->first, it->second.row, it->second.touched};
}

std::optional<RowEntry> HashStorage::insert(std::string_view key, std::string_view row,
                                            std::uint64_t touched) {
  if (std::optional<RowEntry> present = find(key)) return present;
  rows_.emplace(std::string(key), Entry{std::string(row), touched});
  return std::nullopt;
}

void HashStorage::replace(const RowEntry& found, std::string_view row, std::uint64_t touched) {
  Entry& entry = rows_.find(found.key)->second;
  entry.row.assign(row);
  entry.touched = touched;
}

std::optional<std::string> HashStorage::take(std::string_view key) {
  auto it = rows_.find(key);
  if (it == rows_.end()) return std::nullopt;
  return std::move(rows_.extract(it).mapped().row);
}

void HashStorage::scan(const RowVisitor& visit) const {
  for (const auto& [key, entry] : rows_) {
    if (!visit(RowEntry{key, entry.row, entry.touched})) return;
  }
}

void HashStorage::scan_range(std::string_view /*start*/, std::string_view /*end*/,
                             const RowVisitor& visit) const {
  scan(visit);  // no key order available: full scan
}

// -- ordered layout -------------------------------------------------------------

namespace {

/// A leaf splits rather than grow past this many bytes of records.
constexpr std::size_t kLeafBytes = 4096;
/// A record's two length words and its stamp.
constexpr std::size_t kRecordOverhead = 16;

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Compares the eight bytes at `a` and `b` in memcmp order.
int compare_word(const char* a, const char* b) {
  std::uint64_t x = load_u64(a);
  std::uint64_t y = load_u64(b);
  if (x == y) return 0;
  if constexpr (std::endian::native == std::endian::little) {
    x = __builtin_bswap64(x);
    y = __builtin_bswap64(y);
  }
  return x < y ? -1 : 1;
}

/// Byte-lexicographic a < b (memcmp order, a proper prefix first), eight
/// bytes at a time: keys are short, so this beats a call to memcmp.
bool key_less(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 8) {
    if (const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n)) return c < 0;
    return a.size() < b.size();
  }
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    if (const int c = compare_word(a.data() + i, b.data() + i)) return c < 0;
  }
  // A last word ending at n covers the tail; its other bytes are equal.
  if (n % 8 != 0) {
    if (const int c = compare_word(a.data() + n - 8, b.data() + n - 8)) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

struct OrderedStorage::Leaf {
  std::string bytes;                   // the records, back to back in key order
  std::vector<std::uint32_t> offsets;  // each record's start in `bytes`

  Leaf() { bytes.reserve(kLeafBytes); }

  std::size_t count() const { return offsets.size(); }

  RowEntry entry(std::size_t i) const {
    const char* p = bytes.data() + offsets[i];
    const std::uint32_t key_len = load_u32(p);
    const std::uint32_t row_len = load_u32(p + 4);
    const char* key = p + 8;
    return RowEntry{std::string_view(key, key_len), std::string_view(key + key_len, row_len),
                    load_u64(key + key_len + row_len)};
  }

  std::string_view key(std::size_t i) const {
    const char* p = bytes.data() + offsets[i];
    return {p + 8, load_u32(p)};
  }

  /// The first record whose key is not below `key`.
  std::size_t lower_bound(std::string_view key) const {
    std::size_t lo = 0;
    std::size_t hi = count();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key_less(this->key(mid), key)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void insert(std::size_t pos, std::string_view key, std::string_view row, std::uint64_t touched) {
    const std::size_t size = kRecordOverhead + key.size() + row.size();
    const std::size_t at = pos == count() ? bytes.size() : offsets[pos];
    bytes.insert(at, size, '\0');
    char* p = bytes.data() + at;
    const auto key_len = static_cast<std::uint32_t>(key.size());
    const auto row_len = static_cast<std::uint32_t>(row.size());
    std::memcpy(p, &key_len, 4);
    std::memcpy(p + 4, &row_len, 4);
    std::memcpy(p + 8, key.data(), key.size());
    std::memcpy(p + 8 + key.size(), row.data(), row.size());
    std::memcpy(p + 8 + key.size() + row.size(), &touched, 8);
    for (std::size_t i = pos; i < count(); ++i) offsets[i] += static_cast<std::uint32_t>(size);
    offsets.insert(offsets.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<std::uint32_t>(at));
  }

  void erase(std::size_t pos) {
    const std::size_t at = offsets[pos];
    const std::size_t end = pos + 1 == count() ? bytes.size() : offsets[pos + 1];
    bytes.erase(at, end - at);
    offsets.erase(offsets.begin() + static_cast<std::ptrdiff_t>(pos));
    for (std::size_t i = pos; i < count(); ++i) offsets[i] -= static_cast<std::uint32_t>(end - at);
  }
};

OrderedStorage::OrderedStorage() {
  fences_.emplace_back();
  leaves_.push_back(std::make_unique<Leaf>());
}

OrderedStorage::~OrderedStorage() = default;

std::size_t OrderedStorage::leaf_for(std::string_view key) const {
  const auto it = std::upper_bound(
      fences_.begin() + 1, fences_.end(), key,
      [](std::string_view k, const std::string& fence) { return key_less(k, fence); });
  return static_cast<std::size_t>(it - fences_.begin()) - 1;
}

std::optional<RowEntry> OrderedStorage::find(std::string_view key) const {
  const Leaf& leaf = *leaves_[leaf_for(key)];
  const std::size_t pos = leaf.lower_bound(key);
  if (pos == leaf.count() || leaf.key(pos) != key) return std::nullopt;
  return leaf.entry(pos);
}

std::optional<RowEntry> OrderedStorage::insert(std::string_view key, std::string_view row,
                                               std::uint64_t touched) {
  const std::size_t li = leaf_for(key);
  const Leaf& leaf = *leaves_[li];
  const std::size_t pos = leaf.lower_bound(key);
  if (pos < leaf.count() && leaf.key(pos) == key) return leaf.entry(pos);
  insert_at(li, pos, key, row, touched);
  return std::nullopt;
}

void OrderedStorage::replace(const RowEntry& found, std::string_view row,
                             std::uint64_t touched) {
  if (row.size() == found.row.size()) {
    // The record's row and stamp are adjacent in its leaf's bytes.
    char* dst = const_cast<char*>(found.row.data());
    std::memcpy(dst, row.data(), row.size());
    std::memcpy(dst + row.size(), &touched, sizeof(touched));
    return;
  }
  const std::string key(found.key);  // `found` points into the record erased below
  const std::size_t li = leaf_for(key);
  const std::size_t pos = leaves_[li]->lower_bound(key);
  leaves_[li]->erase(pos);
  --size_;
  insert_at(li, pos, key, row, touched);
}

void OrderedStorage::insert_at(std::size_t li, std::size_t pos, std::string_view key,
                               std::string_view row, std::uint64_t touched) {
  Leaf* leaf = leaves_[li].get();
  const std::size_t n = leaf->count();
  const std::size_t size = kRecordOverhead + key.size() + row.size();
  ++size_;
  if (n == 0 || leaf->bytes.size() + size <= kLeafBytes) {
    leaf->insert(pos, key, row, touched);
    return;
  }
  // Split at the insert point: records [pos, n) move to a new leaf on the
  // right, and the record goes last on the left if it fits there (or the
  // left is empty), first on the right otherwise. Keys arriving in a run
  // (ascending or descending) keep filling one leaf, and the leaves they
  // leave behind stay full.
  auto right = std::make_unique<Leaf>();
  const std::size_t base = pos == n ? leaf->bytes.size() : leaf->offsets[pos];
  right->bytes.append(leaf->bytes, base);
  for (std::size_t i = pos; i < n; ++i) right->offsets.push_back(leaf->offsets[i] - base);
  leaf->bytes.resize(base);
  leaf->offsets.resize(pos);
  if (pos == 0 || base + size <= kLeafBytes) {
    leaf->insert(pos, key, row, touched);
  } else {
    right->insert(0, key, row, touched);
  }
  std::string fence(right->key(0));
  fences_.insert(fences_.begin() + static_cast<std::ptrdiff_t>(li) + 1, std::move(fence));
  leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li) + 1, std::move(right));
}

std::optional<std::string> OrderedStorage::take(std::string_view key) {
  const std::size_t li = leaf_for(key);
  Leaf& leaf = *leaves_[li];
  const std::size_t pos = leaf.lower_bound(key);
  if (pos == leaf.count() || leaf.key(pos) != key) return std::nullopt;
  std::string row(leaf.entry(pos).row);
  leaf.erase(pos);
  --size_;
  if (leaf.count() == 0 && leaves_.size() > 1) {
    leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li));
    fences_.erase(fences_.begin() + static_cast<std::ptrdiff_t>(li));
    fences_.front().clear();  // the first leaf has no lower bound
  }
  return row;
}

void OrderedStorage::scan(const RowVisitor& visit) const { scan_from(0, 0, {}, visit); }

void OrderedStorage::scan_range(std::string_view start, std::string_view end,
                                const RowVisitor& visit) const {
  if (!end.empty() && !key_less(start, end)) return;
  const std::size_t li = leaf_for(start);
  scan_from(li, leaves_[li]->lower_bound(start), end, visit);
}

void OrderedStorage::scan_from(std::size_t li, std::size_t pos, std::string_view end,
                               const RowVisitor& visit) const {
  for (; li < leaves_.size(); ++li, pos = 0) {
    const Leaf& leaf = *leaves_[li];
    for (; pos < leaf.count(); ++pos) {
      const RowEntry entry = leaf.entry(pos);
      if (!end.empty() && !key_less(entry.key, end)) return;
      if (!visit(entry)) return;
    }
  }
}

}  // namespace shadow::db
