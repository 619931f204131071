#include "db/value.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>

namespace shadow::db {

namespace {
enum Tag : std::uint8_t { kNull = 0, kInt = 1, kDouble = 2, kString = 3 };

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Little-endian loads, as BytesWriter writes them.
std::uint64_t load_le64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

std::uint32_t load_le32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

std::uint64_t load_be64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  return v;
}

/// Appends a tag byte and 8 big-endian payload bytes.
void append_tagged_be64(std::string& out, Tag tag, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  char buf[9];
  buf[0] = static_cast<char>(tag);
  std::memcpy(buf + 1, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

double bits_to_double(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void append_key_int(std::string& out, std::int64_t v) {
  append_tagged_be64(out, kInt, static_cast<std::uint64_t>(v) ^ kSignBit);
}

void append_key_double(std::string& out, double v) {
  SHADOW_REQUIRE_MSG(!std::isnan(v), "NaN in a primary key");
  std::uint64_t bits = 0;
  if (v != 0.0) std::memcpy(&bits, &v, sizeof(bits));  // -0.0 is stored as +0.0
  append_tagged_be64(out, kDouble, (bits & kSignBit) != 0 ? ~bits : bits | kSignBit);
}

void append_key_string(std::string& out, std::string_view v) {
  out.push_back(static_cast<char>(kString));
  for (const char c : v) {
    out.push_back(c);
    if (c == '\0') out.push_back('\xff');
  }
  out.append(2, '\0');
}

/// Column payload accessors (the tag byte is column[0]).
std::int64_t column_int(std::string_view column) {
  return static_cast<std::int64_t>(load_le64(column.data() + 1));
}
double column_double(std::string_view column) {
  return bits_to_double(load_le64(column.data() + 1));
}
std::string_view column_string(std::string_view column) { return column.substr(5); }

/// The length of the value serialized at `p` (its tag included), in bytes
/// already known to hold a whole row.
std::size_t column_extent(const char* p) {
  switch (static_cast<std::uint8_t>(*p)) {
    case kInt:
    case kDouble: return 9;
    case kString: return 5 + load_le32(p + 1);
    default: return 1;
  }
}

/// column_extent for bytes from outside: throws if the value runs past the
/// end or its tag is unknown.
std::size_t value_extent(std::string_view bytes, std::size_t pos) {
  SHADOW_CHECK_MSG(pos < bytes.size(), "truncated row");
  switch (static_cast<std::uint8_t>(bytes[pos])) {
    case kNull: return 1;
    case kInt:
    case kDouble:
      SHADOW_CHECK_MSG(bytes.size() - pos >= 9, "truncated row");
      return 9;
    case kString: {
      SHADOW_CHECK_MSG(bytes.size() - pos >= 5, "truncated row");
      const std::uint64_t n = load_le32(bytes.data() + pos + 1);
      SHADOW_CHECK_MSG(bytes.size() - pos - 5 >= n, "truncated row");
      return 5 + n;
    }
    default: SHADOW_CHECK_MSG(false, "bad value tag"); return 0;
  }
}

/// Mixes value hashes one at a time, in column order (keys and rows alike).
struct HashMix {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  void add(std::size_t vh) { h ^= vh + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2); }
};

std::size_t value_hash(const Value& v) {
  return std::visit(
      [](const auto& x) -> std::size_t {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, Value::Null>) {
          return 0;
        } else if constexpr (std::is_same_v<T, std::string>) {
          return std::hash<std::string_view>{}(x);
        } else {
          return std::hash<T>{}(x);
        }
      },
      v.rep());
}

}  // namespace

void Value::serialize(BytesWriter& w) const {
  std::visit(
      [&w](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Null>) {
          w.u8(kNull);
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          w.u8(kInt);
          w.i64(v);
        } else if constexpr (std::is_same_v<T, double>) {
          w.u8(kDouble);
          w.f64(v);
        } else {
          w.u8(kString);
          w.str(v);
        }
      },
      rep_);
}

Value Value::deserialize(BytesReader& r) {
  switch (r.u8()) {
    case kNull: return Value();
    case kInt: return Value(r.i64());
    case kDouble: return Value(r.f64());
    case kString: return Value(r.str());
    default: SHADOW_CHECK_MSG(false, "bad value tag"); return Value();
  }
}

std::string Value::to_string() const {
  std::ostringstream os;
  std::visit(
      [&os](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Null>) {
          os << "NULL";
        } else if constexpr (std::is_same_v<T, std::string>) {
          os << '\'' << v << '\'';
        } else {
          os << v;
        }
      },
      rep_);
  return os.str();
}

void serialize_row(BytesWriter& w, const Row& row) {
  w.u32(static_cast<std::uint32_t>(row.size()));
  for (const Value& v : row) v.serialize(w);
}

Row deserialize_row(BytesReader& r) {
  const std::uint32_t n = r.u32();
  Row row;
  row.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) row.push_back(Value::deserialize(r));
  return row;
}

// -- stored forms ---------------------------------------------------------------

void append_key_value(std::string& out, const Value& v) {
  std::visit(
      [&out](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, Value::Null>) {
          out.push_back(static_cast<char>(kNull));
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          append_key_int(out, x);
        } else if constexpr (std::is_same_v<T, double>) {
          append_key_double(out, x);
        } else {
          append_key_string(out, x);
        }
      },
      v.rep());
}

std::string encode_key(const Key& key) {
  std::string out;
  for (const Value& v : key) append_key_value(out, v);
  return out;
}

Key decode_key(std::string_view key) {
  Key out;
  std::size_t pos = 0;
  while (pos < key.size()) {
    const auto tag = static_cast<std::uint8_t>(key[pos++]);
    if (tag == kNull) {
      out.emplace_back();
    } else if (tag == kInt || tag == kDouble) {
      SHADOW_CHECK_MSG(key.size() - pos >= 8, "truncated key");
      const std::uint64_t bits = load_be64(key.data() + pos);
      pos += 8;
      if (tag == kInt) {
        out.emplace_back(static_cast<std::int64_t>(bits ^ kSignBit));
      } else {
        out.emplace_back(bits_to_double((bits & kSignBit) != 0 ? bits & ~kSignBit : ~bits));
      }
    } else {
      SHADOW_CHECK_MSG(tag == kString, "bad key tag");
      std::string s;
      while (true) {
        SHADOW_CHECK_MSG(key.size() - pos >= 2, "truncated key");
        const char c = key[pos++];
        if (c != '\0') {
          s.push_back(c);
        } else if (key[pos++] == '\0') {
          break;
        } else {
          s.push_back('\0');
        }
      }
      out.emplace_back(std::move(s));
    }
  }
  return out;
}

std::string prefix_successor(std::string_view prefix) {
  std::string out(prefix);
  while (!out.empty() && static_cast<std::uint8_t>(out.back()) == 0xff) out.pop_back();
  if (!out.empty()) out.back() = static_cast<char>(static_cast<std::uint8_t>(out.back()) + 1);
  return out;
}

std::size_t hash_key(std::string_view key) {
  HashMix mix;
  for (const Value& v : decode_key(key)) mix.add(value_hash(v));
  return mix.h;
}

std::size_t RowView::size() const { return load_le32(bytes_.data()); }

std::string_view RowView::column(std::size_t i) const {
  const char* p = bytes_.data() + kFirstColumn;
  for (std::size_t j = 0; j < i; ++j) p += column_extent(p);
  return {p, column_extent(p)};
}

std::string_view RowView::next_column(std::size_t& pos) const {
  const std::string_view c(bytes_.data() + pos, column_extent(bytes_.data() + pos));
  pos += c.size();
  return c;
}

Value RowView::decode(std::string_view column) {
  switch (static_cast<std::uint8_t>(column[0])) {
    case kInt: return Value(column_int(column));
    case kDouble: return Value(column_double(column));
    case kString: return Value(column_string(column));
    default: return Value();
  }
}

std::partial_ordering RowView::compare(std::size_t i, const Value& v) const {
  const std::string_view c = column(i);
  const std::size_t tag = static_cast<std::uint8_t>(c[0]);
  if (tag != v.rep().index()) return tag <=> v.rep().index();
  switch (tag) {
    case kInt: return column_int(c) <=> std::get<std::int64_t>(v.rep());
    case kDouble: return column_double(c) <=> std::get<double>(v.rep());
    case kString: return column_string(c) <=> std::string_view(std::get<std::string>(v.rep()));
    default: return std::partial_ordering::equivalent;
  }
}

Row RowView::to_row() const {
  // One pass that builds each Value in place: a read's hottest decode.
  const std::size_t n = size();
  Row row;
  row.reserve(n);
  const char* p = bytes_.data() + kFirstColumn;
  for (std::size_t i = 0; i < n; ++i) {
    switch (static_cast<std::uint8_t>(*p)) {
      case kInt: row.emplace_back(static_cast<std::int64_t>(load_le64(p + 1))); break;
      case kDouble: row.emplace_back(bits_to_double(load_le64(p + 1))); break;
      case kString: row.emplace_back(std::string_view(p + 5, load_le32(p + 1))); break;
      default: row.emplace_back(); break;
    }
    p += column_extent(p);
  }
  return row;
}

void RowView::append_key_column(std::string& out, std::size_t i) const {
  const std::string_view c = column(i);
  switch (static_cast<std::uint8_t>(c[0])) {
    case kInt: append_key_int(out, column_int(c)); break;
    case kDouble: append_key_double(out, column_double(c)); break;
    case kString: append_key_string(out, column_string(c)); break;
    default: out.push_back(static_cast<char>(kNull)); break;
  }
}

bool RowView::is_nan(std::size_t i) const {
  const std::string_view c = column(i);
  return static_cast<std::uint8_t>(c[0]) == kDouble && std::isnan(column_double(c));
}

std::size_t RowView::hash() const {
  HashMix mix;
  const std::size_t n = size();
  std::size_t pos = kFirstColumn;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view c = next_column(pos);
    switch (static_cast<std::uint8_t>(c[0])) {
      case kInt: mix.add(std::hash<std::int64_t>{}(column_int(c))); break;
      case kDouble: mix.add(std::hash<double>{}(column_double(c))); break;
      case kString: mix.add(std::hash<std::string_view>{}(column_string(c))); break;
      default: mix.add(0); break;
    }
  }
  return mix.h;
}

std::size_t row_extent(std::string_view bytes) {
  SHADOW_CHECK_MSG(bytes.size() >= 4, "truncated row");
  const std::uint64_t n = load_le32(bytes.data());
  std::size_t pos = RowView::kFirstColumn;
  for (std::uint64_t i = 0; i < n; ++i) pos += value_extent(bytes, pos);
  return pos;
}

}  // namespace shadow::db
