// SQL values and rows for the in-memory database engines.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"

namespace shadow::db {

/// A SQL value: NULL, BIGINT, DOUBLE or VARCHAR.
class Value {
 public:
  struct Null {
    auto operator<=>(const Null&) const = default;
  };
  using Rep = std::variant<Null, std::int64_t, double, std::string>;

  Value() : rep_(Null{}) {}
  Value(std::int64_t v) : rep_(v) {}        // NOLINT(google-explicit-constructor)
  Value(int v) : rep_(std::int64_t{v}) {}   // NOLINT(google-explicit-constructor)
  Value(double v) : rep_(v) {}              // NOLINT(google-explicit-constructor)
  Value(std::string v) : rep_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : rep_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  explicit Value(std::string_view v) : rep_(std::in_place_type<std::string>, v) {}

  bool is_null() const { return std::holds_alternative<Null>(rep_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }

  std::int64_t as_int() const {
    const auto* p = std::get_if<std::int64_t>(&rep_);
    SHADOW_CHECK_MSG(p != nullptr, "value is not a BIGINT");
    return *p;
  }
  double as_double() const {
    if (const auto* p = std::get_if<double>(&rep_)) return *p;
    return static_cast<double>(as_int());  // implicit widening, like SQL
  }
  const std::string& as_string() const {
    const auto* p = std::get_if<std::string>(&rep_);
    SHADOW_CHECK_MSG(p != nullptr, "value is not a VARCHAR");
    return *p;
  }

  /// Arithmetic add used by `SET col = col + x` updates; NULL-propagating.
  Value plus(const Value& other) const {
    if (is_null() || other.is_null()) return Value();
    if (is_int() && other.is_int()) return Value(as_int() + other.as_int());
    return Value(as_double() + other.as_double());
  }

  auto operator<=>(const Value&) const = default;

  const Rep& rep() const { return rep_; }

  void serialize(BytesWriter& w) const;
  static Value deserialize(BytesReader& r);

  std::string to_string() const;

 private:
  Rep rep_;
};

using Row = std::vector<Value>;
using Key = std::vector<Value>;

void serialize_row(BytesWriter& w, const Row& row);
Row deserialize_row(BytesReader& r);

// -- stored forms ---------------------------------------------------------------
//
// Storage keeps every row as the bytes serialize_row writes ("row bytes")
// and every primary key order-preservingly encoded ("key bytes"): memcmp
// order on key bytes (a proper prefix first) is Key's <=>, and equal bytes
// are equal keys. Each value is its tag byte (the Value alternative's index,
// so NULL < BIGINT < DOUBLE < VARCHAR as in Value's <=>) and then:
//   BIGINT   8 bytes big-endian with the sign bit flipped;
//   DOUBLE   8 bytes big-endian of the IEEE bits, all flipped if negative
//            and the sign bit set otherwise; -0.0 is stored as +0.0 (the
//            two compare equal) and NaN, which has no place in a total
//            order, is rejected;
//   VARCHAR  the bytes with each 0x00 escaped as 0x00 0xFF, then 0x00 0x00.
// Every value's encoding is self-delimiting, so a key's bytes are its
// values' encodings back to back and a key prefix encodes as a byte prefix.

/// A byte buffer's bytes as characters (key and row bytes are std::string).
inline std::string_view as_chars(const Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Appends `v`'s key encoding to `out`.
void append_key_value(std::string& out, const Value& v);
std::string encode_key(const Key& key);
/// The Key that `key` bytes encode (a -0.0 comes back as +0.0).
Key decode_key(std::string_view key);
/// The least byte string above every string starting with `prefix`: the
/// exclusive end of a key-prefix range. Empty (no bound) if there is none.
std::string prefix_successor(std::string_view prefix);
/// The hash of the key's values, combined in column order.
std::size_t hash_key(std::string_view key);

/// One row's bytes read in place: each accessor decodes only the column it
/// names. The bytes must be a whole serialized row (see row_extent).
class RowView {
 public:
  explicit RowView(std::string_view bytes) : bytes_(bytes) {}

  std::string_view bytes() const { return bytes_; }
  std::size_t size() const;
  /// Column `i`'s serialized bytes: its tag, then its payload.
  std::string_view column(std::size_t i) const;
  /// The column serialized at byte `pos`, advancing `pos` past it: one pass
  /// over every column starts at kFirstColumn.
  std::string_view next_column(std::size_t& pos) const;
  static constexpr std::size_t kFirstColumn = 4;
  Value get(std::size_t i) const { return decode(column(i)); }
  /// Column `i` <=> `v`, as Value's <=> would order them.
  std::partial_ordering compare(std::size_t i, const Value& v) const;
  Row to_row() const;
  /// Column `i`'s key encoding, appended to `out`.
  void append_key_column(std::string& out, std::size_t i) const;
  /// Whether column `i` is a NaN DOUBLE: the one value without a key
  /// encoding, and equal to nothing.
  bool is_nan(std::size_t i) const;
  /// The hash of the row's values, combined in column order (the same
  /// mixing hash_key applies to a key's).
  std::size_t hash() const;

  static Value decode(std::string_view column);

 private:
  std::string_view bytes_;
};

/// The length of the serialized row at the start of `bytes`; throws
/// InvariantViolation if it runs past the end.
std::size_t row_extent(std::string_view bytes);

}  // namespace shadow::db
