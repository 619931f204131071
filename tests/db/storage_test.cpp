// Unit tests for the stored forms: the order-preserving key encoding, row
// bytes, and the ordered layout's leaves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>

#include "db/engine.hpp"

namespace shadow::db {
namespace {

using namespace std::string_literals;

/// Values chosen to sit on the encoding's edges: NULL, the int extremes,
/// signed zeros, infinities, ints and doubles of equal value, and strings
/// that are empty, prefixes of each other, or hold 0x00 and 0xff bytes.
std::vector<Value> edge_values() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      Value(),
      Value(std::numeric_limits<std::int64_t>::min()),
      Value(std::numeric_limits<std::int64_t>::min() + 1),
      Value(std::int64_t{-256}),
      Value(std::int64_t{-1}),
      Value(std::int64_t{0}),
      Value(std::int64_t{1}),
      Value(std::int64_t{255}),
      Value(std::int64_t{256}),
      Value(std::numeric_limits<std::int64_t>::max()),
      Value(-inf),
      Value(-std::numeric_limits<double>::max()),
      Value(-1.5),
      Value(-std::numeric_limits<double>::denorm_min()),
      Value(-0.0),
      Value(0.0),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<double>::min()),
      Value(1.0),
      Value(255.0),
      Value(std::numeric_limits<double>::max()),
      Value(inf),
      Value(""s),
      Value("\0"s),
      Value("\0\0"s),
      Value("\0\xff"s),
      Value("\x01"s),
      Value("a"s),
      Value("a\0"s),
      Value("a\0b"s),
      Value("a\x01"s),
      Value("ab"s),
      Value("\xff"s),
      Value("\xff\xff"s),
  };
}

Value random_value(std::mt19937_64& rng) {
  static const std::vector<Value> edges = edge_values();
  switch (rng() % 4) {
    case 0: return edges[rng() % edges.size()];
    case 1: return Value(static_cast<std::int64_t>(rng()) >> (rng() % 64));
    case 2: {
      double d;
      do {
        const std::uint64_t bits = rng();
        std::memcpy(&d, &bits, sizeof(d));
      } while (std::isnan(d));
      return Value(d);
    }
    default: {
      std::string s(rng() % 5, '\0');
      for (char& c : s) c = "\0\x01" "a\xfe\xff"[rng() % 5];
      return Value(std::move(s));
    }
  }
}

Key random_key(std::mt19937_64& rng) {
  Key key(1 + rng() % 3);
  for (Value& v : key) v = random_value(rng);
  return key;
}

int sign(std::partial_ordering c) { return c < 0 ? -1 : c > 0 ? 1 : 0; }

TEST(KeyEncoding, MemcmpOrderAndByteEqualityAgreeWithKeyOrder) {
  std::mt19937_64 rng(20231);
  for (int i = 0; i < 100000; ++i) {
    Key a = random_key(rng);
    Key b = random_key(rng);
    if (rng() % 4 == 0) {  // share a prefix, so later columns and arity decide
      b.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(rng() % (a.size() + 1)));
      for (std::size_t n = rng() % 3; n > 0; --n) b.push_back(random_value(rng));
    }
    const std::string ea = encode_key(a);
    const std::string eb = encode_key(b);
    const int want = sign(a <=> b);
    ASSERT_EQ(sign(ea.compare(eb) <=> 0), want) << ::testing::PrintToString(ea) << " vs "
                                                << ::testing::PrintToString(eb);
    ASSERT_EQ(ea == eb, a == b);
  }
}

TEST(KeyEncoding, EdgePairsOrderLikeKeys) {
  const std::vector<Value> edges = edge_values();
  for (const Value& x : edges) {
    for (const Value& y : edges) {
      const std::string ex = encode_key({x});
      const std::string ey = encode_key({y});
      ASSERT_EQ(sign(ex.compare(ey) <=> 0), sign(x <=> y)) << x.to_string() << " vs "
                                                           << y.to_string();
      ASSERT_EQ(ex == ey, x == y) << x.to_string() << " vs " << y.to_string();
    }
  }
  // The edges the encoding has to get right by construction.
  EXPECT_EQ(encode_key({Value(-0.0)}), encode_key({Value(0.0)}));
  EXPECT_LT(encode_key({Value(std::int64_t{1})}), encode_key({Value(1.0)}));  // BIGINT < DOUBLE
  EXPECT_LT(encode_key({Value(std::int64_t{1})}), encode_key({Value(std::int64_t{1}), Value()}));
}

TEST(KeyEncoding, DecodeInvertsEncode) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const Key key = random_key(rng);
    ASSERT_EQ(decode_key(encode_key(key)), key);
  }
  EXPECT_FALSE(std::signbit(decode_key(encode_key({Value(-0.0)}))[0].as_double()));
}

TEST(KeyEncoding, NanKeyIsRejected) {
  EXPECT_THROW(encode_key({Value(std::nan(""))}), PreconditionViolation);
}

TEST(KeyEncoding, PrefixSuccessorBoundsEveryExtension) {
  const std::string prefix = encode_key({Value(std::int64_t{-1})});  // ends in 0xff bytes
  const std::string end = prefix_successor(prefix);
  EXPECT_LT(prefix, end);
  EXPECT_LT(encode_key({Value(std::int64_t{-1}), Value("\xff\xff"s)}), end);
  EXPECT_GE(encode_key({Value(std::int64_t{0})}), end);
  EXPECT_EQ(prefix_successor("\xff\xff"s), "");
}

// ---- row bytes -------------------------------------------------------------------

TableSchema mixed_schema() {
  return TableSchema{"t",
                     {{"k", ColumnType::kVarchar},
                      {"n", ColumnType::kBigInt},
                      {"d", ColumnType::kDouble},
                      {"s", ColumnType::kVarchar}},
                     {0, 1}};
}

std::string serialized(const Row& row) {
  BytesWriter w;
  serialize_row(w, row);
  return std::string(as_chars(w.peek()));
}

class StoredRowBytes : public ::testing::TestWithParam<bool> {};

TEST_P(StoredRowBytes, StoredRowIsItsSerializeRowBytes) {
  EngineTraits traits = make_h2_traits();
  traits.ordered_index = GetParam();
  Engine engine(traits);
  engine.create_table(mixed_schema());
  std::map<Key, Row> want;  // key order: the ordered layout's scan order
  const TxnId t = engine.begin();
  for (std::int64_t i = 0; i < 200; ++i) {
    Row row{Value("k\0"s + std::to_string(i % 7)), Value(i), Value(-0.0 * static_cast<double>(i)),
            i % 5 == 0 ? Value() : Value(std::string(static_cast<std::size_t>(i % 40), 'x'))};
    ASSERT_TRUE(engine.execute(t, make_insert("t", row)).ok());
    want[mixed_schema().key_of(row)] = row;
  }
  // Updates that keep and that change a row's length (odd rows keep their
  // -0.0 bytes).
  for (auto& [key, row] : want) {
    const std::int64_t n = row[1].as_int();
    if (n % 2 != 0) continue;
    std::vector<SetClause> sets{{2, SetOp::kAdd, Value(0.5)}, {2, SetOp::kAdd, Value(n)}};
    if (n % 3 == 0) sets.push_back({3, SetOp::kAssign, Value(std::string(n % 90, 'y'))});
    ASSERT_TRUE(engine.execute(t, make_update("t", key, sets)).ok());
    row[2] = Value(0.5 + static_cast<double>(n));
    if (n % 3 == 0) row[3] = Value(std::string(n % 90, 'y'));
  }
  ASSERT_TRUE(engine.commit(t).ok());

  std::string data;
  std::size_t rows = 0;
  engine.serialize_rows(1 << 20, {}, [&](Engine::SnapshotBatch&& batch) {
    data += as_chars(batch.data);
    rows += batch.rows;
  });
  ASSERT_EQ(rows, want.size());
  if (GetParam()) {
    std::string expect;
    for (const auto& [key, row] : want) expect += serialized(row);
    EXPECT_EQ(data, expect);
  } else {
    // Hash order: every stored row is the serialize_row bytes of a wanted row.
    BytesReader reader(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
    std::string again;
    std::map<Key, Row> got;
    while (!reader.done()) {
      Row row = deserialize_row(reader);
      again += serialized(row);
      got[mixed_schema().key_of(row)] = std::move(row);
    }
    EXPECT_EQ(again, data);
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, StoredRowBytes, ::testing::Values(true, false),
                         [](const auto& info) { return info.param ? "ordered" : "hash"; });

// ---- the ordered layout ------------------------------------------------------------

TEST(OrderedLayout, MatchesAnOrderedMapThroughSplitsAndDrops) {
  OrderedStorage store;
  std::map<std::string, std::pair<std::string, std::uint64_t>> model;
  std::mt19937_64 rng(99);
  const auto random_row = [&rng] {
    // Mostly small rows, now and then one larger than a whole leaf.
    const std::size_t len = rng() % 50 == 0 ? 5000 + rng() % 4000 : 8 + rng() % 300;
    return std::string(len, static_cast<char>('a' + rng() % 26));
  };
  for (int op = 0; op < 40000; ++op) {
    // Phases: load ascending, churn at random, then drain most keys.
    const std::int64_t k = op < 8000 ? op : static_cast<std::int64_t>(rng() % 12000);
    const std::string key = encode_key({Value(k / 100), Value(k % 100)});
    if (op >= 30000 || (op >= 8000 && rng() % 3 == 0)) {
      const std::optional<std::string> taken = store.take(key);
      const auto it = model.find(key);
      ASSERT_EQ(taken.has_value(), it != model.end());
      if (taken) {
        EXPECT_EQ(*taken, it->second.first);
        model.erase(it);
      }
    } else {
      std::string row = random_row();
      const auto stamp = static_cast<std::uint64_t>(op);
      if (const std::optional<RowEntry> present = store.insert(key, row, stamp)) {
        if (rng() % 2 == 0) row.assign(present->row.size(), 'z');  // same length: in place
        store.replace(*present, row, stamp);
      }
      model[key] = {row, stamp};
    }
    if (op % 997 != 0) continue;
    ASSERT_EQ(store.size(), model.size());
    auto it = model.begin();
    store.scan([&](const RowEntry& e) {
      EXPECT_EQ(e.key, it->first);
      EXPECT_EQ(e.row, it->second.first);
      EXPECT_EQ(e.touched, it->second.second);
      ++it;
      return true;
    });
    EXPECT_EQ(it, model.end());
    // A range scan over one leading-column prefix visits exactly its keys.
    const std::int64_t lead = static_cast<std::int64_t>(rng() % 120);
    const std::string start = encode_key({Value(lead)});
    const std::string end = prefix_successor(start);
    std::size_t visited = 0;
    store.scan_range(start, end, [&](const RowEntry& e) {
      EXPECT_TRUE(e.key >= start && e.key < end);
      ++visited;
      return true;
    });
    const auto lo = model.lower_bound(start);
    EXPECT_EQ(visited, static_cast<std::size_t>(std::distance(lo, model.lower_bound(end))));
    EXPECT_EQ(store.count_range(start, end), visited);
    // count_range over random ranges: open or bounded at either end, by a
    // prefix or a whole key, empty or reversed, spanning any number of
    // leaves (split ones in the churn, drained ones in the drain).
    const auto random_bound = [&rng]() -> std::string {
      switch (rng() % 4) {
        case 0: return {};
        case 1: return encode_key({Value(static_cast<std::int64_t>(rng() % 125))});
        default:
          return encode_key({Value(static_cast<std::int64_t>(rng() % 125)),
                             Value(static_cast<std::int64_t>(rng() % 100))});
      }
    };
    for (int range = 0; range < 40; ++range) {
      const std::string from = random_bound();
      const std::string to = random_bound();
      std::size_t expected = 0;
      if (to.empty()) {
        expected = static_cast<std::size_t>(std::distance(model.lower_bound(from), model.end()));
      } else if (from < to) {
        expected = static_cast<std::size_t>(
            std::distance(model.lower_bound(from), model.lower_bound(to)));
      }
      EXPECT_EQ(store.count_range(from, to), expected) << op << ": " << range;
    }
    for (int probe = 0; probe < 50; ++probe) {
      const std::string key2 = encode_key({Value(static_cast<std::int64_t>(rng() % 120)),
                                           Value(static_cast<std::int64_t>(rng() % 100))});
      const std::optional<RowEntry> found = store.find(key2);
      const auto m = model.find(key2);
      ASSERT_EQ(found.has_value(), m != model.end());
      if (found) {
        EXPECT_EQ(found->row, m->second.first);
      }
    }
  }
}

}  // namespace
}  // namespace shadow::db
