// Unit tests for the SQL engine: CRUD, undo/rollback, predicate scans,
// aggregates, index range plans, locking and snapshots.
#include <gtest/gtest.h>

#include "db/engine.hpp"

namespace shadow::db {
namespace {

TableSchema kv_schema() {
  return TableSchema{"kv",
                     {{"k", ColumnType::kBigInt},
                      {"v", ColumnType::kBigInt},
                      {"s", ColumnType::kVarchar}},
                     {0}};
}

class EngineTest : public ::testing::TestWithParam<const char*> {
 protected:
  static EngineTraits traits_for(const std::string& name) {
    if (name == "h2like") return make_h2_traits();
    if (name == "hsqldblike") return make_hsqldb_traits();
    if (name == "derbylike") return make_derby_traits();
    if (name == "innodblike") return make_innodb_traits();
    return make_mysql_memory_traits();
  }

  EngineTest() : engine_(traits_for(GetParam())) { engine_.create_table(kv_schema()); }

  void put(std::int64_t k, std::int64_t v) {
    const TxnId t = engine_.begin();
    ASSERT_TRUE(engine_.execute(t, make_insert("kv", {Value(k), Value(v), Value("x")})).ok());
    ASSERT_TRUE(engine_.commit(t).ok());
  }

  Engine engine_;
};

TEST_P(EngineTest, InsertSelectRoundTrip) {
  put(1, 10);
  const TxnId t = engine_.begin();
  const ExecResult r = engine_.execute(t, make_select("kv", {Value(1)}));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].as_int(), 10);
  engine_.commit(t);
}

TEST_P(EngineTest, SelectMissingKeyReturnsEmpty) {
  const TxnId t = engine_.begin();
  const ExecResult r = engine_.execute(t, make_select("kv", {Value(99)}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.rows.empty());
  engine_.commit(t);
}

TEST_P(EngineTest, UpdateAssignAndAdd) {
  put(1, 10);
  const TxnId t = engine_.begin();
  ASSERT_TRUE(engine_
                  .execute(t, make_update("kv", {Value(1)},
                                          {{1, SetOp::kAdd, Value(5)},
                                           {2, SetOp::kAssign, Value("y")}}))
                  .ok());
  ASSERT_TRUE(engine_.commit(t).ok());
  const TxnId t2 = engine_.begin();
  const ExecResult r = engine_.execute(t2, make_select("kv", {Value(1)}));
  EXPECT_EQ(r.rows[0][1].as_int(), 15);
  EXPECT_EQ(r.rows[0][2].as_string(), "y");
  engine_.commit(t2);
}

TEST_P(EngineTest, AbortRollsBackAllEffects) {
  put(1, 10);
  const TxnId t = engine_.begin();
  ASSERT_TRUE(engine_.execute(t, make_update("kv", {Value(1)}, {{1, SetOp::kAdd, Value(5)}})).ok());
  ASSERT_TRUE(engine_.execute(t, make_insert("kv", {Value(2), Value(20), Value("x")})).ok());
  ASSERT_TRUE(engine_.execute(t, make_delete("kv", {Value(1)})).ok());
  engine_.abort(t);

  const TxnId t2 = engine_.begin();
  const ExecResult r1 = engine_.execute(t2, make_select("kv", {Value(1)}));
  ASSERT_EQ(r1.rows.size(), 1u);
  EXPECT_EQ(r1.rows[0][1].as_int(), 10);  // update undone, delete undone
  const ExecResult r2 = engine_.execute(t2, make_select("kv", {Value(2)}));
  EXPECT_TRUE(r2.rows.empty());  // insert undone
  engine_.commit(t2);
}

TEST_P(EngineTest, DuplicateInsertAborts) {
  put(1, 10);
  const TxnId t = engine_.begin();
  const ExecResult r = engine_.execute(t, make_insert("kv", {Value(1), Value(0), Value("")}));
  EXPECT_EQ(r.status, ExecResult::Status::kAborted);
  if (engine_.is_active(t)) engine_.abort(t);
}

TEST_P(EngineTest, ScanWithPredicateAndAggregates) {
  for (std::int64_t k = 0; k < 20; ++k) put(k, k * 10);
  const TxnId t = engine_.begin();

  Statement count = make_scan("kv", {Condition{1, CmpOp::kGe, Value(100)}});
  count.agg = Agg::kCount;
  EXPECT_EQ(engine_.execute(t, count).agg_value.as_int(), 10);

  Statement sum = make_scan("kv", {});
  sum.agg = Agg::kSum;
  sum.agg_column = 1;
  EXPECT_EQ(engine_.execute(t, sum).agg_value.as_int(), 1900);

  Statement min = make_scan("kv", {Condition{0, CmpOp::kGt, Value(5)}});
  min.agg = Agg::kMin;
  min.agg_column = 1;
  EXPECT_EQ(engine_.execute(t, min).agg_value.as_int(), 60);

  Statement max = make_scan("kv", {});
  max.agg = Agg::kMax;
  max.agg_column = 0;
  EXPECT_EQ(engine_.execute(t, max).agg_value.as_int(), 19);
  engine_.commit(t);
}

TEST_P(EngineTest, ScanOrderByAndLimit) {
  for (std::int64_t k = 0; k < 10; ++k) put(k, 100 - k);
  const TxnId t = engine_.begin();
  Statement scan = make_scan("kv", {});
  scan.order_by = {{1, false}};
  scan.limit = 3;
  const ExecResult r = engine_.execute(t, scan);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].as_int(), 91);
  EXPECT_EQ(r.rows[2][1].as_int(), 93);
  engine_.commit(t);
}

TEST_P(EngineTest, UpdateWhereAndDeleteWhere) {
  for (std::int64_t k = 0; k < 10; ++k) put(k, k);
  const TxnId t = engine_.begin();
  const ExecResult u = engine_.execute(
      t, make_update_where("kv", {Condition{0, CmpOp::kLt, Value(5)}},
                           {{1, SetOp::kAdd, Value(100)}}));
  EXPECT_EQ(u.affected, 5u);
  Statement del;
  del.kind = Statement::Kind::kDeleteWhere;
  del.table = "kv";
  del.where = {Condition{0, CmpOp::kGe, Value(8)}};
  const ExecResult d = engine_.execute(t, del);
  EXPECT_EQ(d.affected, 2u);
  ASSERT_TRUE(engine_.commit(t).ok());

  const TxnId t2 = engine_.begin();
  Statement count = make_scan("kv", {});
  count.agg = Agg::kCount;
  EXPECT_EQ(engine_.execute(t2, count).agg_value.as_int(), 8);
  engine_.commit(t2);
}

TEST_P(EngineTest, SnapshotRestoreRoundTrip) {
  for (std::int64_t k = 0; k < 100; ++k) put(k, k * 3);
  const std::uint64_t digest_before = engine_.state_digest();

  Engine replica(traits_for(GetParam()));
  replica.reset_for_restore(engine_.schemas());
  std::size_t batches = 0;
  std::size_t rows = 0;
  engine_.serialize_rows(1024, {}, [&](Engine::SnapshotBatch&& batch) {
    ++batches;
    rows += batch.rows;
    replica.restore_batch(batch);
  });
  EXPECT_GT(batches, 1u);  // multiple ~1 KB batches
  EXPECT_EQ(rows, 100u);
  EXPECT_EQ(replica.total_rows(), 100u);
  EXPECT_EQ(replica.state_digest(), digest_before);
}

TEST_P(EngineTest, DigestIsOrderIndependentAcrossEngines) {
  Engine other(traits_for(std::string(GetParam()) == "h2like" ? "mysql-memory" : "h2like"));
  other.create_table(kv_schema());
  for (std::int64_t k = 0; k < 50; ++k) {
    put(k, k);
    const TxnId t = other.begin();
    ASSERT_TRUE(other.execute(t, make_insert("kv", {Value(49 - k), Value(49 - k), Value("x")}))
                    .ok());
    ASSERT_TRUE(other.commit(t).ok());
  }
  EXPECT_EQ(engine_.state_digest(), other.state_digest());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values("h2like", "hsqldblike", "derbylike", "innodblike",
                                           "mysql-memory"));

// ---- locking behaviour -------------------------------------------------------

TEST(EngineLocking, TableLockBlocksSecondWriterUntilCommit) {
  Engine engine(make_h2_traits());  // table locks
  engine.create_table(kv_schema());
  const TxnId t0 = engine.begin();
  ASSERT_TRUE(engine.execute(t0, make_insert("kv", {Value(1), Value(1), Value("")})).ok());
  ASSERT_TRUE(engine.commit(t0).ok());

  std::vector<std::pair<TxnId, ExecResult>> woken;
  engine.set_wake([&](TxnId id, const ExecResult& r) { woken.emplace_back(id, r); });

  const TxnId a = engine.begin();
  const TxnId b = engine.begin();
  ASSERT_TRUE(engine.execute(a, make_update("kv", {Value(1)}, {{1, SetOp::kAdd, Value(1)}})).ok());
  const ExecResult blocked =
      engine.execute(b, make_update("kv", {Value(1)}, {{1, SetOp::kAdd, Value(1)}}));
  EXPECT_EQ(blocked.status, ExecResult::Status::kBlocked);

  ASSERT_TRUE(engine.commit(a).ok());
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0].first, b);
  EXPECT_TRUE(woken[0].second.ok());
  ASSERT_TRUE(engine.commit(b).ok());

  const TxnId t = engine.begin();
  EXPECT_EQ(engine.execute(t, make_select("kv", {Value(1)})).rows[0][1].as_int(), 3);
  engine.commit(t);
}

TEST(EngineLocking, RowLocksAllowDisjointWriters) {
  Engine engine(make_derby_traits());  // row locks
  engine.create_table(kv_schema());
  for (std::int64_t k = 1; k <= 2; ++k) {
    const TxnId t = engine.begin();
    ASSERT_TRUE(engine.execute(t, make_insert("kv", {Value(k), Value(0), Value("")})).ok());
    ASSERT_TRUE(engine.commit(t).ok());
  }
  const TxnId a = engine.begin();
  const TxnId b = engine.begin();
  EXPECT_TRUE(engine.execute(a, make_update("kv", {Value(1)}, {{1, SetOp::kAdd, Value(1)}})).ok());
  EXPECT_TRUE(engine.execute(b, make_update("kv", {Value(2)}, {{1, SetOp::kAdd, Value(1)}})).ok());
  EXPECT_TRUE(engine.commit(a).ok());
  EXPECT_TRUE(engine.commit(b).ok());
}

TEST(EngineLocking, LockWaitTimeoutAbortsWaiter) {
  EngineTraits traits = make_h2_traits();
  traits.lock_timeout = 1000;  // 1 ms
  Engine engine(traits);
  engine.create_table(kv_schema());
  net::Time now = 0;
  engine.set_clock([&now] { return now; });

  std::vector<std::pair<TxnId, ExecResult>> woken;
  engine.set_wake([&](TxnId id, const ExecResult& r) { woken.emplace_back(id, r); });

  const TxnId t0 = engine.begin();
  ASSERT_TRUE(engine.execute(t0, make_insert("kv", {Value(1), Value(1), Value("")})).ok());
  ASSERT_TRUE(engine.commit(t0).ok());

  const TxnId a = engine.begin();
  const TxnId b = engine.begin();
  ASSERT_TRUE(engine.execute(a, make_update("kv", {Value(1)}, {{1, SetOp::kAdd, Value(1)}})).ok());
  EXPECT_EQ(engine.execute(b, make_update("kv", {Value(1)}, {{1, SetOp::kAdd, Value(1)}})).status,
            ExecResult::Status::kBlocked);

  now = 2000;  // past the deadline
  engine.tick(now);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0].first, b);
  EXPECT_EQ(woken[0].second.status, ExecResult::Status::kAborted);
  EXPECT_EQ(engine.aborted_count(), 1u);
  ASSERT_TRUE(engine.commit(a).ok());
}

TEST(EngineLocking, SharedReadersDoNotBlockEachOther) {
  Engine engine(make_h2_traits());
  engine.create_table(kv_schema());
  const TxnId t0 = engine.begin();
  ASSERT_TRUE(engine.execute(t0, make_insert("kv", {Value(1), Value(1), Value("")})).ok());
  ASSERT_TRUE(engine.commit(t0).ok());

  const TxnId a = engine.begin();
  const TxnId b = engine.begin();
  EXPECT_TRUE(engine.execute(a, make_select("kv", {Value(1)})).ok());
  EXPECT_TRUE(engine.execute(b, make_select("kv", {Value(1)})).ok());
  engine.commit(a);
  engine.commit(b);
}

// ---- index range scans ---------------------------------------------------------

TEST(EngineRangeScan, OrderedEngineVisitsOnlyMatchingPrefix) {
  Engine ordered(make_h2_traits());
  Engine hashed(make_mysql_memory_traits());
  TableSchema schema{"t",
                     {{"a", ColumnType::kBigInt}, {"b", ColumnType::kBigInt},
                      {"v", ColumnType::kBigInt}},
                     {0, 1}};
  for (Engine* e : {&ordered, &hashed}) {
    e->create_table(schema);
    const TxnId t = e->begin();
    for (std::int64_t a = 0; a < 50; ++a) {
      for (std::int64_t b = 0; b < 20; ++b) {
        ASSERT_TRUE(e->execute(t, make_insert("t", {Value(a), Value(b), Value(a * b)})).ok());
      }
    }
    ASSERT_TRUE(e->commit(t).ok());
  }
  const Statement scan = make_scan("t", {Condition{0, CmpOp::kEq, Value(7)}});
  const TxnId to = ordered.begin();
  const TxnId th = hashed.begin();
  const ExecResult ro = ordered.execute(to, scan);
  const ExecResult rh = hashed.execute(th, scan);
  EXPECT_EQ(ro.rows.size(), 20u);
  EXPECT_EQ(rh.rows.size(), 20u);
  // The ordered engine's range scan touches ~20 rows; the hash engine's
  // full scan touches all 1000 — visible as a large cost gap (the paper's
  // MySQL-memory "less than / order by" penalty).
  EXPECT_LT(ro.cost_us * 5, rh.cost_us);
  ordered.commit(to);
  hashed.commit(th);
}

TEST(EngineRangeScan, RangeBoundsOnTrailingKeyColumn) {
  Engine engine(make_h2_traits());
  TableSchema schema{"t", {{"a", ColumnType::kBigInt}, {"b", ColumnType::kBigInt}}, {0, 1}};
  engine.create_table(schema);
  const TxnId t = engine.begin();
  for (std::int64_t b = 0; b < 100; ++b) {
    ASSERT_TRUE(engine.execute(t, make_insert("t", {Value(1), Value(b)})).ok());
  }
  ASSERT_TRUE(engine.commit(t).ok());
  const TxnId t2 = engine.begin();
  const ExecResult r = engine.execute(
      t2, make_scan("t", {Condition{0, CmpOp::kEq, Value(1)},
                          Condition{1, CmpOp::kGe, Value(90)},
                          Condition{1, CmpOp::kLt, Value(95)}}));
  EXPECT_EQ(r.rows.size(), 5u);
  engine.commit(t2);
}

// A scan's cost_us is point_read_us + scan_row_us per visited row, so these
// exact figures pin which rows each index plan visits (they feed the virtual
// costs behind the paper's figures). The table holds a in [0, 50) x b in
// [0, 20); an h2like read is 9 us plus 0.35 us per visited row.
struct RangeCase {
  const char* what;
  std::vector<Condition> where;
  std::size_t rows;
  std::uint64_t cost_us;
};

TEST(EngineRangeScan, CostPinsRowsVisitedPerPlan) {
  const auto cond = [](std::size_t col, CmpOp op, std::int64_t v) {
    return Condition{col, op, Value(v)};
  };
  const std::vector<RangeCase> cases = {
      {"prefix only", {cond(0, CmpOp::kEq, 7)}, 20, 16},
      {"prefix + kGe", {cond(0, CmpOp::kEq, 7), cond(1, CmpOp::kGe, 15)}, 5, 10},
      {"prefix + kGt", {cond(0, CmpOp::kEq, 7), cond(1, CmpOp::kGt, 15)}, 4, 10},
      {"prefix + kLt equal to a key", {cond(0, CmpOp::kEq, 7), cond(1, CmpOp::kLt, 12)}, 12, 13},
      {"prefix + kLe equal to a key", {cond(0, CmpOp::kEq, 7), cond(1, CmpOp::kLe, 12)}, 13, 13},
      {"prefix + kGe + kLt",
       {cond(0, CmpOp::kEq, 7), cond(1, CmpOp::kGe, 5), cond(1, CmpOp::kLt, 9)}, 4, 10},
      {"lower bound above upper bound",
       {cond(0, CmpOp::kEq, 7), cond(1, CmpOp::kGe, 15), cond(1, CmpOp::kLt, 5)}, 0, 9},
      {"upper bound beyond the last key",
       {cond(0, CmpOp::kEq, 49), cond(1, CmpOp::kLe, 1000)}, 20, 16},
      {"lower bound beyond the last key", {cond(0, CmpOp::kEq, 49), cond(1, CmpOp::kGe, 20)}, 0,
       9},
      {"prefix at the end of the table", {cond(0, CmpOp::kEq, 49)}, 20, 16},
      {"prefix past the end of the table", {cond(0, CmpOp::kEq, 50)}, 0, 9},
      {"leading-column lower bound only", {cond(0, CmpOp::kGe, 45)}, 100, 44},
      {"non-key filter inside the prefix",
       {cond(0, CmpOp::kEq, 3), cond(2, CmpOp::kGe, 30)}, 10, 16},
  };
  Engine ordered(make_h2_traits());
  Engine hashed(make_mysql_memory_traits());
  TableSchema schema{"t",
                     {{"a", ColumnType::kBigInt}, {"b", ColumnType::kBigInt},
                      {"v", ColumnType::kBigInt}},
                     {0, 1}};
  for (Engine* e : {&ordered, &hashed}) {
    e->create_table(schema);
    const TxnId t = e->begin();
    for (std::int64_t a = 0; a < 50; ++a) {
      for (std::int64_t b = 0; b < 20; ++b) {
        ASSERT_TRUE(e->execute(t, make_insert("t", {Value(a), Value(b), Value(a * b)})).ok());
      }
    }
    ASSERT_TRUE(e->commit(t).ok());
  }
  for (const RangeCase& c : cases) {
    const TxnId t = ordered.begin();
    const ExecResult r = ordered.execute(t, make_scan("t", c.where));
    EXPECT_EQ(r.rows.size(), c.rows) << c.what;
    EXPECT_EQ(r.cost_us, c.cost_us) << c.what;
    ordered.commit(t);
  }
  // Hash storage has no key order: every plan falls back to a full scan of
  // all 1000 rows (9 + 350 us) and returns the same rows.
  for (const RangeCase& c : cases) {
    const TxnId t = hashed.begin();
    const ExecResult r = hashed.execute(t, make_scan("t", c.where));
    EXPECT_EQ(r.rows.size(), c.rows) << c.what;
    EXPECT_EQ(r.cost_us, 10u + 350u) << c.what;
    hashed.commit(t);
  }
}

}  // namespace
}  // namespace shadow::db
