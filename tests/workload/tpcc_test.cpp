// TPC-C workload tests: loader invariants, all five transaction types,
// deterministic replay across diverse engines, consistency conditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/bytes.hpp"
#include "workload/tpcc.hpp"

namespace shadow::workload::tpcc {
namespace {

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() : engine_(db::make_h2_traits()), config_(TpccConfig::small()) {
    load(engine_, config_, /*seed=*/7);
    register_procedures(registry_);
  }

  TxnOutcome run(const TxnGenerator::Txn& txn) {
    return run_procedure(engine_, registry_.get(txn.proc), txn.params);
  }

  db::Engine engine_;
  TpccConfig config_;
  ProcedureRegistry registry_;
};

TEST_F(TpccTest, LoaderPopulatesAllTables) {
  for (const char* table : {"item", "warehouse", "district", "customer", "history", "orders",
                            "new_order", "order_line", "stock"}) {
    EXPECT_TRUE(engine_.has_table(table)) << table;
  }
  // 1 warehouse, 2 districts, 30 customers each, 30 orders each (30 % undelivered).
  const db::TxnId t = engine_.begin();
  db::Statement count = db::make_scan("new_order", {});
  count.agg = db::Agg::kCount;
  const auto undelivered = engine_.execute(t, count).agg_value.as_int();
  EXPECT_EQ(undelivered, 2 * (30 - 21));
  engine_.commit(t);
}

TEST_F(TpccTest, LoadedDatabaseIsConsistent) {
  std::string detail;
  EXPECT_TRUE(check_consistency(engine_, config_, &detail)) << detail;
}

TEST_F(TpccTest, NewOrderCommitsAndAdvancesDistrict) {
  TxnGenerator gen(config_, 11);
  const db::TxnId t0 = engine_.begin();
  const auto before =
      engine_.execute(t0, db::make_select("district", {db::Value(1), db::Value(1)}));
  engine_.commit(t0);
  const std::int64_t next_before = before.rows[0][5].as_int();

  auto txn = gen.next_new_order();
  txn.params[1] = db::Value(1);  // pin district 1
  // Pin to the non-rollback path: replace any invalid item.
  for (std::size_t i = 5; i < txn.params.size(); i += 3) {
    if (txn.params[i].as_int() > config_.items) txn.params[i] = db::Value(1);
  }
  const TxnOutcome outcome = run(txn);
  ASSERT_TRUE(outcome.committed) << outcome.error;
  EXPECT_GE(outcome.statements, 6u + 5u * 4u);

  const db::TxnId t1 = engine_.begin();
  const auto after =
      engine_.execute(t1, db::make_select("district", {db::Value(1), db::Value(1)}));
  engine_.commit(t1);
  EXPECT_EQ(after.rows[0][5].as_int(), next_before + 1);
}

TEST_F(TpccTest, NewOrderWithInvalidItemRollsBackCleanly) {
  const std::uint64_t digest = engine_.state_digest();
  TxnGenerator gen(config_, 13);
  auto txn = gen.next_new_order();
  txn.params[5 + (txn.params[3].as_int() - 1) * 3] = db::Value(config_.items + 1);
  const TxnOutcome outcome = run(txn);
  EXPECT_FALSE(outcome.committed);
  EXPECT_EQ(engine_.state_digest(), digest) << "rollback must leave no trace";
}

TEST_F(TpccTest, PaymentByIdUpdatesBalancesAndYtd) {
  TxnGenerator gen(config_, 17);
  auto txn = gen.next_payment();
  txn.params[4] = db::Value(0);  // by customer id
  const TxnOutcome outcome = run(txn);
  ASSERT_TRUE(outcome.committed) << outcome.error;

  const db::TxnId t = engine_.begin();
  const auto wh = engine_.execute(t, db::make_select("warehouse", {txn.params[0]}));
  EXPECT_GT(wh.rows[0][3].as_double(), 300000.0);
  engine_.commit(t);
}

TEST_F(TpccTest, PaymentByLastNamePicksMedianCustomer) {
  TxnGenerator gen(config_, 19);
  auto txn = gen.next_payment();
  txn.params[4] = db::Value(1);  // by last name
  const TxnOutcome outcome = run(txn);
  ASSERT_TRUE(outcome.committed) << outcome.error;
}

TEST_F(TpccTest, OrderStatusReturnsOrderLines) {
  TxnGenerator gen(config_, 23);
  auto txn = gen.next_order_status();
  txn.params[2] = db::Value(0);  // by id — every customer has an initial order
  const TxnOutcome outcome = run(txn);
  ASSERT_TRUE(outcome.committed) << outcome.error;
  EXPECT_FALSE(outcome.rows.empty());  // the order's lines
}

TEST_F(TpccTest, DeliveryDrainsNewOrders) {
  TxnGenerator gen(config_, 29);
  const db::TxnId t0 = engine_.begin();
  db::Statement count = db::make_scan("new_order", {});
  count.agg = db::Agg::kCount;
  const std::int64_t before = engine_.execute(t0, count).agg_value.as_int();
  engine_.commit(t0);

  const TxnOutcome outcome = run(gen.next_delivery());
  ASSERT_TRUE(outcome.committed) << outcome.error;

  const db::TxnId t1 = engine_.begin();
  const std::int64_t after = engine_.execute(t1, count).agg_value.as_int();
  engine_.commit(t1);
  EXPECT_EQ(after, before - 2);  // one order delivered per district
}

TEST_F(TpccTest, StockLevelCommitsReadOnly) {
  const std::uint64_t digest = engine_.state_digest();
  TxnGenerator gen(config_, 31);
  const TxnOutcome outcome = run(gen.next_stock_level());
  ASSERT_TRUE(outcome.committed) << outcome.error;
  EXPECT_EQ(engine_.state_digest(), digest);
}

TEST_F(TpccTest, StockLevelReadsEachDistinctItemOnceInOrder) {
  TxnGenerator gen(config_, 31);
  const TxnGenerator::Txn txn = gen.next_stock_level();
  const db::Value& w = txn.params[0];
  const db::Value& d = txn.params[1];

  // The items of the district's last 20 orders, read straight from storage.
  const db::TxnId t = engine_.begin();
  const auto district = engine_.execute(t, db::make_select("district", {w, d}));
  ASSERT_EQ(district.rows.size(), 1u);
  const std::int64_t next_o = district.rows[0][5].as_int();
  const auto lines = engine_.execute(
      t, db::make_scan("order_line", {db::Condition{0, db::CmpOp::kEq, w},
                                      db::Condition{1, db::CmpOp::kEq, d},
                                      db::Condition{2, db::CmpOp::kGe, db::Value(next_o - 20)},
                                      db::Condition{2, db::CmpOp::kLt, db::Value(next_o)}}));
  engine_.commit(t);
  std::vector<std::int64_t> expected;
  for (const db::Row& row : lines.rows) expected.push_back(row[4].as_int());
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  ASSERT_LT(expected.size(), lines.rows.size()) << "the last 20 orders must repeat items";

  // Record every statement the procedure issues.
  std::vector<db::Statement> issued;
  const ProcedureFn& proc = registry_.get(txn.proc);
  const ProcedureFn recorder = [&](const StepContext& ctx) {
    ProcStep next = proc(ctx);
    if (next.kind == ProcStep::Kind::kStatement) issued.push_back(next.stmt);
    return next;
  };
  const TxnOutcome outcome = run_procedure(engine_, recorder, txn.params);
  ASSERT_TRUE(outcome.committed) << outcome.error;

  ASSERT_EQ(issued.size(), 2 + expected.size());
  std::vector<std::int64_t> stock_items;
  for (std::size_t i = 2; i < issued.size(); ++i) {
    ASSERT_EQ(issued[i].kind, db::Statement::Kind::kSelect);
    ASSERT_EQ(issued[i].table, "stock");
    ASSERT_EQ(issued[i].key.size(), 2u);
    EXPECT_EQ(issued[i].key[0], w);
    stock_items.push_back(issued[i].key[1].as_int());
  }
  EXPECT_EQ(stock_items, expected);
}

TEST_F(TpccTest, MixedWorkloadPreservesConsistency) {
  TxnGenerator gen(config_, 37);
  std::size_t committed = 0;
  for (int i = 0; i < 300; ++i) {
    if (run(gen.next()).committed) ++committed;
  }
  EXPECT_GT(committed, 250u);  // only the ~1 % new-order rollbacks abort
  std::string detail;
  EXPECT_TRUE(check_consistency(engine_, config_, &detail)) << detail;
}

TEST_F(TpccTest, DeterministicAcrossDiverseEngines) {
  // The same transaction sequence replayed on H2-like and Derby-like
  // replicas must produce identical logical states — the property ShadowDB's
  // diversity deployment depends on.
  db::Engine replica(db::make_derby_traits());
  load(replica, config_, /*seed=*/7);
  TxnGenerator gen_a(config_, 41);
  TxnGenerator gen_b(config_, 41);
  for (int i = 0; i < 200; ++i) {
    const auto txn_a = gen_a.next();
    const auto txn_b = gen_b.next();
    ASSERT_EQ(txn_a.proc, txn_b.proc);
    const TxnOutcome oa = run_procedure(engine_, registry_.get(txn_a.proc), txn_a.params);
    const TxnOutcome ob = run_procedure(replica, registry_.get(txn_b.proc), txn_b.params);
    ASSERT_EQ(oa.committed, ob.committed) << txn_a.proc << " diverged at txn " << i;
  }
  EXPECT_EQ(engine_.state_digest(), replica.state_digest());
}

// ---- seeded fingerprints -----------------------------------------------------------
//
// A seeded small-scale mix on one engine, summed up: how many transactions
// commit, their summed virtual cost, a hash of every statement result (rows
// in the order the engine returns them, aggregates and affected counts) and
// the final state digest. The pinned figures were computed before predicate
// statements had secondary access paths or a first-row MIN, so they pin that
// those leave every result, its order and every charge as they were.
struct Fingerprint {
  std::size_t commits = 0;
  std::uint64_t cost_us = 0;
  std::uint64_t results = 0xcbf29ce484222325ULL;  // FNV-1a over the result bytes
  std::uint64_t digest = 0;
  bool operator==(const Fingerprint&) const = default;
};

void add_result(Fingerprint& fp, const db::ExecResult& result) {
  BytesWriter w;
  for (const db::Row& row : result.rows) db::serialize_row(w, row);
  result.agg_value.serialize(w);
  w.u64(result.affected);
  for (const std::uint8_t byte : w.peek()) {
    fp.results = (fp.results ^ byte) * 0x100000001b3ULL;
  }
}

/// Runs a transaction, hashing every result its statements returned.
void run_counted(db::Engine& engine, const ProcedureRegistry& registry,
                 const TxnGenerator::Txn& txn, Fingerprint& fp) {
  const ProcedureFn& proc = registry.get(txn.proc);
  const ProcedureFn recorder = [&](const StepContext& ctx) {
    ProcStep next = proc(ctx);
    if (next.kind != ProcStep::Kind::kStatement) {
      for (const db::ExecResult& result : ctx.results) add_result(fp, result);
    }
    return next;
  };
  const TxnOutcome outcome = run_procedure(engine, recorder, txn.params);
  fp.commits += outcome.committed ? 1 : 0;
  fp.cost_us += outcome.cost_us;
}

/// Runs one statement in its own transaction, hashing its result.
db::ExecResult run_statement(db::Engine& engine, const db::Statement& stmt, Fingerprint& fp) {
  const db::TxnId t = engine.begin();
  db::ExecResult result = engine.execute(t, stmt);
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(engine.commit(t).ok());
  fp.cost_us += result.cost_us;
  add_result(fp, result);
  return result;
}

db::Statement orders_of(std::int64_t d, std::int64_t c) {
  return db::make_scan("orders", {db::Condition{0, db::CmpOp::kEq, db::Value(1)},
                                  db::Condition{1, db::CmpOp::kEq, db::Value(d)},
                                  db::Condition{3, db::CmpOp::kEq, db::Value(c)}});
}

db::Statement customers_named(std::int64_t d, std::int64_t name) {
  return db::make_scan("customer", {db::Condition{0, db::CmpOp::kEq, db::Value(1)},
                                    db::Condition{1, db::CmpOp::kEq, db::Value(d)},
                                    db::Condition{4, db::CmpOp::kEq, db::Value(last_name(name))}});
}

struct PinnedMix {
  const char* engine;
  Fingerprint first;  // the mix's first half and the probes
  Fingerprint rest;   // the second half, on the engine and on its restored copy
};

class TpccFingerprint : public ::testing::TestWithParam<PinnedMix> {
 protected:
  static db::EngineTraits traits_for(const std::string& name) {
    if (name == "h2like") return db::make_h2_traits();
    if (name == "derbylike") return db::make_derby_traits();
    return db::make_mysql_memory_traits();
  }
};

TEST_P(TpccFingerprint, SeededMixMatchesPinsAndSurvivesRestore) {
  const PinnedMix& pinned = GetParam();
  const TpccConfig config = TpccConfig::small();
  ProcedureRegistry registry;
  register_procedures(registry);
  db::Engine engine(traits_for(pinned.engine));
  load(engine, config, /*seed=*/7);
  TxnGenerator gen(config, 53);
  std::vector<TxnGenerator::Txn> txns;
  for (int i = 0; i < 600; ++i) txns.push_back(gen.next());

  Fingerprint first;
  for (std::size_t i = 0; i < 300; ++i) run_counted(engine, registry, txns[i], first);

  // A new_order that rolls back after inserting its order: the order must
  // not be found by its customer afterwards.
  run_statement(engine, orders_of(1, 4), first);
  const db::TxnId t = engine.begin();
  const std::int64_t next_o =
      engine.execute(t, db::make_select("district", {db::Value(1), db::Value(1)}))
          .rows[0][5]
          .as_int();
  engine.commit(t);
  const TxnGenerator::Txn rolled_back{
      kNewOrderProc,
      {db::Value(1), db::Value(1), db::Value(4), db::Value(2), db::Value(2), db::Value(3),
       db::Value(1), db::Value(5), db::Value(config.items + 1), db::Value(1), db::Value(5)}};
  run_counted(engine, registry, rolled_back, first);
  for (const db::Row& order : run_statement(engine, orders_of(1, 4), first).rows) {
    EXPECT_NE(order[2].as_int(), next_o) << "the rolled-back order is still found";
  }
  // Writes to the columns those lookups select on: a renamed customer is
  // found under the new name only, a re-assigned order under its new customer.
  const std::size_t named = run_statement(engine, customers_named(2, 0), first).rows.size();
  run_statement(engine,
                db::make_update("customer", {db::Value(1), db::Value(2), db::Value(7)},
                                {{4, db::SetOp::kAssign, db::Value(last_name(0))}}),
                first);
  EXPECT_EQ(run_statement(engine, customers_named(2, 0), first).rows.size(), named + 1);
  EXPECT_EQ(run_statement(engine, customers_named(2, 6), first).rows.size(), 0u);
  run_statement(engine,
                db::make_update("orders", {db::Value(1), db::Value(2), db::Value(5)},
                                {{3, db::SetOp::kAssign, db::Value(999)}}),
                first);
  EXPECT_EQ(run_statement(engine, orders_of(2, 999), first).rows.size(), 1u);
  first.digest = engine.state_digest();

  // A replica restored from a mid-mix full copy continues exactly alike.
  db::Engine restored(traits_for(pinned.engine));
  restored.reset_for_restore(engine.schemas());
  engine.serialize_rows(50000, {}, [&](db::Engine::SnapshotBatch&& batch) {
    restored.restore_batch(batch);
  });
  ASSERT_EQ(restored.state_digest(), engine.state_digest());
  Fingerprint rest;
  Fingerprint rest_restored;
  for (std::size_t i = 300; i < txns.size(); ++i) {
    run_counted(engine, registry, txns[i], rest);
    run_counted(restored, registry, txns[i], rest_restored);
  }
  rest.digest = engine.state_digest();
  rest_restored.digest = restored.state_digest();

  const auto show = [](const Fingerprint& fp) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "{%zu, %" PRIu64 ", 0x%" PRIx64 ", 0x%" PRIx64 "}",
                  fp.commits, fp.cost_us, fp.results, fp.digest);
    return std::string(buf);
  };
  EXPECT_EQ(first, pinned.first) << show(first);
  EXPECT_EQ(rest, pinned.rest) << show(rest);
  // Hash storage's scan order follows its insertion history, which a restore
  // does not replay, and a delivery's SUM over doubles follows that order:
  // only the ordered layouts continue bit for bit alike.
  if (engine.traits().ordered_index) {
    EXPECT_EQ(rest_restored, rest) << show(rest_restored);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, TpccFingerprint,
    ::testing::Values(PinnedMix{"h2like",
                                {297, 159925, 0xd172cccd35e23f70, 0x9e82c955ed2cbed2},
                                {295, 147898, 0x5336814bb907ddba, 0x4dce92a8fa432392}},
                      PinnedMix{"derbylike",
                                {297, 220945, 0xd172cccd35e23f70, 0x9e82c955ed2cbed2},
                                {295, 203516, 0x5336814bb907ddba, 0x4dce92a8fa432392}},
                      PinnedMix{"mysql-memory",
                                {297, 207465, 0xfaefb2a29e934e9b, 0x3d4bd998325d817},
                                {295, 222710, 0xc7a950d209ad0fe1, 0x382cba6fe22debd4}}),
    [](const auto& info) {
      std::string name = info.param.engine;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(TpccGenerator, MixMatchesSpecification) {
  TxnGenerator gen(TpccConfig::small(), 43);
  std::map<std::string, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[gen.next().proc];
  EXPECT_NEAR(counts[kNewOrderProc], 4500, 300);
  EXPECT_NEAR(counts[kPaymentProc], 4300, 300);
  EXPECT_NEAR(counts[kOrderStatusProc], 400, 120);
  EXPECT_NEAR(counts[kDeliveryProc], 400, 120);
  EXPECT_NEAR(counts[kStockLevelProc], 400, 120);
}

TEST(TpccLastName, MatchesSyllableTable) {
  EXPECT_EQ(last_name(0), "BARBARBAR");
  EXPECT_EQ(last_name(371), "PRICALLYOUGHT");
  EXPECT_EQ(last_name(999), "EINGEINGEING");
}

}  // namespace
}  // namespace shadow::workload::tpcc
