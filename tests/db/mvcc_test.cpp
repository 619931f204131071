// Unit tests for the MVCC-lite versioned store: reads at historical state
// versions, version-chain GC under the reader watermark, reader pinning, and
// read-your-writes at the current version.
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

class MvccTest : public ::testing::Test {
 protected:
  MvccTest() : engine_(make_h2_traits()) { engine_.create_table(kv_schema()); }

  /// Commits one write at state version `version` (how the replication layer
  /// stamps deliveries: version = delivery index + 1, monotone).
  void put_at(std::uint64_t version, std::int64_t k, std::int64_t v) {
    engine_.set_state_version(version);
    const TxnId t = engine_.begin();
    ASSERT_TRUE(engine_.execute(t, make_insert("kv", {Value(k), Value(v), Value("x")})).ok());
    ASSERT_TRUE(engine_.commit(t).ok());
  }

  void update_at(std::uint64_t version, std::int64_t k, std::int64_t v) {
    engine_.set_state_version(version);
    const TxnId t = engine_.begin();
    ASSERT_TRUE(engine_.execute(t, make_update("kv", {Value(k)}, {{1, SetOp::kAssign, Value(v)}}))
                    .ok());
    ASSERT_TRUE(engine_.commit(t).ok());
  }

  void delete_at(std::uint64_t version, std::int64_t k) {
    engine_.set_state_version(version);
    const TxnId t = engine_.begin();
    ASSERT_TRUE(engine_.execute(t, make_delete("kv", {Value(k)})).ok());
    ASSERT_TRUE(engine_.commit(t).ok());
  }

  /// Point read of k at `version`; returns the value or nullopt if absent.
  std::optional<std::int64_t> read_at(std::uint64_t version, std::int64_t k) {
    const ExecResult r = engine_.read_at(make_select("kv", {Value(k)}), version);
    EXPECT_TRUE(r.ok());
    if (r.rows.empty()) return std::nullopt;
    return r.rows[0][1].as_int();
  }

  std::int64_t sum_at(std::uint64_t version) {
    Statement scan = make_scan("kv", {});
    scan.agg = Agg::kSum;
    scan.agg_column = 1;
    const ExecResult r = engine_.read_at(scan, version);
    EXPECT_TRUE(r.ok());
    return r.agg_value.as_int();
  }

  Engine engine_;
};

TEST_F(MvccTest, PointReadSeesValueAsOfVersion) {
  put_at(1, 1, 10);
  update_at(2, 1, 20);
  update_at(3, 1, 30);

  EXPECT_EQ(read_at(1, 1), 10);
  EXPECT_EQ(read_at(2, 1), 20);
  EXPECT_EQ(read_at(3, 1), 30);
  EXPECT_EQ(read_at(9, 1), 30);  // future versions read the current value
}

TEST_F(MvccTest, ReadBelowInsertSeesAbsence) {
  put_at(5, 7, 70);
  EXPECT_EQ(read_at(4, 7), std::nullopt);
  EXPECT_EQ(read_at(5, 7), 70);
}

TEST_F(MvccTest, ReadBelowDeleteSeesRow) {
  put_at(1, 1, 10);
  delete_at(2, 1);
  EXPECT_EQ(read_at(1, 1), 10);
  EXPECT_EQ(read_at(2, 1), std::nullopt);
}

TEST_F(MvccTest, ScanReconstructsDeletedAndUpdatedRows) {
  put_at(1, 1, 10);
  put_at(1, 2, 20);
  put_at(2, 3, 40);
  delete_at(3, 1);     // key 1 gone from storage
  update_at(3, 2, 99); // key 2 overwritten

  EXPECT_EQ(sum_at(1), 30);   // {1:10, 2:20}
  EXPECT_EQ(sum_at(2), 70);   // + {3:40}
  EXPECT_EQ(sum_at(3), 139);  // {2:99, 3:40}
}

TEST_F(MvccTest, ScanRowsIncludeHistoricalValues) {
  put_at(1, 1, 10);
  update_at(2, 1, 20);
  const ExecResult r = engine_.read_at(make_scan("kv", {}), 1);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].as_int(), 10);
}

TEST_F(MvccTest, MultipleMutationsWithinOneVersionKeepFirstPreImage) {
  put_at(1, 1, 10);
  // Two updates at the same version: a read below must see the value at the
  // version's start, not an intermediate.
  engine_.set_state_version(2);
  const TxnId t = engine_.begin();
  ASSERT_TRUE(engine_.execute(t, make_update("kv", {Value(1)}, {{1, SetOp::kAssign, Value(20)}}))
                  .ok());
  ASSERT_TRUE(engine_.execute(t, make_update("kv", {Value(1)}, {{1, SetOp::kAdd, Value(5)}})).ok());
  ASSERT_TRUE(engine_.commit(t).ok());
  EXPECT_EQ(read_at(1, 1), 10);
  EXPECT_EQ(read_at(2, 1), 25);
}

TEST_F(MvccTest, RolledBackTxnLeavesVersionedReadsIntact) {
  put_at(1, 1, 10);
  engine_.set_state_version(2);
  const TxnId t = engine_.begin();
  ASSERT_TRUE(engine_.execute(t, make_update("kv", {Value(1)}, {{1, SetOp::kAssign, Value(77)}}))
                  .ok());
  engine_.abort(t);
  EXPECT_EQ(read_at(1, 1), 10);
  EXPECT_EQ(read_at(2, 1), 10);
}

TEST_F(MvccTest, ReaderPinsHistoryAgainstGc) {
  put_at(1, 1, 10);
  const std::uint64_t reader = engine_.register_reader(1);
  update_at(2, 1, 20);
  update_at(3, 1, 30);
  EXPECT_GT(engine_.version_entries(), 0u);

  // The registered reader holds the watermark at 1: nothing it can still
  // read may be collected.
  engine_.gc_versions();
  EXPECT_EQ(engine_.read_watermark(), 1u);
  EXPECT_EQ(read_at(1, 1), 10);

  // Released, the watermark advances to the current version and the chains
  // drain to nothing — memory stays flat without readers.
  engine_.release_reader(reader);
  EXPECT_EQ(engine_.read_watermark(), 3u);
  engine_.gc_versions();
  EXPECT_EQ(engine_.version_entries(), 0u);
  EXPECT_GE(engine_.min_read_version(), 3u);
  EXPECT_EQ(read_at(3, 1), 30);  // current version still readable
}

TEST_F(MvccTest, GcKeepsEntriesAboveWatermark) {
  put_at(1, 1, 10);
  update_at(2, 1, 20);
  const std::uint64_t reader = engine_.register_reader(2);
  update_at(3, 1, 30);
  update_at(4, 1, 40);
  engine_.gc_versions();
  // Entries superseding at <= 2 die; the reader at 2 still reconstructs.
  EXPECT_EQ(read_at(2, 1), 20);
  EXPECT_TRUE(engine_.read_version_valid(2));
  EXPECT_FALSE(engine_.read_version_valid(1));
  engine_.release_reader(reader);
}

TEST_F(MvccTest, ReadYourWritesAtCurrentVersion) {
  put_at(1, 1, 10);
  update_at(2, 1, 42);
  // A client that just committed at version 2 and immediately reads at the
  // commit version must observe its own write.
  EXPECT_EQ(read_at(engine_.state_version(), 1), 42);
}

TEST_F(MvccTest, ResetForRestoreInvalidatesHistoryUntilFloorReset) {
  put_at(1, 1, 10);
  update_at(2, 1, 20);
  engine_.reset_for_restore({kv_schema()});
  EXPECT_EQ(engine_.version_entries(), 0u);
  EXPECT_FALSE(engine_.read_version_valid(2));
  // Deliveries alone never re-open history: the restored storage is not the
  // state at any version until the transfer names one.
  engine_.set_state_version(3);
  EXPECT_FALSE(engine_.read_version_valid(3));
  // Transfer completion stamps the restore version as the new floor.
  engine_.set_delta_floor(5);
  engine_.set_state_version(5);
  EXPECT_TRUE(engine_.read_version_valid(5));
  EXPECT_FALSE(engine_.read_version_valid(4));
}

TEST_F(MvccTest, ReadAtRejectsWriteStatements) {
  put_at(1, 1, 10);
  const ExecResult r =
      engine_.read_at(make_update("kv", {Value(1)}, {{1, SetOp::kAssign, Value(0)}}), 1);
  EXPECT_FALSE(r.ok());
}

// ---- delta tracking edge cases ----------------------------------------------------

struct DeltaKeys {
  std::vector<std::int64_t> upserts;  // keys shipped as current rows, in order
  std::vector<std::int64_t> deletes;  // keys shipped as deletions, in order
};

DeltaKeys delta_keys(const Engine& engine, std::uint64_t since) {
  const Engine::DeltaSnapshot delta = engine.delta_snapshot(since);
  DeltaKeys out;
  for (const Engine::SnapshotBatch& batch : delta.upserts) {
    BytesReader reader(batch.data);
    while (!reader.done()) out.upserts.push_back(deserialize_row(reader)[0].as_int());
  }
  for (const auto& [table, keys] : delta.deletes) {
    for (const Key& key : keys) out.deletes.push_back(key[0].as_int());
  }
  return out;
}

TEST_F(MvccTest, DeltaShipsDeleteThenReinsertAsUpsert) {
  put_at(1, 1, 10);
  put_at(1, 2, 20);
  delete_at(2, 1);
  put_at(3, 1, 11);
  const DeltaKeys d = delta_keys(engine_, 1);
  EXPECT_EQ(d.upserts, std::vector<std::int64_t>{1});
  EXPECT_TRUE(d.deletes.empty());
}

TEST_F(MvccTest, DeltaShipsInsertThenDeleteAsDeleteOnly) {
  put_at(1, 1, 10);
  put_at(2, 5, 50);
  delete_at(3, 5);
  const DeltaKeys d = delta_keys(engine_, 1);
  EXPECT_TRUE(d.upserts.empty());
  EXPECT_EQ(d.deletes, std::vector<std::int64_t>{5});
  // Both mutations inside one version: still a delete only.
  engine_.set_state_version(4);
  const TxnId t = engine_.begin();
  ASSERT_TRUE(engine_.execute(t, make_insert("kv", {Value(6), Value(60), Value("x")})).ok());
  ASSERT_TRUE(engine_.execute(t, make_delete("kv", {Value(6)})).ok());
  ASSERT_TRUE(engine_.commit(t).ok());
  const DeltaKeys d4 = delta_keys(engine_, 3);
  EXPECT_TRUE(d4.upserts.empty());
  EXPECT_EQ(d4.deletes, std::vector<std::int64_t>{6});
}

TEST_F(MvccTest, DeltaAfterRolledBackInsertShipsNoRow) {
  put_at(1, 1, 10);
  engine_.set_state_version(2);
  const TxnId t = engine_.begin();
  ASSERT_TRUE(engine_.execute(t, make_insert("kv", {Value(9), Value(90), Value("x")})).ok());
  ASSERT_TRUE(engine_.execute(t, make_update("kv", {Value(1)}, {{1, SetOp::kAssign, Value(77)}}))
                  .ok());
  engine_.abort(t);
  // The rollback is itself a mutation at version 2: the rolled-back insert
  // leaves a (harmless) deletion and the restored row ships unchanged.
  const DeltaKeys d = delta_keys(engine_, 1);
  EXPECT_EQ(d.upserts, std::vector<std::int64_t>{1});
  EXPECT_EQ(d.deletes, std::vector<std::int64_t>{9});
  EXPECT_EQ(read_at(1, 9), std::nullopt);
  EXPECT_EQ(read_at(2, 9), std::nullopt);
  EXPECT_EQ(read_at(2, 1), 10);
}

TEST_F(MvccTest, RestoredEngineDeltaHoldsOnlyPostRestoreTouches) {
  for (std::int64_t k = 0; k < 10; ++k) put_at(1, k, k);
  update_at(2, 3, 33);
  const Engine::Snapshot snap = engine_.snapshot();
  engine_.reset_for_restore(snap.schemas);
  for (const Engine::SnapshotBatch& b : snap.batches) engine_.restore_batch(b);
  engine_.set_delta_floor(2);
  engine_.set_state_version(2);
  EXPECT_FALSE(engine_.delta_valid(1));
  EXPECT_TRUE(delta_keys(engine_, 2).upserts.empty());

  update_at(3, 7, 70);
  delete_at(3, 4);
  put_at(4, 12, 120);
  const DeltaKeys d = delta_keys(engine_, 2);
  EXPECT_EQ(d.upserts, (std::vector<std::int64_t>{7, 12}));
  EXPECT_EQ(d.deletes, std::vector<std::int64_t>{4});
  // Restored rows read as of the floor; post-restore touches resolve through
  // their chains.
  EXPECT_EQ(read_at(2, 3), 33);
  EXPECT_EQ(read_at(2, 7), 7);
  EXPECT_EQ(read_at(3, 7), 70);
  EXPECT_EQ(read_at(2, 4), 4);
  EXPECT_EQ(read_at(3, 4), std::nullopt);
}

TEST_F(MvccTest, ReadBelowReinsertSeesEachIncarnation) {
  put_at(1, 1, 10);
  delete_at(2, 1);
  put_at(3, 1, 30);
  update_at(4, 1, 40);
  EXPECT_EQ(read_at(1, 1), 10);
  EXPECT_EQ(read_at(2, 1), std::nullopt);
  EXPECT_EQ(read_at(3, 1), 30);
  EXPECT_EQ(read_at(4, 1), 40);
  EXPECT_EQ(sum_at(1), 10);
  EXPECT_TRUE(engine_.read_at(make_scan("kv", {}), 2).rows.empty());
  EXPECT_EQ(sum_at(3), 30);
}

TEST_F(MvccTest, RejectedDuplicateInsertLeavesReadsExact) {
  put_at(1, 1, 10);
  // The rejected insert captures the key's (unchanged) row at version 3
  // without mutating it.
  engine_.set_state_version(3);
  const TxnId t = engine_.begin();
  EXPECT_FALSE(engine_.execute(t, make_insert("kv", {Value(1), Value(99), Value("x")})).ok());
  if (engine_.is_active(t)) engine_.abort(t);
  EXPECT_EQ(read_at(1, 1), 10);
  EXPECT_EQ(read_at(2, 1), 10);
  EXPECT_EQ(read_at(3, 1), 10);
  update_at(4, 1, 40);
  EXPECT_EQ(read_at(2, 1), 10);
  EXPECT_EQ(read_at(3, 1), 10);
  EXPECT_EQ(read_at(4, 1), 40);
  EXPECT_EQ(sum_at(2), 10);
  EXPECT_TRUE(delta_keys(engine_, 3).upserts == std::vector<std::int64_t>{1});
}

TEST_F(MvccTest, VersionedReadsTakeNoLocks) {
  put_at(1, 1, 10);
  // A writer holds an exclusive lock on the row; versioned reads must not
  // block on it (they never touch the lock manager).
  engine_.set_state_version(2);
  const TxnId writer = engine_.begin();
  ASSERT_TRUE(
      engine_.execute(writer, make_update("kv", {Value(1)}, {{1, SetOp::kAssign, Value(99)}}))
          .ok());
  EXPECT_EQ(read_at(1, 1), 10);  // sees the pre-image, not the uncommitted write
  ASSERT_TRUE(engine_.commit(writer).ok());
  EXPECT_EQ(read_at(2, 1), 99);
}

}  // namespace
}  // namespace shadow::db
