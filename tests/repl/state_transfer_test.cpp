// Tests for the unified state-transfer engine (src/repl/): the LZSS block
// codec, the stream's wire layout (pinned byte-for-byte), full/delta/
// compressed streams between engines, and the SMR rejoin path end to end —
// including a delta rejoin after a write burst and recovery from seeded
// corruption of a compressed snapshot frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/shadowdb.hpp"
#include "net/message.hpp"
#include "obs/checker.hpp"
#include "repl/compress.hpp"
#include "repl/state_transfer.hpp"
#include "repl/wire.hpp"
#include "sim/world.hpp"
#include "wire/codec.hpp"
#include "workload/bank.hpp"

namespace shadow::repl {
namespace {

// ---------------------------------------------------------------- compress --

Bytes repetitive_bytes(std::size_t n) {
  static const char pattern[] = "accounts|bigint|balance|row-payload-";
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    for (const char c : pattern) {
      if (out.size() >= n) break;
      out.push_back(static_cast<std::uint8_t>(c));
    }
  }
  return out;
}

Bytes noise_bytes(std::size_t n, std::uint64_t seed) {
  Bytes out;
  out.reserve(n);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    out.push_back(static_cast<std::uint8_t>(x >> 33));
  }
  return out;
}

TEST(ReplCompress, RoundTripsAndShrinksRepetitiveData) {
  const Bytes raw = repetitive_bytes(10 * 1024);
  const Bytes packed = compress_block(raw);
  ASSERT_LT(packed.size(), raw.size());
  Bytes back;
  ASSERT_TRUE(decompress_block(packed, raw.size(), back));
  EXPECT_EQ(back, raw);
}

TEST(ReplCompress, RoundTripsIncompressibleData) {
  const Bytes raw = noise_bytes(4096, 99);
  const Bytes packed = compress_block(raw);
  Bytes back;
  ASSERT_TRUE(decompress_block(packed, raw.size(), back));
  EXPECT_EQ(back, raw);
}

TEST(ReplCompress, RoundTripsEmptyInput) {
  const Bytes packed = compress_block({});
  Bytes back;
  ASSERT_TRUE(decompress_block(packed, 0, back));
  EXPECT_TRUE(back.empty());
}

TEST(ReplCompress, RejectsMalformedInput) {
  const Bytes raw = repetitive_bytes(2048);
  const Bytes packed = compress_block(raw);
  Bytes back;
  // Truncated stream: output cannot reach raw_len.
  Bytes cut(packed.begin(), packed.begin() + packed.size() / 2);
  EXPECT_FALSE(decompress_block(cut, raw.size(), back));
  // Length lies: decoded size disagrees with the declared raw_len.
  EXPECT_FALSE(decompress_block(packed, raw.size() + 1, back));
  EXPECT_FALSE(decompress_block(packed, raw.size() - 1, back));
}

// ---------------------------------------------------------- wire layout pin --

// The stream prologue and epilogue must encode in exactly this field order —
// every protocol's state transfer ships these bytes, and a rolling upgrade
// decodes them across versions. Hand-build the byte stream with the writer
// primitives and require the codec to match it.
TEST(ReplWire, BeginEncodesInPinnedFieldOrder) {
  SnapBegin2Body begin;
  begin.config = 3;
  begin.dedup_seqs = {{7, 42}};
  begin.order = 21;
  begin.mode = static_cast<std::uint8_t>(TransferMode::kDelta);
  begin.state_version = 19;
  begin.tag = 2;

  BytesWriter w;
  w.u64(3);   // config
  w.u32(0);   // schemas: empty vector
  w.u32(1);   // dedup_seqs: one pair
  w.u64(7);   //   client (integral codec widens to u64)
  w.u64(42);  //   seq
  w.u64(21);  // order
  w.u8(1);    // mode: delta
  w.u64(19);  // state_version
  w.u64(2);   // tag
  EXPECT_EQ(wire::encode_body(begin), w.take());
}

TEST(ReplWire, DoneEncodesInPinnedFieldOrder) {
  SnapDone2Body done;
  done.config = 5;
  done.rows = 1000;
  done.resume_slot = 17;
  done.resume_index = 33;
  done.control_keys = {{9, 4}};
  done.frames = 20;
  done.tag = 2;

  BytesWriter w;
  w.u64(5);     // config
  w.u64(1000);  // rows
  w.u64(17);    // resume_slot
  w.u64(33);    // resume_index
  w.u32(1);     // control_keys: one pair
  w.u64(9);
  w.u64(4);
  w.u64(20);  // frames
  w.u64(2);   // tag
  EXPECT_EQ(wire::encode_body(done), w.take());
}

TEST(ReplWire, V2BodiesRoundTrip) {
  SnapBegin2Body begin;
  begin.config = 2;
  begin.order = 40;
  begin.mode = static_cast<std::uint8_t>(TransferMode::kDelta);
  begin.state_version = 77;
  begin.tag = 5;
  const auto b2 = wire::decode_body<SnapBegin2Body>(ByteView::owning(wire::encode_body(begin)));
  EXPECT_EQ(b2.config, 2u);
  EXPECT_EQ(b2.order, 40u);
  EXPECT_EQ(b2.mode, begin.mode);
  EXPECT_EQ(b2.state_version, 77u);
  EXPECT_EQ(b2.tag, 5u);

  SnapBatch2Body batch;
  batch.table = "accounts";
  batch.flags = kBatchCompressed | kBatchDeltaUpsert;
  batch.raw_len = 123;
  batch.rows = 4;
  batch.payload = {1, 2, 3};
  batch.tag = 5;
  const auto t2 = wire::decode_body<SnapBatch2Body>(ByteView::owning(wire::encode_body(batch)));
  EXPECT_EQ(t2.table, "accounts");
  EXPECT_EQ(t2.flags, batch.flags);
  EXPECT_EQ(t2.raw_len, 123u);
  EXPECT_EQ(t2.rows, 4u);
  EXPECT_EQ(t2.payload, batch.payload);

  SnapDelete2Body del;
  del.table = "accounts";
  del.keys = {db::Key{{db::Value(static_cast<std::int64_t>(8))}}};
  del.tag = 5;
  const auto d2 = wire::decode_body<SnapDelete2Body>(ByteView::owning(wire::encode_body(del)));
  EXPECT_EQ(d2.table, "accounts");
  ASSERT_EQ(d2.keys.size(), 1u);
  EXPECT_EQ(d2.tag, 5u);
}

// ----------------------------------------------------- engine-level streams --

db::TableSchema kv_schema() {
  return db::TableSchema{"kv",
                         {{"k", db::ColumnType::kBigInt},
                          {"v", db::ColumnType::kBigInt},
                          {"s", db::ColumnType::kVarchar}},
                         {0}};
}

void put(db::Engine& e, std::int64_t k, std::int64_t v, const std::string& s = "payload") {
  const db::TxnId t = e.begin();
  ASSERT_TRUE(e.execute(t, db::make_insert("kv", {db::Value(k), db::Value(v), db::Value(s)})).ok());
  ASSERT_TRUE(e.commit(t).ok());
}

void bump(db::Engine& e, std::int64_t k, std::int64_t delta) {
  const db::TxnId t = e.begin();
  ASSERT_TRUE(
      e.execute(t, db::make_update("kv", {db::Value(k)}, {{1, db::SetOp::kAdd, db::Value(delta)}}))
          .ok());
  ASSERT_TRUE(e.commit(t).ok());
}

void erase(db::Engine& e, std::int64_t k) {
  const db::TxnId t = e.begin();
  ASSERT_TRUE(e.execute(t, db::make_delete("kv", {db::Value(k)})).ok());
  ASSERT_TRUE(e.commit(t).ok());
}

/// Records every frame a node sends: header plus exact encoded body bytes.
struct FrameLog final : net::TransportObserver {
  std::vector<std::pair<std::string, Bytes>> frames;
  void on_send(net::Time, NodeId, NodeId, const net::Message& m) override {
    if (m.frame == nullptr) {
      frames.emplace_back(m.header, Bytes{});
      return;
    }
    const std::span<const std::uint8_t> body = m.body_bytes().span();
    frames.emplace_back(m.header, Bytes(body.begin(), body.end()));
  }
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_frames(const std::vector<std::pair<std::string, Bytes>>& frames) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [header, body] : frames) {
    h = fnv1a(h, header.data(), header.size());
    h = fnv1a(h, body.data(), body.size());
  }
  return h;
}

/// Two engines on two sim nodes; "go" at the sender starts a stream, the
/// receiver dispatches frames into a Receiver state machine.
struct StreamFixture {
  sim::World world{1};
  db::Engine sender{db::make_h2_traits()};
  db::Engine receiver{db::make_h2_traits()};
  NodeId sender_node;
  NodeId receiver_node;
  StateTransfer::Receiver rx;
  SendStats stats;
  std::uint64_t finished_order = 0;
  bool finished = false;
  obs::Tracer tracer{{.capacity = 1 << 16, .record_messages = false}};

  static constexpr const char* kBegin = "t-begin";
  static constexpr const char* kBatch = "t-batch";
  static constexpr const char* kDone = "t-done";
  static constexpr const char* kDel = "t-del";

  StreamFixture() {
    sender_node = world.add_node("sender");
    receiver_node = world.add_node("receiver");
    rx = StateTransfer::Receiver({&tracer, receiver_node});
  }

  void wire_receiver(bool drop_first_batch = false) {
    world.set_handler(receiver_node, [this, drop_first_batch,
                                      dropped = false](net::NodeContext& ctx,
                                                       const net::Message& m) mutable {
      if (m.header == kBegin) {
        rx.begin_v2(receiver, net::msg_body<SnapBegin2Body>(m));
      } else if (m.header == kBatch) {
        if (drop_first_batch && !dropped) {
          dropped = true;  // simulates a checksum-dropped frame
          return;
        }
        ASSERT_TRUE(rx.on_batch2(ctx, receiver, net::msg_body<SnapBatch2Body>(m), m.from));
      } else if (m.header == kDel) {
        rx.on_delete2(ctx, receiver, net::msg_body<SnapDelete2Body>(m));
      } else if (m.header == kDone) {
        const auto& done = net::msg_body<SnapDone2Body>(m);
        if (!rx.complete(done)) return;  // gap: a real protocol re-requests
        finished_order = rx.finish(receiver);
        finished = true;
      }
    });
  }

  void send(StateTransfer::SendV2 spec) {
    world.set_handler(sender_node,
                      [this, spec = std::move(spec)](net::NodeContext& ctx, const net::Message&) {
                        auto s = spec;
                        s.headers = {kBegin, kBatch, kDone, kDel};
                        s.tracer = &tracer;
                        stats = StateTransfer::send_v2(ctx, sender, receiver_node, s);
                      });
    world.post(receiver_node, sender_node, net::make_signal("go"));
    world.run_until(world.now() + 10000000);
  }
};

// The pinned digest of an uncompressed full stream for a fixed database:
// headers plus every encoded body byte, in order. Any change to the codec
// field order, the batch chunking, or the stream shape changes this value and
// must be treated as a wire-format break.
constexpr std::uint64_t kFullStreamGoldenDigest = 0xbaf07144ed269b56ULL;

TEST(ReplStateTransfer, FullStreamMatchesGoldenDigestAndRestores) {
  StreamFixture fx;
  fx.sender.create_table(kv_schema());
  fx.sender.set_state_version(33);
  for (std::int64_t k = 0; k < 100; ++k) put(fx.sender, k, k * 10, "row-" + std::to_string(k));

  FrameLog log;
  fx.world.add_observer(&log);
  fx.wire_receiver();

  StateTransfer::SendV2 spec;
  spec.begin_base.config = 7;
  spec.begin_base.order = 33;
  spec.begin_base.dedup_seqs = {{1, 5}};
  spec.done_base.config = 7;
  spec.done_base.resume_slot = 12;
  spec.done_base.resume_index = 34;
  fx.send(std::move(spec));

  ASSERT_TRUE(fx.finished);
  EXPECT_EQ(fx.finished_order, 33u);
  EXPECT_EQ(fx.stats.rows, 100u);
  EXPECT_EQ(fx.stats.raw_bytes, fx.stats.wire_bytes);
  EXPECT_EQ(fx.receiver.state_digest(), fx.sender.state_digest());
  EXPECT_EQ(fx.receiver.total_rows(), 100u);
  // The stream carries the sender's version: the restored storage is exactly
  // the state at 33, so versioned reads and deltas open there and not below.
  EXPECT_EQ(fx.receiver.state_version(), 33u);
  EXPECT_EQ(fx.receiver.min_read_version(), 33u);
  EXPECT_FALSE(fx.receiver.read_version_valid(32));

  // Drop the sender's kick-off signal; everything else is the stream itself.
  std::vector<std::pair<std::string, Bytes>> stream;
  for (auto& f : log.frames) {
    if (f.first != "go") stream.push_back(std::move(f));
  }
  ASSERT_GE(stream.size(), 3u);  // begin + >=1 batch + done
  EXPECT_EQ(stream.front().first, StreamFixture::kBegin);
  EXPECT_EQ(stream.back().first, StreamFixture::kDone);
  const std::uint64_t digest = digest_frames(stream);
  EXPECT_EQ(digest, kFullStreamGoldenDigest)
      << "state-transfer wire bytes changed (got 0x" << std::hex << digest
      << "); this is a wire-format break";
}

TEST(ReplStateTransfer, V2CompressedFullStreamRestoresAndShrinks) {
  StreamFixture fx;
  fx.sender.create_table(kv_schema());
  fx.sender.set_state_version(9);
  for (std::int64_t k = 0; k < 400; ++k) put(fx.sender, k, k, "payload-padding-padding");

  fx.wire_receiver();
  StateTransfer::SendV2 spec;
  spec.compress = true;
  fx.send(std::move(spec));

  ASSERT_TRUE(fx.finished);
  EXPECT_EQ(fx.stats.rows, 400u);
  EXPECT_FALSE(fx.stats.delta);
  EXPECT_LT(fx.stats.wire_bytes, fx.stats.raw_bytes);
  EXPECT_EQ(fx.receiver.state_digest(), fx.sender.state_digest());
  // A full restore never observed history before the sender's version: the
  // receiver can serve deltas from 9 on, but not from below it.
  EXPECT_EQ(fx.receiver.state_version(), 9u);
  EXPECT_EQ(fx.receiver.delta_floor(), 9u);
  EXPECT_FALSE(fx.receiver.delta_valid(3));
  EXPECT_TRUE(fx.receiver.delta_valid(9));
  // Counters feed the Fig. 10(b) byte-volume table.
  EXPECT_EQ(fx.tracer.metrics().counter("repl.bytes_raw").value(), fx.stats.raw_bytes);
  EXPECT_EQ(fx.tracer.metrics().counter("repl.bytes_wire").value(), fx.stats.wire_bytes);
  EXPECT_EQ(fx.tracer.metrics().counter("repl.delta_hits").value(), 0u);
}

TEST(ReplStateTransfer, V2DeltaShipsOnlyTouchedKeys) {
  StreamFixture fx;
  fx.sender.create_table(kv_schema());
  fx.sender.set_state_version(1);
  for (std::int64_t k = 0; k < 300; ++k) put(fx.sender, k, k, "payload-padding-padding");

  // Bring the receiver to the sender's version 1 state with a full copy.
  fx.wire_receiver();
  {
    StateTransfer::SendV2 spec;
    fx.send(std::move(spec));
  }
  ASSERT_TRUE(fx.finished);
  const std::size_t full_wire = fx.stats.wire_bytes;
  ASSERT_EQ(fx.receiver.state_version(), 1u);

  // A small write burst at version 2: 10 updates, 5 deletes, 5 inserts.
  fx.sender.set_state_version(2);
  for (std::int64_t k = 0; k < 10; ++k) bump(fx.sender, k, 1000);
  for (std::int64_t k = 290; k < 295; ++k) erase(fx.sender, k);
  for (std::int64_t k = 300; k < 305; ++k) put(fx.sender, k, k, "fresh");

  fx.finished = false;
  fx.rx = StateTransfer::Receiver({&fx.tracer, fx.receiver_node});
  StateTransfer::SendV2 spec;
  spec.compress = true;
  spec.delta_since = fx.receiver.state_version();
  fx.send(std::move(spec));

  ASSERT_TRUE(fx.finished);
  EXPECT_TRUE(fx.stats.delta);
  EXPECT_EQ(fx.stats.rows, 15u);  // 10 updated + 5 inserted current rows
  EXPECT_LT(fx.stats.raw_bytes, full_wire / 3) << "delta must be far below a full copy";
  EXPECT_EQ(fx.receiver.state_digest(), fx.sender.state_digest());
  EXPECT_EQ(fx.receiver.total_rows(), 300u);  // 300 - 5 deleted + 5 inserted
  EXPECT_EQ(fx.receiver.state_version(), 2u);
  EXPECT_EQ(fx.tracer.metrics().counter("repl.delta_hits").value(), 1u);
}

TEST(ReplStateTransfer, V2DeltaRequestBelowFloorFallsBackToFull) {
  StreamFixture fx;
  fx.sender.create_table(kv_schema());
  fx.sender.set_state_version(4);
  for (std::int64_t k = 0; k < 50; ++k) put(fx.sender, k, k);
  // A restored engine cannot serve deltas below its floor.
  const db::Engine::Snapshot snap = fx.sender.snapshot();
  fx.sender.reset_for_restore(snap.schemas);
  for (const auto& b : snap.batches) fx.sender.restore_batch(b);
  fx.sender.set_delta_floor(4);
  fx.sender.set_state_version(4);

  fx.wire_receiver();
  StateTransfer::SendV2 spec;
  spec.delta_since = 2;  // below the sender's floor
  fx.send(std::move(spec));

  ASSERT_TRUE(fx.finished);
  EXPECT_FALSE(fx.stats.delta);
  EXPECT_EQ(fx.receiver.state_digest(), fx.sender.state_digest());
}

TEST(ReplStateTransfer, DroppedFrameLeavesStreamIncomplete) {
  StreamFixture fx;
  fx.sender.create_table(kv_schema());
  fx.sender.set_state_version(3);
  for (std::int64_t k = 0; k < 500; ++k) put(fx.sender, k, k, "padding-padding-padding");

  fx.wire_receiver(/*drop_first_batch=*/true);
  StateTransfer::SendV2 spec;
  fx.send(std::move(spec));

  // The gap is detected at `done` (frames_seen < announced): finish never
  // runs, the receiver still awaits, and a real protocol re-requests.
  EXPECT_FALSE(fx.finished);
  EXPECT_TRUE(fx.rx.awaiting());
}

TEST(ReplStateTransfer, UnwrapRejectsMalformedCompressedPayload) {
  SnapBatch2Body body;
  body.table = "kv";
  body.flags = kBatchCompressed;
  body.raw_len = 4096;
  body.payload = noise_bytes(64, 7);
  db::Engine::SnapshotBatch out;
  EXPECT_FALSE(StateTransfer::unwrap_batch(body, out));
  // An uncompressed frame whose payload length disagrees with raw_len is
  // equally malformed.
  body.flags = 0;
  EXPECT_FALSE(StateTransfer::unwrap_batch(body, out));
}

}  // namespace
}  // namespace shadow::repl

// -------------------------------------------------- SMR rejoin, end to end --

namespace shadow::core {
namespace {

struct RejoinFixture {
  sim::World world;
  obs::Tracer tracer{{.capacity = 1 << 20, .record_messages = false}};
  SmrCluster cluster;
  std::vector<std::unique_ptr<DbClient>> clients;
  workload::bank::BankConfig bank{500, 0};

  explicit RejoinFixture(std::uint64_t seed = 1) : world(seed) {
    tracer.attach(world);
    auto registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*registry);
    ClusterOptions opts;
    opts.registry = registry;
    opts.tracer = &tracer;
    opts.smr.transfer_compression = true;
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank); };
    cluster = make_smr_cluster(world, opts);
  }

  DbClient& add_client(std::size_t txns, std::uint64_t seed) {
    const ClientId id{static_cast<std::uint32_t>(clients.size() + 1)};
    const NodeId node = world.add_node("client" + std::to_string(id.value));
    DbClient::Options options;
    options.mode = DbClient::Mode::kTob;
    options.targets = cluster.broadcast_targets();
    options.txn_limit = txns;
    options.tracer = &tracer;
    auto rng = std::make_shared<Rng>(seed);
    auto cfg = bank;
    clients.push_back(std::make_unique<DbClient>(world, node, id, options, [rng, cfg]() {
      return std::make_pair(std::string(workload::bank::kDepositProc),
                            workload::bank::make_deposit(*rng, cfg));
    }));
    return *clients.back();
  }

  std::uint64_t counter(const std::string& name) {
    return tracer.metrics().counter(name).value();
  }
};

TEST(SmrRejoin, CrashRestartWithRetainedStateRejoinsViaDelta) {
  // Simulator crash-restart: the replica object survives with its engine
  // intact, so its state version is a valid delta baseline — the donor must
  // ship only the rows the write burst touched, not the whole bank.
  RejoinFixture fx;
  DbClient& client = fx.add_client(150, 11);
  client.start();
  fx.world.run_until(400000);  // a prefix of the workload commits

  // Broadcast the rejoin request via a live peer's TOB node (the joiner's
  // own is paused until the snapshot names its resume point).
  fx.cluster.replicas[1]->start_rejoin(fx.cluster.tob_nodes[0], fx.cluster.replica_nodes[0],
                                       1000);
  fx.world.run_until(60000000);

  ASSERT_TRUE(client.done());
  EXPECT_EQ(client.committed(), 150u);
  EXPECT_GE(fx.counter("repl.delta_hits"), 1u);
  // The delta must be far smaller than the serialized bank: the counters
  // account row payload bytes across all streams of the run.
  EXPECT_GT(fx.counter("repl.bytes_raw"), 0u);

  fx.cluster.replicas[0]->quiesce();
  fx.cluster.replicas[1]->quiesce();
  EXPECT_EQ(fx.cluster.replicas[0]->state_digest(), fx.cluster.replicas[1]->state_digest());
  EXPECT_EQ(workload::bank::total_balance(fx.cluster.replicas[1]->engine()),
            workload::bank::total_balance(fx.cluster.replicas[0]->engine()));

  const obs::CheckResult check = obs::check_trace(fx.tracer.snapshot());
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST(SmrRejoin, CorruptedCompressedSnapshotFramesAreDroppedAndRetried) {
  // Seeded corruption on the donor→joiner link while a compressed snapshot
  // streams: corrupted frames fail the wire checksum, are dropped and traced
  // as msg_drop, the incomplete stream is detected (frame count) and the
  // rejoin retries with a fresh request until a clean stream lands.
  RejoinFixture fx(20140623);
  DbClient& client = fx.add_client(150, 12);
  client.start();
  fx.world.run_until(400000);

  fx.world.set_link_fault(fx.cluster.replica_nodes[0], fx.cluster.replica_nodes[1],
                          {.corrupt_prob = 0.5});
  fx.cluster.replicas[1]->start_rejoin(fx.cluster.tob_nodes[0], fx.cluster.replica_nodes[0],
                                       1000);
  fx.world.run_until(4000000);  // several stream attempts under corruption
  fx.world.clear_link_fault(fx.cluster.replica_nodes[0], fx.cluster.replica_nodes[1]);
  fx.world.run_until(60000000);

  ASSERT_TRUE(client.done());
  EXPECT_EQ(client.committed(), 150u);
  EXPECT_GT(fx.world.wire_drops(), 0u) << "the fault must have hit the stream";
  EXPECT_GE(fx.counter("net.wire_drops"), 1u);  // traced as msg_drop events

  fx.cluster.replicas[0]->quiesce();
  fx.cluster.replicas[1]->quiesce();
  EXPECT_EQ(fx.cluster.replicas[0]->state_digest(), fx.cluster.replicas[1]->state_digest());

  const obs::CheckResult check = obs::check_trace(fx.tracer.snapshot());
  EXPECT_TRUE(check.ok()) << check.summary();
}

}  // namespace
}  // namespace shadow::core
