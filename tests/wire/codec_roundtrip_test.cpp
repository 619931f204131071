// Round-trip tests for the wire codec layer: every registered message type
// must encode → decode → re-encode byte-identically, `make_msg` must report
// the exact frame length, and damaged frames (truncation, seeded single-byte
// corruption) must be rejected by frame validation — never decoded as valid.
//
// The corruption trials draw from an RNG seeded by SHADOW_WIRE_SEED (default
// 1); scripts/check.sh re-runs the suite under several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/world.hpp"
#include "baselines/baseline_server.hpp"
#include "common/rng.hpp"
#include "consensus/paxos.hpp"
#include "consensus/two_third.hpp"
#include "core/chain.hpp"
#include "core/migrate.hpp"
#include "core/pbr.hpp"
#include "core/recovery.hpp"
#include "core/rosnap.hpp"
#include "core/smr.hpp"
#include "core/twopc.hpp"
#include "db/wire.hpp"
#include "sim/message.hpp"
#include "tob/tob.hpp"
#include "wire/framing.hpp"
#include "wire/registry.hpp"
#include "workload/messages.hpp"

namespace shadow::wire {
namespace {

std::uint64_t corruption_seed() {
  if (const char* env = std::getenv("SHADOW_WIRE_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

workload::TxnRequest sample_request() {
  workload::TxnRequest req;
  req.client = ClientId{7};
  req.seq = 42;
  req.reply_to = NodeId{3};
  req.proc = "deposit";
  req.params = {db::Value(std::int64_t{12}), db::Value(std::string("acct-12")),
                db::Value(3.5), db::Value()};
  return req;
}

consensus::Command sample_command(RequestSeq seq) {
  return consensus::Command{ClientId{9}, seq, workload::encode_request(sample_request())};
}

consensus::Batch sample_batch(std::size_t n) {
  consensus::Batch batch;
  for (std::size_t i = 0; i < n; ++i) batch.push_back(sample_command(i + 1));
  return batch;
}

db::Statement sample_statement() {
  db::Statement stmt;
  stmt.kind = db::Statement::Kind::kUpdate;
  stmt.table = "accounts";
  stmt.sets = {{1, db::SetOp::kAdd, db::Value(std::int64_t{5})}};
  stmt.where = {{0, db::CmpOp::kEq, db::Value(std::int64_t{12})}};
  return stmt;
}

/// One representative message per registered header; building them (via
/// make_msg) also populates the registry exactly as production code does.
std::vector<sim::Message> sample_messages() {
  using consensus::Ballot;
  using consensus::PValue;
  const Ballot ballot{3, NodeId{1}};
  const workload::TxnRequest req = sample_request();

  std::vector<sim::Message> samples;
  // consensus / paxos
  samples.push_back(sim::make_msg(consensus::kP1aHeader, consensus::P1aBody{ballot}));
  samples.push_back(sim::make_msg(
      consensus::kP1bHeader,
      consensus::P1bBody{ballot, ballot,
                         {PValue{ballot, 4, consensus::EncodedBatch{sample_batch(2)}}}}));
  samples.push_back(sim::make_msg(
      consensus::kP2aHeader,
      consensus::P2aBody{PValue{ballot, 5, consensus::EncodedBatch{sample_batch(1)}}}));
  samples.push_back(sim::make_msg(consensus::kP2bHeader, consensus::P2bBody{ballot, ballot, 5, 4}));
  samples.push_back(sim::make_msg(
      consensus::kDecisionHeader,
      consensus::DecisionBody{6, consensus::EncodedBatch{sample_batch(3)}, 3}));
  samples.push_back(sim::make_msg(
      consensus::kProposeHeader,
      consensus::ProposeBody{7, consensus::EncodedBatch{sample_batch(2)}}));
  // consensus / two-third
  samples.push_back(sim::make_msg(
      consensus::kVoteHeader,
      consensus::VoteBody{8, 1, consensus::EncodedBatch{sample_batch(1)}}));
  samples.push_back(sim::make_msg(
      consensus::kTwoThirdDecideHeader,
      consensus::DecideBody{8, consensus::EncodedBatch{sample_batch(1)}}));
  // tob
  samples.push_back(sim::make_msg(tob::kBroadcastHeader,
                                  tob::BroadcastBody{sample_command(11)}));
  samples.push_back(sim::make_msg(tob::kAckHeader, tob::AckBody{ClientId{9}, 11, 2}));
  samples.push_back(sim::make_msg(
      tob::kRelayHeader,
      tob::RelayBody{consensus::EncodedBatch{consensus::Batch{sample_command(12)}},
                     {NodeId{4}}}));
  // workload
  samples.push_back(workload::make_request_msg(req));
  samples.push_back(workload::make_response_msg(
      workload::TxnResponse{ClientId{7}, 42, true, {req.params}, ""}));
  // core replication bodies (PBR and chain share the forward and recovery
  // headers), and the snapshot stream all three protocols share.
  const core::ReplForwardBody fwd{2, 17, req};
  const core::ReplAckBody ack{2, 17};
  const core::ReplElectBody elect{3, 20};
  core::ReplCatchupBody catchup;
  catchup.config = 3;
  catchup.txns = {{18, req}, {19, req}};
  repl::SnapBegin2Body begin;
  begin.config = 3;
  begin.schemas = {db::TableSchema{
      "accounts",
      {{"id", db::ColumnType::kBigInt}, {"balance", db::ColumnType::kBigInt}},
      {0}}};
  begin.dedup_seqs = {{7, 42}};
  begin.order = 21;
  begin.state_version = 22;
  repl::SnapBatch2Body batch;
  batch.table = "accounts";
  batch.flags = repl::kBatchDeltaUpsert;
  batch.raw_len = 4;
  batch.rows = 2;
  batch.payload = Bytes{1, 2, 3, 4};
  const repl::SnapDelete2Body del{"accounts", {db::Key{{db::Value(std::int64_t{8})}}}, 0};
  repl::SnapDone2Body done;
  done.config = 3;
  done.rows = 2;
  done.frames = 2;
  samples.push_back(sim::make_msg(core::kReplFwdHeader, fwd));
  samples.push_back(sim::make_msg(core::kPbrAckHeader, ack));
  samples.push_back(sim::make_msg(core::kReplElectHeader, elect));
  samples.push_back(sim::make_msg(core::kReplCatchupHeader, catchup));
  samples.push_back(sim::make_msg(core::kSnapBegin2Header, begin));
  samples.push_back(sim::make_msg(core::kSnapBatch2Header, batch));
  samples.push_back(sim::make_msg(core::kSnapDelete2Header, del));
  samples.push_back(sim::make_msg(core::kSnapDone2Header, done));
  samples.push_back(sim::make_msg(core::kReplRecoveredHeader, ack));
  samples.push_back(sim::make_msg(core::kPbrRedirectHeader,
                                  core::RedirectBody{NodeId{2}, 3, true}));
  samples.push_back(sim::make_msg(core::kReplDeliverHeader, sample_command(13)));
  samples.push_back(sim::make_msg(
      core::kSmrDeliverHeader, core::DeliverHandoff{5, 6, sample_command(14)}));
  samples.push_back(sim::make_msg(
      core::kSmrDeliverBatchHeader,
      core::DeliverBatchHandoff{5, 6, consensus::EncodedBatch{sample_batch(2)}}));
  samples.push_back(sim::make_msg(core::kMigPullHeader, core::MigPullBody{4}));
  // read-only snapshot protocol (core/rosnap.hpp) — exercise every optional
  // section: a prepared set, a decide ring entry with participants, and the
  // per-client decided high-water map the torn-cut rule disambiguates with.
  samples.push_back(sim::make_msg(core::kRoSnapHeader,
                                  core::RoSnapBody{core::kRoBeginBit | 7, 42, 1}));
  {
    core::RoSnapRespBody snap;
    snap.group = 1;
    snap.seq = 42;
    snap.position = 75;
    snap.floor = 18;
    snap.serving = 1;
    snap.prepared = {{7, 41}};
    core::RoSnapRespBody::Decide d;
    d.client = 7;
    d.seq = 40;
    d.decide_pos = 73;
    d.committed = 1;
    d.participants = {0, 1};
    snap.decides.push_back(std::move(d));
    snap.last_decided = {{7, 40}, {9, 12}};
    samples.push_back(sim::make_msg(core::kRoSnapRespHeader, snap));
  }
  {
    core::RoReadBody read;
    read.req = req;
    read.version = 75;
    read.floor = 18;
    read.group = 1;
    read.hops = 1;
    samples.push_back(sim::make_msg(core::kRoReadHeader, read));
  }
  {
    core::RoReadRespBody resp;
    resp.client = core::kRoBeginBit | 7;
    resp.seq = 42;
    resp.group = 1;
    resp.served_group = 0;  // forwarded mid-migration
    resp.version = 75;
    resp.ok = 1;
    resp.rows = {{db::Value(std::int64_t{12}), db::Value(std::int64_t{500})}};
    samples.push_back(sim::make_msg(core::kRoReadRespHeader, resp));
  }
  // 2PC snapshot rider, including the decided high-water map a rejoiner
  // must restore to keep answering RO snap exchanges correctly.
  {
    core::XsSnapBody xs;
    core::XsSnapBody::PrepEntry prep;
    prep.orig = workload::encode_request(req);
    prep.prepare_index = 11;
    prep.coordinator = 0;
    prep.vote_yes = 1;
    xs.prepared.push_back(std::move(prep));
    core::XsSnapBody::ParkEntry park;
    park.index = 12;
    park.orig = prep.orig;
    xs.parked.push_back(std::move(park));
    core::XsSnapBody::CoordEntry coord;
    coord.orig = park.orig;
    coord.participants = {0, 1};
    coord.votes = {{1, 1}};
    coord.decided = 1;
    coord.commit = 1;
    coord.epoch = 2;
    xs.coords.push_back(std::move(coord));
    xs.last_decided = {{7, 40}};
    samples.push_back(sim::make_msg(core::kXsSnapHeader, xs));
  }
  // Migration rider on rejoin/promotion snapshots: a committed override and
  // one in-flight migration with its ready set and buffered pull batches.
  {
    core::MigSnapBody mig;
    mig.overrides.push_back(core::RangeOverride{"accounts", 0, 100, 0, 1});
    core::MigSnapBody::Inflight inflight;
    inflight.spec = core::RangeSpec{4, "accounts", 100, 200, 0, 1, NodeId{2}};
    inflight.ready = {3, 5};
    inflight.buffered = 1;
    inflight.batches = {db::Engine::SnapshotBatch{"accounts", Bytes{1, 2, 3}, 2},
                        db::Engine::SnapshotBatch{"accounts", Bytes{4, 5}, 1}};
    mig.inflight.push_back(std::move(inflight));
    samples.push_back(sim::make_msg(core::kMigSnapRiderHeader, mig));
  }
  // baselines
  samples.push_back(sim::make_msg(
      baselines::kReplicateHeader,
      baselines::ReplicateBody{99, {sample_statement(), sample_statement()}}));
  samples.push_back(sim::make_msg(baselines::kReplicateAckHeader,
                                  baselines::ReplicateAckBody{99}));
  return samples;
}

TEST(WireCodec, EveryRegisteredTypeRoundTripsByteIdentically) {
  const std::vector<sim::Message> samples = sample_messages();
  std::set<std::string> covered;
  for (const sim::Message& m : samples) {
    SCOPED_TRACE(m.header);
    covered.insert(m.header);
    ASSERT_NE(m.frame, nullptr);
    // The advertised wire size is the exact frame length, and the frame
    // validates and splits back into header + body.
    EXPECT_EQ(m.frame->size(), m.wire_size);
    FrameView view;
    ASSERT_EQ(decode_frame(*m.frame, view), FrameStatus::kOk);
    EXPECT_EQ(view.header, m.header);
    EXPECT_EQ(m.frame->size(), frame_size(m.header.size(), view.body.size()));
    // decode the body bytes through the header's registered codec...
    const auto decoded = registry().decode(m.header, m.body_bytes());
    // ...and re-encode: byte-identical, every time.
    const Bytes reencoded = registry().encode(m.header, *decoded);
    EXPECT_TRUE(std::ranges::equal(reencoded, view.body)) << "re-encode must be byte-identical";
    // Framing the body on its own reproduces the frame make_msg wrote.
    EXPECT_EQ(encode_frame(m.header, view.body), *m.frame);
  }
  // The samples above must cover every header this binary registered: a new
  // message type added to the stack without a sample here fails the suite.
  for (const std::string& header : registry().headers()) {
    EXPECT_TRUE(covered.count(header) > 0)
        << "no round-trip sample for registered header '" << header << "'";
  }
}

/// FNV-1a 64 over a whole frame (prologue, header and body).
std::uint64_t frame_digest(const Bytes& frame) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : frame) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

// The wire format itself, pinned: every sample frame hashes to the digest it
// had when the format was last changed on purpose. A codec edit that moves,
// widens or drops one byte of any body fails here, with the header named.
TEST(WireCodec, EveryRegisteredTypeEncodesToPinnedBytes) {
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"px-p1a", 0xe335816c4eccfaadull},
      {"px-p1b", 0x07896f042a5932c8ull},
      {"px-p2a", 0x573934f9a1b19c6bull},
      {"px-p2b", 0x5a1bf4235397bf64ull},
      {"px-decision", 0xb57c1d12a2143e28ull},
      {"px-propose", 0x61f72c35401bd715ull},
      {"2/3-vote", 0xc2b627e904c760edull},
      {"2/3-decide", 0x2cb18352908dfa85ull},
      {"tob-broadcast", 0x5870d0726f20bbe3ull},
      {"tob-ack", 0xa4457fc1dbc5c0cdull},
      {"tob-relay", 0xe7f268f10c077828ull},
      {"txn-request", 0x98b537bbfd0a16a4ull},
      {"txn-response", 0x0657960f126f2597ull},
      {"repl-fwd", 0x23328673c3799688ull},
      {"pbr-ack", 0x31e5d1b7eaca40f8ull},
      {"repl-elect", 0x5f1e31e2b74dd05eull},
      {"repl-catchup", 0x9739c9b4bf987ebeull},
      {"repl-snap-begin", 0xd3747ea7cce833c5ull},
      {"repl-snap-batch", 0x6ee67ba47064e7a3ull},
      {"repl-snap-del", 0x59b0f38da170cc51ull},
      {"repl-snap-done", 0x8b05d44bc7456403ull},
      {"repl-recovered", 0xc32843ffc73cbfacull},
      {"pbr-redirect", 0x837daf56287d73a0ull},
      {"repl-deliver", 0x31b51c03002becfdull},
      {"smr-deliver", 0x7257d5437a0b7c66ull},
      {"smr-deliver-batch", 0x53df0d4fa6666a8bull},
      {"mig-pull", 0x109fc7df3524f278ull},
      {"ro-snap", 0x852d48f8911b5afcull},
      {"ro-snap-resp", 0xdb9d8a1357ac6ba5ull},
      {"ro-read", 0x17dbb36d6ec997f9ull},
      {"ro-read-resp", 0x713a32643848b070ull},
      {"smr-snap-xs", 0xeb77ba14f9e22af8ull},
      {"smr-snap-mig", 0x001caa5f7f65e3ddull},
      {"bl-replicate", 0x8c1d7b4d3bf577b6ull},
      {"bl-replicate-ack", 0xf7dded9ecaed622full},
  };
  const std::vector<sim::Message> samples = sample_messages();
  ASSERT_EQ(samples.size(), pinned.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].header, pinned[i].first);
    EXPECT_EQ(frame_digest(*samples[i].frame), pinned[i].second)
        << "{\"" << samples[i].header << "\", 0x" << std::hex
        << frame_digest(*samples[i].frame) << "ull},";
  }
}

TEST(WireCodec, DecodeRejectsEveryTruncation) {
  for (const sim::Message& m : sample_messages()) {
    SCOPED_TRACE(m.header);
    const Bytes& frame = *m.frame;
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::span<const std::uint8_t> prefix(frame.data(), len);
      FrameView view;
      ASSERT_NE(decode_frame(prefix, view), FrameStatus::kOk)
          << "a " << len << "-byte prefix of a " << frame.size()
          << "-byte frame must not validate";
    }
  }
}

TEST(WireCodec, DecodeRejectsSeededCorruption) {
  Rng rng(corruption_seed());
  std::uint64_t checksum_catches = 0;
  for (const sim::Message& m : sample_messages()) {
    SCOPED_TRACE(m.header);
    const Bytes& frame = *m.frame;
    for (int trial = 0; trial < 64; ++trial) {
      Bytes damaged = frame;
      const std::size_t pos = rng.index(damaged.size());
      damaged[pos] ^= static_cast<std::uint8_t>(1 + rng.index(255));
      FrameView view;
      const FrameStatus status = decode_frame(damaged, view);
      ASSERT_NE(status, FrameStatus::kOk)
          << "flipping byte " << pos << " must not leave a valid frame";
      if (status == FrameStatus::kChecksumMismatch) ++checksum_catches;
    }
  }
  // Most flips land in the payload, where only the checksum can catch them.
  EXPECT_GT(checksum_catches, 0u);
}

TEST(WireCodec, SignalsFrameWithEmptyBody) {
  const sim::Message hb = sim::make_signal(core::kReplHbHeader);
  EXPECT_EQ(hb.wire_size, kFrameOverhead + std::string(core::kReplHbHeader).size());
  const Bytes frame = encode_frame(hb.header, {});
  EXPECT_EQ(frame.size(), hb.wire_size);
  FrameView view;
  ASSERT_EQ(decode_frame(frame, view), FrameStatus::kOk);
  EXPECT_EQ(view.header, core::kReplHbHeader);
  EXPECT_TRUE(view.body.empty());
}

TEST(WireCodec, ExplicitWireSizeMustBePositive) {
  struct Opaque {};  // no codec: callers must state an honest size
  EXPECT_NO_THROW(sim::make_msg("opaque", Opaque{}, 64));
  EXPECT_THROW(sim::make_msg("opaque", Opaque{}, 0), PreconditionViolation);
}

// Regression for the old `sizeof(T) + header + 24` default wire-size
// estimate: a proposal batching 100 commands is tens of kilobytes on the
// wire, but sizeof(ProposeBody) is two pointers and a count — the estimate
// missed the heap-owned payload entirely and undercounted by ~99%.
TEST(WireCodec, ExactSizeReplacesSizeofEstimateForLargeBatches) {
  const consensus::ProposeBody body{1, consensus::EncodedBatch{sample_batch(100)}};
  const std::string header = consensus::kProposeHeader;
  const std::size_t old_estimate = sizeof(consensus::ProposeBody) + header.size() + 24;
  const sim::Message m = sim::make_msg(header, body);
  EXPECT_EQ(m.wire_size, frame_size(header.size(), body_size(body)));
  EXPECT_GT(m.wire_size, 100 * 40u) << "100 encoded commands cannot fit in 4 KB";
  EXPECT_GT(m.wire_size, 10 * old_estimate)
      << "the sizeof-based estimate undercounted the batch by >10x";
}

}  // namespace
}  // namespace shadow::wire
