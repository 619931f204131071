// The batch payload path, tested at the byte level: a batch is encoded
// exactly once and travels thereafter as an encoded sub-frame that each
// frame carrying it copies. These tests pin the claims the counters
// advertise — framing copies the payload once per frame and never
// re-encodes, decoded batches share the received frame's buffer, and a
// corrupted sub-frame dies on the frame checksum and is traced as a drop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consensus/types.hpp"
#include "core/replica_common.hpp"
#include "core/smr.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"

namespace shadow::wire {
namespace {

consensus::Batch sample_batch(std::size_t n, std::size_t payload_len = 32) {
  consensus::Batch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(consensus::Command{
        ClientId{7}, i + 1, std::string(payload_len, static_cast<char>('a' + i % 26))});
  }
  return batch;
}

/// Byte offset of the batch payload inside an smr-deliver-batch frame:
/// [24-byte prologue][header][slot u64][base_index u64][count u32][len u32].
std::size_t deliver_payload_offset(const std::string& header) {
  return kFrameOverhead + header.size() + 8 + 8 + 4 + 4;
}

TEST(ZeroCopySubFrame, RoundTripCopiesThePayloadOnceWithoutReencoding) {
  const consensus::EncodedBatch original{sample_batch(5)};
  const SpliceStats base = splice_stats();

  BytesWriter w;
  Codec<consensus::EncodedBatch>::encode(w, original);
  const ByteView encoded = ByteView::owning(w.take());

  BytesReader r(encoded);
  const consensus::EncodedBatch decoded = Codec<consensus::EncodedBatch>::decode(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(decoded, original);  // payload-byte equality == command equality
  EXPECT_EQ(decoded.size(), original.size());
  EXPECT_EQ(decoded.commands(), original.commands());

  // Encoding copied the payload into the writer's buffer, once; decoding
  // handed back a view into that buffer, after the [count][len] prefix.
  EXPECT_EQ(decoded.payload().owner(), encoded.owner());
  EXPECT_EQ(decoded.payload().data(), encoded.data() + 8);

  const SpliceStats& now = splice_stats();
  EXPECT_EQ(now.batch_encodes, base.batch_encodes) << "round trip must not re-encode";
  EXPECT_EQ(now.batch_bytes_copied - base.batch_bytes_copied, original.payload_size());
}

TEST(ZeroCopySubFrame, BuilderCopiesRelayedUnitsAndEncodesFreshCommandsOnce) {
  // What the tob leader does per proposal: merge relayed sub-frames (copied
  // as bytes) with locally pending commands (one fresh encode for all).
  const consensus::EncodedBatch relayed_a{sample_batch(3)};
  const consensus::EncodedBatch relayed_b{sample_batch(2, 64)};
  const consensus::Command local{ClientId{9}, 100, "local"};
  const SpliceStats base = splice_stats();

  consensus::BatchBuilder builder;
  builder.add(relayed_a);
  builder.add(local);
  builder.add(relayed_b);
  const consensus::EncodedBatch merged = builder.build();

  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(merged.commands()[0], relayed_a.commands()[0]);
  EXPECT_EQ(merged.commands()[3].payload, "local");
  EXPECT_EQ(merged.commands()[4], relayed_b.commands()[0]);
  EXPECT_EQ(merged.payload_size(),
            relayed_a.payload_size() + body_size(local) + relayed_b.payload_size());

  const SpliceStats& now = splice_stats();
  EXPECT_EQ(now.batch_encodes - base.batch_encodes, 1u) << "one encode for the fresh region";
  EXPECT_EQ(now.batch_bytes_copied - base.batch_bytes_copied,
            relayed_a.payload_size() + relayed_b.payload_size());
}

TEST(ZeroCopySubFrame, FiveHopsReframeByteIdenticallyWithoutReencoding) {
  // Relay/re-propose chain: each hop decodes a received body and frames the
  // batch again. Every hop's output must be byte-identical to the first and
  // the command region must never be serialized again.
  const consensus::EncodedBatch origin{sample_batch(8)};
  const SpliceStats base = splice_stats();

  const Bytes first = encode_body(core::DeliverBatchHandoff{3, 0, origin});
  ByteView prev = ByteView::owning(Bytes(first));
  consensus::EncodedBatch last = origin;
  for (int hop = 0; hop < 5; ++hop) {
    const core::DeliverBatchHandoff received = decode_body<core::DeliverBatchHandoff>(prev);
    EXPECT_EQ(received.batch.payload().owner(), prev.owner()) << "hop " << hop << " copied";
    last = received.batch;
    prev = ByteView::owning(encode_body(core::DeliverBatchHandoff{3, 0, received.batch}));
    EXPECT_TRUE(prev == ByteView::borrowed(first)) << "hop " << hop << " changed the bytes";
  }
  EXPECT_EQ(last.commands(), origin.commands());

  // One payload copy per framing (the first and five re-framings), none
  // per decode.
  const SpliceStats& now = splice_stats();
  EXPECT_EQ(now.batch_encodes, base.batch_encodes) << "a hop re-encoded the batch";
  EXPECT_EQ(now.batch_bytes_copied - base.batch_bytes_copied, 6 * origin.payload_size());
}

TEST(ZeroCopySubFrame, DecodedBatchSharesTheReceivedFrameBuffer) {
  // Receive path: a peer reads the frame into one contiguous owned buffer
  // (the socket read). Decoding must hand the batch payload back as a view
  // into that buffer — the same bytes, not a copy.
  const consensus::EncodedBatch batch{sample_batch(6, 48)};
  const std::string header = core::kSmrDeliverBatchHeader;
  const OwnedBytes frame = std::make_shared<const Bytes>(
      encode_frame(header, encode_body(core::DeliverBatchHandoff{4, 0, batch})));

  const SpliceStats base = splice_stats();
  FrameView view;
  ASSERT_EQ(decode_frame(*frame, view), FrameStatus::kOk);
  EXPECT_EQ(view.header, header);

  BytesReader r(ByteView(frame, kFrameOverhead + header.size(), view.body.size()));
  const core::DeliverBatchHandoff decoded = Codec<core::DeliverBatchHandoff>::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded.batch, batch);

  const ByteView& payload = decoded.batch.payload();
  EXPECT_EQ(payload.owner(), frame) << "payload must share the received buffer";
  EXPECT_EQ(payload.data(), frame->data() + deliver_payload_offset(header));
  EXPECT_EQ(payload.size(), batch.payload_size());

  const SpliceStats& now = splice_stats();
  EXPECT_EQ(now.batch_encodes, base.batch_encodes);
  EXPECT_EQ(now.batch_bytes_copied, base.batch_bytes_copied) << "receiving copies nothing";
}

TEST(ZeroCopySubFrame, FlippedByteInsideTheSplicedSubFrameFailsTheChecksum) {
  // Corruption inside the batch sub-frame is indistinguishable from any
  // other payload damage: the frame checksum covers the sub-frame bytes, so
  // a single flipped bit anywhere in the batch payload kills the frame.
  const consensus::EncodedBatch batch{sample_batch(4, 100)};
  const std::string header = core::kSmrDeliverBatchHeader;
  const Bytes pristine =
      encode_frame(header, encode_body(core::DeliverBatchHandoff{2, 7, batch}));

  const std::size_t payload_offset = deliver_payload_offset(header);
  const std::size_t payload_len = batch.payload_size();
  ASSERT_EQ(payload_offset + payload_len, pristine.size())
      << "offset math out of sync with the deliver codec";

  FrameView ok;
  ASSERT_EQ(decode_frame(pristine, ok), FrameStatus::kOk);

  const std::size_t positions[] = {payload_offset, payload_offset + payload_len / 2,
                                   payload_offset + payload_len - 1};
  for (const std::size_t pos : positions) {
    Bytes corrupted = pristine;
    corrupted[pos] ^= 0x01;
    FrameView view;
    EXPECT_EQ(decode_frame(corrupted, view), FrameStatus::kChecksumMismatch)
        << "flip at offset " << pos << " survived";
  }
}

TEST(ZeroCopySubFrame, CorruptedSubFrameIsDroppedAndTracedAsMsgDrop) {
  // End-to-end: seeded single-byte corruption on a link whose frames are
  // ~99% batch payload. Every flip lands in (or near) the sub-frame, every
  // frame dies on the checksum, and every death is traced as msg_drop.
  sim::World world(21);
  obs::Tracer tracer({.capacity = 1 << 12, .record_messages = false});
  tracer.attach(world);
  world.set_wire_fidelity(true);
  const NodeId a = world.add_node("a");
  const NodeId b = world.add_node("b");
  std::uint64_t delivered = 0;
  world.set_handler(b, [&](net::NodeContext&, const sim::Message&) { ++delivered; });
  world.set_link_fault(a, b, {.corrupt_prob = 1.0, .truncate_prob = 0.0});

  const SpliceStats base = splice_stats();
  std::uint64_t payload_bytes = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    consensus::Batch one;
    one.push_back(consensus::Command{ClientId{3}, i + 1, std::string(4096, 'z')});
    const consensus::EncodedBatch batch{std::move(one)};
    payload_bytes += batch.payload_size();
    world.post(a, b,
               sim::make_msg(core::kSmrDeliverBatchHeader, core::DeliverBatchHandoff{i, i, batch}));
  }
  world.run_until(10000000);

  EXPECT_EQ(delivered, 0u) << "corrupted frames must never deliver";
  EXPECT_EQ(world.frames_faulted(), 10u);
  EXPECT_EQ(world.wire_drops(), 10u);
  // Each frame copied its payload once when it was built; the fault model
  // damages a private copy of the frame, and nothing reached a decoder.
  EXPECT_EQ(splice_stats().batch_bytes_copied - base.batch_bytes_copied, payload_bytes);

  std::uint64_t drops = 0;
  std::uint64_t checksum_drops = 0;
  for (const obs::TraceEvent& e : tracer.snapshot().events) {
    if (e.kind != obs::EventKind::kMsgDrop) continue;
    ++drops;
    if (e.c == static_cast<std::uint64_t>(FrameStatus::kChecksumMismatch)) ++checksum_drops;
  }
  EXPECT_EQ(drops, 10u) << "every wire drop must appear in the trace";
  // A flip can land in the 24-byte prologue and report kBadMagic/kTruncated
  // instead; with the payload dominating the frame that is the rare case.
  EXPECT_GE(checksum_drops, 8u);
}

}  // namespace
}  // namespace shadow::wire
