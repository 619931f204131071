// Shared types for the consensus modules and the total order broadcast
// service: commands, batches (one batch is decided per consensus instance /
// slot), Paxos ballots, and the EncodedBatch sub-frame that lets a batch be
// serialized exactly once per lifetime.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "wire/codec.hpp"

namespace shadow::consensus {

/// One client message to be totally ordered. `payload` is opaque to the
/// broadcast service (ShadowDB puts serialized transactions in it).
struct Command {
  ClientId client{};
  RequestSeq seq = 0;
  std::string payload;

  auto operator<=>(const Command&) const = default;
};

/// The decoded form of a decided value: a batch of commands (the paper's
/// batching — "multiple messages can be bundled in one Paxos proposal").
using Batch = std::vector<Command>;

/// A Paxos ballot: totally ordered, tied to the leader that owns it.
struct Ballot {
  std::uint64_t round = 0;
  NodeId leader{};

  auto operator<=>(const Ballot&) const = default;
};

inline std::string to_string(const Ballot& b) {
  return "(" + std::to_string(b.round) + "," + to_string(b.leader) + ")";
}

inline std::string to_string(const Command& c) {
  return to_string(c.client) + "#" + std::to_string(c.seq);
}

inline std::string to_string(const Batch& b) {
  std::string s = "[";
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i > 0) s += " ";
    s += to_string(b[i]);
  }
  return s + "]";
}

}  // namespace shadow::consensus

namespace shadow::wire {

template <>
struct Codec<consensus::Command>
    : Fields<&consensus::Command::client, &consensus::Command::seq,
             &consensus::Command::payload> {};

template <>
struct Codec<consensus::Ballot> : Fields<&consensus::Ballot::round, &consensus::Ballot::leader> {};

}  // namespace shadow::wire

namespace shadow::consensus {

/// A batch serialized exactly once, travelling thereafter as an immutable,
/// ref-counted encoded sub-frame. Every carrier of a batch (Paxos propose /
/// 2a / 1b re-proposals / decisions, TwoThird votes, tob relay and deliver)
/// holds one of these: framing a received batch again copies its encoded
/// bytes into the new frame instead of re-encoding the commands, and the
/// decoded commands are materialized on demand (memoized — a decode, never a
/// second encode).
///
/// The payload is the command region only; the count travels alongside it
/// (the sub-frame wire form is `[count u32][payload_len u32][payload]`), so
/// size() never has to touch the bytes. Content equality and ordering are by
/// payload bytes: the codec is deterministic, so byte equality is command
/// equality, and the byte order gives TwoThird's vote-frequency map a total
/// order without decoding anything.
class EncodedBatch {
 public:
  /// The empty batch (no rep, no bytes).
  EncodedBatch() = default;

  /// THE one encode of a batch's lifetime: serializes the commands into a
  /// fresh shared buffer and caches the decoded form. Counted in
  /// splice_stats().batch_encodes.
  explicit EncodedBatch(Batch commands) {
    if (commands.empty()) return;
    BytesWriter w;
    for (const Command& c : commands) wire::Codec<Command>::encode(w, c);
    ++splice_stats().batch_encodes;
    auto rep = std::make_shared<Rep>();
    rep->count = static_cast<std::uint32_t>(commands.size());
    rep->payload = ByteView::owning(w.take());
    rep->commands = std::move(commands);
    rep_ = std::move(rep);
  }

  /// Wraps an already-encoded command region (a received sub-frame or a
  /// BatchBuilder result). Not an encode: the bytes already exist.
  static EncodedBatch from_wire(std::uint32_t count, ByteView payload) {
    EncodedBatch b;
    if (count == 0) {
      SHADOW_CHECK_MSG(payload.empty(), "empty batch with non-empty payload");
      return b;
    }
    SHADOW_CHECK_MSG(!payload.empty(), "non-empty batch with empty payload");
    auto rep = std::make_shared<Rep>();
    rep->count = count;
    rep->payload = std::move(payload);
    b.rep_ = std::move(rep);
    return b;
  }

  std::uint32_t size() const { return rep_ ? rep_->count : 0; }
  bool empty() const { return rep_ == nullptr; }

  /// The encoded command region (no count prefix), shared by reference.
  const ByteView& payload() const {
    static const ByteView kEmpty;
    return rep_ ? rep_->payload : kEmpty;
  }
  std::size_t payload_size() const { return rep_ ? rep_->payload.size() : 0; }

  /// The decoded commands, memoized on first use. (Mutation of the memo
  /// through a shared rep is safe: handlers run on single-threaded event
  /// loops, and the decode is idempotent. When a batch is about to cross a
  /// pipeline thread boundary, the sending thread must call commands() once
  /// BEFORE publishing — decode-before-publish — so the receiving thread
  /// only ever reads the memo; the core::ExecutorPipeline does exactly
  /// that, and the SPSC ring's mutex hand-off publishes the write.)
  const Batch& commands() const {
    static const Batch kEmpty;
    if (!rep_) return kEmpty;
    if (!rep_->commands.has_value()) {
      BytesReader r(rep_->payload);
      Batch out;
      // Do not trust the count for the allocation (it may have arrived off
      // the wire); commands consume at least one byte each, so truncation
      // throws before OOM.
      out.reserve(std::min<std::size_t>(rep_->count, rep_->payload.size()));
      for (std::uint32_t i = 0; i < rep_->count; ++i) {
        out.push_back(wire::Codec<Command>::decode(r));
      }
      SHADOW_CHECK_MSG(r.done(), "trailing bytes after batch payload decode");
      rep_->commands = std::move(out);
    }
    return *rep_->commands;
  }

  bool operator==(const EncodedBatch& other) const { return payload() == other.payload(); }
  std::strong_ordering operator<=>(const EncodedBatch& other) const {
    return payload() <=> other.payload();
  }

 private:
  struct Rep {
    std::uint32_t count = 0;
    ByteView payload;
    mutable std::optional<Batch> commands;  // memoized decode
  };
  std::shared_ptr<const Rep> rep_;
};

/// Merges pre-encoded batches and fresh commands into one EncodedBatch:
/// pre-encoded inputs are copied in as bytes (counted in batch_bytes_copied,
/// never re-encoded), fresh commands are serialized once (counted as a
/// single encode per build). This is how tob's leader folds relayed
/// sub-frames and local commands into one proposal.
class BatchBuilder {
 public:
  void add(const Command& cmd) {
    wire::Codec<Command>::encode(w_, cmd);
    ++count_;
    fresh_ = true;
  }

  void add(const EncodedBatch& batch) {
    if (batch.empty()) return;
    w_.raw(batch.payload().span());
    splice_stats().batch_bytes_copied += batch.payload_size();
    count_ += batch.size();
  }

  bool empty() const { return count_ == 0; }
  std::uint32_t size() const { return count_; }

  EncodedBatch build() {
    if (fresh_) ++splice_stats().batch_encodes;
    return EncodedBatch::from_wire(count_, ByteView::owning(w_.take()));
  }

 private:
  BytesWriter w_;
  std::uint32_t count_ = 0;
  bool fresh_ = false;
};

/// A pvalue (PMMC): the triple an acceptor accepts.
struct PValue {
  Ballot ballot;
  Slot slot = 0;
  EncodedBatch batch;
};

inline std::string to_string(const EncodedBatch& b) {
  return to_string(b.commands());
}

}  // namespace shadow::consensus

namespace shadow::wire {

/// The sub-frame protocol: `[count u32][payload_len u32][payload bytes]`.
/// Encoding copies the already-encoded payload into the frame (counted in
/// batch_bytes_copied; the commands are never serialized again); decoding
/// takes the payload as a view sharing the received frame's buffer, so the
/// batch can be framed again later — relay, re-propose, deliver — without
/// ever re-encoding.
template <>
struct Codec<consensus::EncodedBatch> {
  static void encode(BytesWriter& w, const consensus::EncodedBatch& v) {
    w.u32(v.size());
    w.u32(static_cast<std::uint32_t>(v.payload_size()));
    w.raw(v.payload().span());
    splice_stats().batch_bytes_copied += v.payload_size();
  }
  static consensus::EncodedBatch decode(BytesReader& r) {
    const std::uint32_t count = r.u32();
    const std::uint32_t len = r.u32();
    return consensus::EncodedBatch::from_wire(count, r.take_view(len));
  }
};

template <>
struct Codec<consensus::PValue>
    : Fields<&consensus::PValue::ballot, &consensus::PValue::slot, &consensus::PValue::batch> {};

}  // namespace shadow::wire
