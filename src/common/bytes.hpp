// Byte-oriented serialization and the shared immutable buffer type.
//
// ShadowDB's state transfer protocol ships database snapshots as batches of
// serialized rows (~50 KB per batch in the paper). BytesWriter/BytesReader
// implement a compact little-endian wire format used by every message body,
// by snapshots, and by message-size accounting in the simulator.
//
// Ownership: a message is one contiguous OwnedBytes buffer (its whole wire
// frame). A ByteView is an owner plus a span into it; BytesReader hands
// sub-ranges of an owned input back out as views that share the buffer, so
// a decoded consensus batch keeps pointing into the frame it arrived in.
// Batches are encoded exactly once (consensus::EncodedBatch); framing one
// copies its already-encoded bytes, and splice_stats() counts both.
#pragma once

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace shadow {

using Bytes = std::vector<std::uint8_t>;

/// Shared immutable byte buffer: one message frame, or one encoded batch.
/// Everyone holding a view keeps the buffer alive; nobody can mutate it.
using OwnedBytes = std::shared_ptr<const Bytes>;

/// Process-wide counters for the batch payload path (exposed to metrics as
/// net.batch_encode_count / net.batch_bytes_copied). The counters are atomic
/// because a pipelined node encodes on the consensus thread while decode-side
/// accounting can run on the I/O or executor thread; copies (for
/// baselining/diffing) take relaxed snapshots.
struct SpliceStats {
  /// Command-region serializations: how often batch commands were encoded
  /// from their structured form. The encode-once invariant is one per batch
  /// lifetime, no matter how many hops/re-proposals/relays the batch takes.
  std::atomic<std::uint64_t> batch_encodes{0};
  /// Bytes of already-encoded batch content copied into another buffer:
  /// every frame that carries a batch copies its command region once, and a
  /// proposal that folds in relayed batches copies theirs.
  std::atomic<std::uint64_t> batch_bytes_copied{0};

  SpliceStats() = default;
  SpliceStats(const SpliceStats& other)
      : batch_encodes(other.batch_encodes.load(std::memory_order_relaxed)),
        batch_bytes_copied(other.batch_bytes_copied.load(std::memory_order_relaxed)) {}
  SpliceStats& operator=(const SpliceStats& other) {
    batch_encodes.store(other.batch_encodes.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    batch_bytes_copied.store(other.batch_bytes_copied.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    return *this;
  }

  void reset() { *this = SpliceStats{}; }
};

inline SpliceStats& splice_stats() {
  static SpliceStats stats;
  return stats;
}

/// An immutable view of a byte range: an owner plus a span. Owned views
/// share an OwnedBytes buffer and may outlive their creator; borrowed views
/// (made from a raw span) are only valid while the underlying storage is.
/// Views compare by content, byte-lexicographically.
class ByteView {
 public:
  ByteView() = default;

  ByteView(OwnedBytes buffer, std::size_t offset, std::size_t len) : owner_(std::move(buffer)) {
    SHADOW_REQUIRE(owner_ != nullptr && offset + len <= owner_->size());
    span_ = std::span<const std::uint8_t>(*owner_).subspan(offset, len);
  }

  static ByteView borrowed(std::span<const std::uint8_t> data) {
    ByteView v;
    v.span_ = data;
    return v;
  }

  static ByteView owning(Bytes&& bytes) {
    auto owner = std::make_shared<const Bytes>(std::move(bytes));
    const std::size_t n = owner->size();
    return ByteView(std::move(owner), 0, n);
  }

  std::span<const std::uint8_t> span() const { return span_; }
  const std::uint8_t* data() const { return span_.data(); }
  std::size_t size() const { return span_.size(); }
  bool empty() const { return span_.empty(); }
  /// Whether this view keeps its buffer alive (false: borrowed).
  bool owned() const { return owner_ != nullptr; }
  const OwnedBytes& owner() const { return owner_; }

  /// A sub-view sharing the same buffer (no copy).
  ByteView subview(std::size_t offset, std::size_t len) const {
    SHADOW_REQUIRE(offset + len <= size());
    ByteView v;
    v.owner_ = owner_;
    v.span_ = span_.subspan(offset, len);
    return v;
  }

  friend std::strong_ordering operator<=>(const ByteView& a, const ByteView& b) {
    const std::size_t common = std::min(a.size(), b.size());
    const int c = common == 0 ? 0 : std::memcmp(a.data(), b.data(), common);
    if (c != 0) return c < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    return a.size() <=> b.size();
  }
  friend bool operator==(const ByteView& a, const ByteView& b) {
    return a.size() == b.size() && (a <=> b) == std::strong_ordering::equal;
  }

 private:
  OwnedBytes owner_;  // null for borrowed views
  std::span<const std::uint8_t> span_;
};

/// Appends primitive values to one growing byte buffer.
class BytesWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return buf_.size(); }
  Bytes take() { return std::move(buf_); }
  const Bytes& peek() const { return buf_; }

 private:
  Bytes buf_;
};

/// Reads primitive values back from one span; throws InvariantViolation on
/// truncation. A reader over an owned view hands out sub-views that share
/// its buffer (take_view).
class BytesReader {
 public:
  explicit BytesReader(std::span<const std::uint8_t> data) : src_(ByteView::borrowed(data)) {}
  explicit BytesReader(ByteView view) : src_(std::move(view)) {}

  std::uint8_t u8() {
    need(1);
    return src_.data()[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    const std::uint8_t* p = cursor();
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    const std::uint8_t* p = cursor();
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (n == 0) return {};
    need(n);
    std::string s(reinterpret_cast<const char*>(cursor()), n);
    pos_ += n;
    return s;
  }

  /// Takes the next `n` bytes as a view. Over owned input the view shares
  /// the source buffer; borrowed input (a raw span) is copied into an owned
  /// buffer so the result can outlive the caller's storage, and that copy is
  /// counted in splice_stats().batch_bytes_copied.
  ByteView take_view(std::size_t n) {
    need(n);
    ByteView out;
    if (src_.owned()) {
      out = src_.subview(pos_, n);
    } else {
      splice_stats().batch_bytes_copied += n;
      out = ByteView::owning(Bytes(cursor(), cursor() + n));
    }
    pos_ += n;
    return out;
  }

  bool done() const { return pos_ == src_.size(); }
  std::size_t remaining() const { return src_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    SHADOW_CHECK_MSG(n <= remaining(), "truncated byte buffer");
  }

  const std::uint8_t* cursor() const { return src_.data() + pos_; }

  ByteView src_;
  std::size_t pos_ = 0;
};

}  // namespace shadow
