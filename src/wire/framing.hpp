// Wire framing: [magic u32][version u32][header_len u32][body_len u32]
//               [checksum u64][header bytes][body bytes]
//
// The fixed 24-byte prologue is `kFrameOverhead` — the single source of the
// `+ 24` framing constant that used to be duplicated across `make_msg` and
// `make_signal`. The checksum is FNV-1a over header + body, so single-byte
// corruption and truncation injected by the simulator's fault model are
// detected at delivery and surfaced as message drops (corruption-as-loss).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace shadow::wire {

/// Fixed per-message framing bytes (magic + version + two lengths + checksum).
inline constexpr std::size_t kFrameOverhead = 24;

inline constexpr std::uint32_t kFrameMagic = 0x57424453;  // "SDBW", little-endian
inline constexpr std::uint32_t kFrameVersion = 1;

/// Total frame length for a header/body of the given sizes.
constexpr std::size_t frame_size(std::size_t header_len, std::size_t body_len) {
  return kFrameOverhead + header_len + body_len;
}

/// FNV-1a 64-bit over header bytes then body bytes.
std::uint64_t frame_checksum(std::string_view header, std::span<const std::uint8_t> body);

/// Fills in the prologue of `frame`, whose first kFrameOverhead bytes are
/// reserved and which continues with a header of `header_len` bytes and the
/// body: the lengths and the checksum are computed from what follows.
void seal_frame(Bytes& frame, std::size_t header_len);

/// Writes a complete frame in one buffer: `write_body(BytesWriter&)` appends
/// the body straight after the header, then the prologue is sealed. Message
/// construction encodes every body this way, straight into its frame rather
/// than into a separate body buffer first.
template <typename WriteBody>
Bytes build_frame(std::string_view header, WriteBody&& write_body) {
  static constexpr std::uint8_t kReserved[kFrameOverhead] = {};
  BytesWriter w;
  w.raw(kReserved);
  w.raw({reinterpret_cast<const std::uint8_t*>(header.data()), header.size()});
  write_body(w);
  Bytes frame = w.take();
  seal_frame(frame, header.size());
  return frame;
}

/// Serializes a complete frame around an already-encoded body.
Bytes encode_frame(std::string_view header, std::span<const std::uint8_t> body);

enum class FrameStatus : std::uint8_t {
  kOk = 0,
  kBadMagic = 1,          // prologue corrupted beyond recognition
  kTruncated = 2,         // frame shorter than its declared lengths
  kChecksumMismatch = 3,  // payload bytes corrupted
  kUnknownHeader = 4,     // valid frame, but no codec registered for its header
};

const char* to_string(FrameStatus status);

/// Parsed view into a valid frame (spans point into the caller's buffer).
struct FrameView {
  std::string_view header;
  std::span<const std::uint8_t> body;
};

/// Validates and splits a frame. On any status other than kOk the view is
/// unspecified and must not be used.
FrameStatus decode_frame(std::span<const std::uint8_t> frame, FrameView& out);

}  // namespace shadow::wire
