#include "wire/framing.hpp"

#include <cstring>

#include "common/check.hpp"

namespace shadow::wire {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t frame_checksum(std::string_view header, std::span<const std::uint8_t> body) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, reinterpret_cast<const std::uint8_t*>(header.data()), header.size());
  h = fnv1a(h, body.data(), body.size());
  return h;
}

void seal_frame(Bytes& frame, std::size_t header_len) {
  SHADOW_REQUIRE(frame.size() >= kFrameOverhead + header_len);
  const std::span<const std::uint8_t> rest(frame.data() + kFrameOverhead,
                                           frame.size() - kFrameOverhead);
  const std::string_view header(reinterpret_cast<const char*>(rest.data()), header_len);
  const std::span<const std::uint8_t> body = rest.subspan(header_len);
  BytesWriter w;
  w.u32(kFrameMagic);
  w.u32(kFrameVersion);
  w.u32(static_cast<std::uint32_t>(header_len));
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u64(frame_checksum(header, body));
  std::memcpy(frame.data(), w.peek().data(), kFrameOverhead);
}

Bytes encode_frame(std::string_view header, std::span<const std::uint8_t> body) {
  return build_frame(header, [&](BytesWriter& w) { w.raw(body); });
}

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kBadMagic: return "bad_magic";
    case FrameStatus::kTruncated: return "truncated";
    case FrameStatus::kChecksumMismatch: return "checksum_mismatch";
    case FrameStatus::kUnknownHeader: return "unknown_header";
  }
  return "unknown";
}

FrameStatus decode_frame(std::span<const std::uint8_t> frame, FrameView& out) {
  if (frame.size() < kFrameOverhead) return FrameStatus::kTruncated;
  BytesReader r(frame);
  const std::uint32_t magic = r.u32();
  const std::uint32_t version = r.u32();
  if (magic != kFrameMagic || version != kFrameVersion) return FrameStatus::kBadMagic;
  const std::uint32_t header_len = r.u32();
  const std::uint32_t body_len = r.u32();
  const std::uint64_t checksum = r.u64();
  if (frame.size() != frame_size(header_len, body_len)) return FrameStatus::kTruncated;
  const std::string_view header(reinterpret_cast<const char*>(frame.data() + kFrameOverhead),
                                header_len);
  const std::span<const std::uint8_t> body = frame.subspan(kFrameOverhead + header_len, body_len);
  if (frame_checksum(header, body) != checksum) return FrameStatus::kChecksumMismatch;
  out = FrameView{header, body};
  return FrameStatus::kOk;
}

}  // namespace shadow::wire
