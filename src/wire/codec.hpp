// The Codec<T> trait: exact byte-level encoding for every message body.
//
// Each message-bearing struct in the stack specializes Codec<T> with a pair
// of static functions `encode(BytesWriter&, const T&)` and
// `decode(BytesReader&) -> T`. The simulator's `make_msg` uses the codec to
// compute the *exact* encoded length (no more sizeof-based estimates), the
// network's wire-fidelity mode uses it to prove every message round-trips
// through real bytes, and the byte-level fault injector corrupts the encoded
// frames the codec produces.
//
// Specializations for primitives and common containers live here; protocol
// layers specialize Codec for their own structs next to the struct
// definitions (consensus/types.hpp, tob/tob.hpp, core/replica_common.hpp,
// workload/messages.hpp, db/wire.hpp). This header depends only on common.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/ids.hpp"

namespace shadow::wire {

/// Primary template: undefined. Specialize for every type that travels as a
/// message body (or as a field of one).
template <typename T>
struct Codec;

/// Satisfied by types with a Codec specialization of the right shape.
template <typename T>
concept Encodable = requires(BytesWriter& w, BytesReader& r, const T& v) {
  { Codec<T>::encode(w, v) } -> std::same_as<void>;
  { Codec<T>::decode(r) } -> std::same_as<T>;
};

// ----------------------------------------------------------- primitives ----

/// Integrals travel as fixed 8-byte little-endian words: simplicity and
/// byte-identical re-encoding beat compactness in a simulator.
template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
struct Codec<T> {
  static void encode(BytesWriter& w, const T& v) {
    if constexpr (std::is_signed_v<T>) {
      w.i64(static_cast<std::int64_t>(v));
    } else {
      w.u64(static_cast<std::uint64_t>(v));
    }
  }
  static T decode(BytesReader& r) {
    if constexpr (std::is_signed_v<T>) return static_cast<T>(r.i64());
    return static_cast<T>(r.u64());
  }
};

template <>
struct Codec<bool> {
  static void encode(BytesWriter& w, const bool& v) { w.u8(v ? 1 : 0); }
  static bool decode(BytesReader& r) { return r.u8() != 0; }
};

template <>
struct Codec<double> {
  static void encode(BytesWriter& w, const double& v) { w.f64(v); }
  static double decode(BytesReader& r) { return r.f64(); }
};

template <typename T>
  requires std::is_enum_v<T>
struct Codec<T> {
  static void encode(BytesWriter& w, const T& v) {
    w.u8(static_cast<std::uint8_t>(v));
  }
  static T decode(BytesReader& r) { return static_cast<T>(r.u8()); }
};

template <>
struct Codec<std::string> {
  static void encode(BytesWriter& w, const std::string& v) { w.str(v); }
  static std::string decode(BytesReader& r) { return r.str(); }
};

template <>
struct Codec<NodeId> {
  static void encode(BytesWriter& w, const NodeId& v) { w.u32(v.value); }
  static NodeId decode(BytesReader& r) { return NodeId{r.u32()}; }
};

template <>
struct Codec<ClientId> {
  static void encode(BytesWriter& w, const ClientId& v) { w.u32(v.value); }
  static ClientId decode(BytesReader& r) { return ClientId{r.u32()}; }
};

// ----------------------------------------------------------- containers ----

/// Raw byte blobs (snapshot chunks) keep their natural length-prefixed form.
template <>
struct Codec<Bytes> {
  static void encode(BytesWriter& w, const Bytes& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    w.raw(v);
  }
  static Bytes decode(BytesReader& r) {
    const std::uint32_t n = r.u32();
    Bytes out;
    out.reserve(std::min<std::size_t>(n, r.remaining()));
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u8());
    return out;
  }
};

template <Encodable T>
struct Codec<std::vector<T>> {
  static void encode(BytesWriter& w, const std::vector<T>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) Codec<T>::encode(w, e);
  }
  static std::vector<T> decode(BytesReader& r) {
    const std::uint32_t n = r.u32();
    std::vector<T> out;
    // Do not trust a (possibly corrupted) count for the allocation; elements
    // consume at least one byte each, so truncation throws before OOM.
    out.reserve(std::min<std::size_t>(n, r.remaining()));
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(Codec<T>::decode(r));
    return out;
  }
};

template <Encodable A, Encodable B>
struct Codec<std::pair<A, B>> {
  static void encode(BytesWriter& w, const std::pair<A, B>& v) {
    Codec<A>::encode(w, v.first);
    Codec<B>::encode(w, v.second);
  }
  static std::pair<A, B> decode(BytesReader& r) {
    A a = Codec<A>::decode(r);
    B b = Codec<B>::decode(r);
    return {std::move(a), std::move(b)};
  }
};

template <Encodable T>
struct Codec<std::optional<T>> {
  static void encode(BytesWriter& w, const std::optional<T>& v) {
    w.u8(v.has_value() ? 1 : 0);
    if (v.has_value()) Codec<T>::encode(w, *v);
  }
  static std::optional<T> decode(BytesReader& r) {
    if (r.u8() == 0) return std::nullopt;
    return Codec<T>::decode(r);
  }
};

// -------------------------------------------------------------- helpers ----

/// Encodes a body to a fresh byte buffer.
template <Encodable T>
Bytes encode_body(const T& v) {
  BytesWriter w;
  Codec<T>::encode(w, v);
  return w.take();
}

/// Decodes a body, requiring the buffer to be consumed exactly. When `data`
/// is owned (a received frame), decoded batch payloads share its buffer, so
/// a batch decoded here can be framed again later without re-encoding.
template <Encodable T>
T decode_body(ByteView data) {
  BytesReader r(std::move(data));
  T v = Codec<T>::decode(r);
  SHADOW_CHECK_MSG(r.done(), "trailing bytes after body decode");
  return v;
}

/// Exact encoded body length. One implementation (encode and measure), so
/// sizes can never drift from the encoder.
template <Encodable T>
std::size_t body_size(const T& v) {
  BytesWriter w;
  Codec<T>::encode(w, v);
  return w.size();
}

}  // namespace shadow::wire
