// The Codec<T> trait: exact byte-level encoding for every message body.
//
// A type travels on the wire through `Codec<T>::encode(BytesWriter&, const
// T&)` and `Codec<T>::decode(BytesReader&) -> T`. The simulator's `make_msg`
// uses the codec to compute the *exact* encoded length (no more sizeof-based
// estimates), the network's wire-fidelity mode uses it to prove every
// message round-trips through real bytes, and the byte-level fault injector
// corrupts the encoded frames the codec produces.
//
// Only the primitives and containers below are written by hand (plus
// db::Value in db/wire.hpp and consensus::EncodedBatch in
// consensus/types.hpp, whose codecs carry real logic). A message body
// states its layout once, as the ordered list of its fields:
//
//   template <>
//   struct Codec<Ballot> : Fields<&Ballot::round, &Ballot::leader> {};
//
// and `Fields` derives both directions from that one list. Width rule: an
// integral *field* travels at its declared width (u8/u32/u64; a signed
// field as its two's complement); an integral *container element* travels
// through Codec<integral> as an 8-byte word; everything else (bool, enums,
// NodeId, ClientId, strings, nested bodies, containers) through its Codec.
// The layout is byte-pinned by tests/wire/codec_roundtrip_test.cpp.
//
// Protocol layers specialize Codec for their own structs next to the struct
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

// --------------------------------------------------------- field lists ----

/// One struct field's wire form. An integral field travels at its declared
/// width; every other field type through its Codec.
template <typename F>
struct FieldCodec : Codec<F> {};

template <typename F>
  requires(std::is_integral_v<F> && !std::is_same_v<F, bool>)
struct FieldCodec<F> {
  static_assert(sizeof(F) == 1 || sizeof(F) == 4 || sizeof(F) == 8,
                "integral fields are 1, 4 or 8 bytes wide");

  static void encode(BytesWriter& w, const F& v) {
    if constexpr (sizeof(F) == 1) {
      w.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(F) == 4) {
      w.u32(static_cast<std::uint32_t>(v));
    } else {
      w.u64(static_cast<std::uint64_t>(v));
    }
  }
  static F decode(BytesReader& r) {
    if constexpr (sizeof(F) == 1) {
      return static_cast<F>(r.u8());
    } else if constexpr (sizeof(F) == 4) {
      return static_cast<F>(r.u32());
    } else {
      return static_cast<F>(r.u64());
    }
  }
};

template <typename P>
struct MemberPointer;

template <typename C, typename M>
struct MemberPointer<M C::*> {
  using Class = C;
  using Type = M;
};

/// A body's codec as the ordered list of its fields: encode writes them in
/// list order, decode reads them back in the same order. The list is the
/// body's whole wire layout; a field left out does not travel.
template <auto First, auto... Rest>
struct Fields {
  using T = typename MemberPointer<decltype(First)>::Class;

  static void encode(BytesWriter& w, const T& v) {
    encode_field<First>(w, v);
    (encode_field<Rest>(w, v), ...);
  }
  static T decode(BytesReader& r) {
    T v{};
    decode_field<First>(r, v);
    (decode_field<Rest>(r, v), ...);
    return v;
  }

 private:
  template <auto Member>
  using FieldOf = FieldCodec<typename MemberPointer<decltype(Member)>::Type>;

  template <auto Member>
  static void encode_field(BytesWriter& w, const T& v) {
    FieldOf<Member>::encode(w, v.*Member);
  }
  template <auto Member>
  static void decode_field(BytesReader& r, T& v) {
    v.*Member = FieldOf<Member>::decode(r);
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
