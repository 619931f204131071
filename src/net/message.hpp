// Messages exchanged by ShadowDB processes, transport-independent.
//
// A message carries an EventML-style string header (base classes in the DSL
// pattern-match on it), a type-erased immutable body, and a wire size used
// by the simulator's bandwidth model and the TCP transport's byte
// accounting. For bodies with a wire::Codec, the whole wire frame is written
// once, into one buffer, when the message is built; the wire size is its
// exact length, and either transport transmits, corrupts, and round-trips
// those bytes. A multicast shares the one frame across its destinations.
// Bodies without codecs (DSL values, test doubles) must state their wire
// size explicitly and cannot leave the process they were built in.
#pragma once

#include <any>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "wire/framing.hpp"
#include "wire/registry.hpp"

namespace shadow::net {

struct Message {
  std::string header;
  std::shared_ptr<const std::any> body;  // shared: messages are fanned out to many nodes
  std::size_t wire_size = 0;             // bytes on the wire (payload + framing)
  NodeId from{};
  std::uint64_t uid = 0;                 // per-transmission identity, assigned by the
                                         // network; lets LoE match sends to receives
  // The whole frame, [prologue][header][body] (codec-built and received
  // messages; null for explicit-size ones). Immutable and shared by every
  // copy of the message, so a multicast fan-out sends one buffer.
  OwnedBytes frame;

  bool has_body() const { return body != nullptr && body->has_value(); }

  /// The body bytes inside `frame`, sharing its buffer.
  ByteView body_bytes() const {
    SHADOW_CHECK_MSG(frame != nullptr, "message '" + header + "' has no frame");
    const std::size_t offset = wire::kFrameOverhead + header.size();
    return ByteView(frame, offset, frame->size() - offset);
  }
};

/// Builds a message from a codec-equipped body: registers the header's codec,
/// writes the whole frame once, and sets wire_size to its exact length.
template <typename T>
  requires wire::Encodable<std::decay_t<T>>
Message make_msg(std::string header, T&& body) {
  using Body = std::decay_t<T>;
  wire::registry().ensure<Body>(header);
  Message m;
  Body value = std::forward<T>(body);
  m.frame = std::make_shared<const Bytes>(
      wire::build_frame(header, [&](BytesWriter& w) { wire::Codec<Body>::encode(w, value); }));
  m.wire_size = m.frame->size();
  m.header = std::move(header);
  m.body = std::make_shared<const std::any>(std::move(value));
  return m;
}

/// Builds a message with an explicitly stated wire size, for bodies without
/// a codec (eventml DSL values, latency-model test doubles). The old default
/// estimate (`sizeof(T) + header + 24`) is gone: it badly undercounted
/// heap-owning bodies, so callers must either provide a codec or be honest.
template <typename T>
Message make_msg(std::string header, T body, std::size_t wire_size) {
  SHADOW_REQUIRE_MSG(wire_size > 0, "explicit wire size must be positive");
  Message m;
  m.wire_size = wire_size;
  m.header = std::move(header);
  m.body = std::make_shared<const std::any>(std::move(body));
  return m;
}

inline Message make_signal(std::string header) {
  Message m;
  m.frame = std::make_shared<const Bytes>(wire::encode_frame(header, {}));
  m.wire_size = m.frame->size();
  m.header = std::move(header);
  return m;
}

/// Returns the body as T; throws if the message has a different body type.
template <typename T>
const T& msg_body(const Message& m) {
  SHADOW_CHECK_MSG(m.has_body(), "message '" + m.header + "' has no body");
  const T* p = std::any_cast<T>(m.body.get());
  SHADOW_CHECK_MSG(p != nullptr, "message '" + m.header + "' body type mismatch");
  return *p;
}

/// Returns the body as T, or nullptr on type mismatch / missing body.
template <typename T>
const T* msg_body_if(const Message& m) {
  if (!m.has_body()) return nullptr;
  return std::any_cast<T>(m.body.get());
}

}  // namespace shadow::net
