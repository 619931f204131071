// Header → codec registry.
//
// `make_msg` registers each (header, body type) pair the first time the
// header is used; the simulator's wire-fidelity path and fault injector then
// encode/decode bodies by header alone, type-erased. Re-registering the same
// header with the same type is a no-op; with a *different* type it trips a
// check — one header, one body shape, everywhere in the stack. The same body
// type may be registered under many headers (PBR and chain replication share
// message shapes under distinct headers).
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "wire/codec.hpp"

namespace shadow::wire {

class Registry {
 public:
  using EncodeFn = std::function<Bytes(const std::any&)>;
  using DecodeFn = std::function<std::shared_ptr<const std::any>(ByteView)>;

  /// Registers the codec for `header` (idempotent per type).
  template <Encodable T>
  void ensure(const std::string& header) {
    auto it = entries_.find(header);
    if (it != entries_.end()) {
      SHADOW_CHECK_MSG(it->second.type == std::type_index(typeid(T)),
                       "header '" + header + "' already registered with a different body type");
      return;
    }
    Entry entry{
        std::type_index(typeid(T)),
        [](const std::any& body) {
          const T* v = std::any_cast<T>(&body);
          SHADOW_CHECK_MSG(v != nullptr, "body type does not match its header's codec");
          return encode_body(*v);
        },
        [](ByteView data) {
          return std::make_shared<const std::any>(decode_body<T>(std::move(data)));
        },
    };
    entries_.emplace(header, std::move(entry));
  }

  bool contains(const std::string& header) const { return entries_.count(header) > 0; }

  /// Encodes a type-erased body registered under `header`.
  Bytes encode(const std::string& header, const std::any& body) const;

  /// Decodes body bytes into a fresh type-erased body. Batch payloads inside
  /// the decoded body share the buffer behind `data` when it is owned.
  std::shared_ptr<const std::any> decode(const std::string& header, ByteView data) const;

  /// All registered headers, sorted (for the round-trip test suite).
  std::vector<std::string> headers() const;

 private:
  struct Entry {
    std::type_index type;
    EncodeFn encode;
    DecodeFn decode;
  };
  std::unordered_map<std::string, Entry> entries_;
};

/// The process-wide registry `make_msg` populates.
Registry& registry();

}  // namespace shadow::wire
