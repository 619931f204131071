// Constructive specifications: a named main event class plus the formal
// correctness properties stated about it (the paper's `progress ...`
// declarations and Nuprl lemmas). Properties are represented as named,
// machine-checkable entries; the checkers live in loe/properties.hpp and in
// the offline trace checker (obs/checker.hpp).
#pragma once

#include <string>
#include <vector>

#include "eventml/class_expr.hpp"

namespace shadow::eventml {

enum class PropertyKind : std::uint8_t {
  kProgress,  // local state strictly increases (paper's `progress` keyword)
  kSafety,    // global invariant over the event ordering
};

struct PropertySpec {
  PropertyKind kind;
  std::string name;
  std::string statement;  // human-readable formal statement
};

/// A constructive specification: runnable and reasoned-about.
struct Spec {
  std::string name;
  ClassPtr main;
  std::vector<PropertySpec> properties;

  AstStats stats() const { return ast_stats(main); }
};

}  // namespace shadow::eventml
