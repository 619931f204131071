// The EventML → GPM compiler.
//
// As in the paper, the compiler *is* the semantics: it maps an event-class
// specification to, for each location in `locs`, a GPM process (halt for
// locations outside the system, exactly like the optimized program in
// Fig. 7). Each process step feeds the message to the location's Instance,
// turns directive outputs into sends, and reports the interpreter's work
// count for the tier cost model.
#pragma once

#include <functional>
#include <vector>

#include "eventml/instance.hpp"
#include "eventml/spec.hpp"
#include "gpm/process.hpp"

namespace shadow::eventml {

/// Observes non-directive outputs of the main class (test/diagnostic hook).
using OutputTap = std::function<void(NodeId, const ValuePtr&)>;

/// Builds the distributed-system generator `main spec.main @ locs`.
gpm::SystemGenerator compile_to_gpm(const Spec& spec, std::vector<NodeId> locs,
                                    InterpreterKind interp = InterpreterKind::kRecursive,
                                    OutputTap tap = {});

/// Builds a DSL message (body is a ValuePtr; wire size derived from it).
net::Message make_dsl_msg(const std::string& header, ValuePtr body);

}  // namespace shadow::eventml
