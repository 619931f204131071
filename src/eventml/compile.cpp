#include "eventml/compile.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "wire/framing.hpp"

namespace shadow::eventml {

net::Message make_dsl_msg(const std::string& header, ValuePtr body) {
  const std::size_t wire = wire::kFrameOverhead + header.size() + value_wire_size(body);
  return net::make_msg(header, std::move(body), wire);
}

namespace {

using TapPtr = std::shared_ptr<const OutputTap>;

gpm::StepResult step_instance(Instance instance, const TapPtr& tap, const net::Message& msg) {
  ValuePtr body = Value::unit();
  if (msg.has_body()) {
    if (const ValuePtr* v = net::msg_body_if<ValuePtr>(msg)) body = *v;
  }
  Instance::EventResult result = instance.on_event(msg.header, body);

  gpm::StepResult out;
  out.work = std::max<std::uint64_t>(result.work, 1);
  for (const ValuePtr& value : result.outputs) {
    if (value->is_directive()) {
      const Directive& d = value->as_directive();
      out.outputs.push_back(gpm::SendDirective{d.to, make_dsl_msg(d.header, d.body)});
    } else if (*tap) {
      (*tap)(instance.slf(), value);
    }
  }
  // The replacement process closes over the instance's post-event state —
  // the `R(s')` of the paper's optimized program in Fig. 7.
  out.next = gpm::Process::make(
      [instance = std::move(instance), tap](const gpm::Process&, const net::Message& m) {
        return step_instance(instance, tap, m);
      });
  return out;
}

}  // namespace

gpm::SystemGenerator compile_to_gpm(const Spec& spec, std::vector<NodeId> locs,
                                    InterpreterKind interp, OutputTap tap) {
  SHADOW_REQUIRE(spec.main != nullptr);
  auto shared_tap = std::make_shared<const OutputTap>(std::move(tap));
  ClassPtr main = spec.main;
  return [main, locs = std::move(locs), interp, shared_tap](NodeId slf) {
    // `if slf ∈ locs then R(initial state) else halt` (Fig. 7, lines 2–10).
    if (std::find(locs.begin(), locs.end(), slf) == locs.end()) return gpm::Process::halt();
    Instance instance(main, slf, interp);
    return gpm::Process::make([instance = std::move(instance), shared_tap](
                                  const gpm::Process&, const net::Message& m) {
      return step_instance(instance, shared_tap, m);
    });
  };
}

}  // namespace shadow::eventml
