// Table I — statistics on specification, verification and code generation.
//
// The paper reports, per module (CLK, TwoThird Consensus, Paxos-Synod,
// Broadcast Service): EventML spec size, generated LoE spec and GPM program
// sizes (in Nuprl AST nodes), optimized GPM size, correctness-property
// statement size, and how many lemmas were proved automatically vs manually.
//
// Our reproduction measures what the substituted toolchain actually
// produces (DESIGN.md §2):
//   * CLK is a real embedded-DSL specification: we print its measured AST
//     node counts before/after the optimizer and its abstract work weights
//     (the analogue of generated-program size).
//   * TwoThird / Paxos-Synod / Broadcast are native GPM components whose
//     per-message work model is anchored to the paper's published GPM sizes;
//     we print those anchors alongside the number of machine-checked
//     properties (the analogue of proved lemmas) and how they are checked
//     (automatic on every run vs. scenario-driven property tests).
#include <cstdio>

#include "common/bench_util.hpp"
#include "consensus/exec_profile.hpp"
#include "eventml/optimizer.hpp"
#include "eventml/specs/clk.hpp"
#include "eventml/specs/two_third.hpp"

int main() {
  using namespace shadow;
  bench::print_header(
      "Table I — specification / verification / code-generation statistics",
      "paper: CLK 79N spec, 590N LoE, 452N GPM, 249N opt, 1A/3M lemmas; TwoThird 646N, "
      "1343N GPM, 8A/6M; Paxos-Synod 1729N, 2625N GPM, 24A/75M; Broadcast 820N, 1352N GPM, "
      "0A/22M");

  // -- CLK: measured from the embedded DSL -----------------------------------
  {
    eventml::Spec spec = eventml::specs::make_clk_spec(
        {{NodeId{0}},
         [](NodeId, const eventml::ValuePtr& v) { return std::make_pair(v, NodeId{0}); }});
    const eventml::OptimizeResult opt = eventml::optimize(spec.main);
    std::printf("\nCLK (measured from the embedded EventML DSL):\n");
    std::printf("  %-38s %llu nodes (paper EventML AST: 79)\n", "specification size",
                static_cast<unsigned long long>(opt.before.total_nodes));
    std::printf("  %-38s %llu work units (paper GPM: 452N)\n", "generated program weight",
                static_cast<unsigned long long>(opt.before.total_weight));
    std::printf("  %-38s %llu distinct nodes, %llu work units (paper opt GPM: 249N)\n",
                "optimized program",
                static_cast<unsigned long long>(opt.after.distinct_nodes),
                static_cast<unsigned long long>(opt.after.total_weight));
    std::printf("  %-38s %zu (progress strict_inc; Clock Condition)\n",
                "correctness properties", spec.properties.size());
    std::printf("  %-38s checked on every recorded execution (paper: 1 auto / 3 manual "
                "lemmas)\n", "verification mode");
  }

  // -- TwoThird: also measured from the embedded DSL ---------------------------
  {
    std::vector<NodeId> locs{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
    eventml::Spec spec = eventml::specs::make_two_third_spec({locs});
    const eventml::OptimizeResult opt = eventml::optimize(spec.main);
    std::printf("\nTwoThird Consensus (measured from the embedded EventML DSL):\n");
    std::printf("  %-38s %llu nodes (paper EventML AST: 646)\n", "specification size",
                static_cast<unsigned long long>(opt.before.total_nodes));
    std::printf("  %-38s %llu work units (paper GPM: 1343N)\n", "generated program weight",
                static_cast<unsigned long long>(opt.before.total_weight));
    std::printf("  %-38s %llu distinct nodes, %llu work units\n", "optimized program",
                static_cast<unsigned long long>(opt.after.distinct_nodes),
                static_cast<unsigned long long>(opt.after.total_weight));
    std::printf("  %-38s %zu (agreement, validity, integrity, round progress)\n",
                "correctness properties", spec.properties.size());
    std::printf("  %-38s checked per execution + seeded crash sweeps (paper: 8A/6M)\n",
                "verification mode");
  }

  // -- the generated-code components ------------------------------------------
  struct ComponentRow {
    const char* name;
    unsigned paper_eventml;
    unsigned long long program_work;
    unsigned paper_auto;
    unsigned paper_manual;
    const char* properties;
  };
  const ComponentRow rows[] = {
      {"TwoThird Consensus (multi-instance, native GPM)", 646,
       consensus::kTwoThirdProgramWork, 8, 6,
       "agreement, validity, integrity (offline trace checker, every traced run) + "
       "seeded crash-schedule sweeps"},
      {"Paxos-Synod", 1729, consensus::kSynodProgramWork, 24, 75,
       "agreement, validity, integrity, promise monotonicity, accept-above-"
       "promise, chosen-value stability + failover property tests"},
      {"Broadcast Service", 820, consensus::kBroadcastProgramWork, 0, 22,
       "total order (prefix consistency), no-creation, no-duplication, "
       "delivery-vs-ack agreement"},
  };
  for (const ComponentRow& row : rows) {
    std::printf("\n%s (work model anchored to the paper's published GPM size):\n", row.name);
    std::printf("  %-38s %u nodes (paper)\n", "EventML specification", row.paper_eventml);
    std::printf("  %-38s %llu work units per message walk\n", "GPM program size anchor",
                row.program_work);
    std::printf("  %-38s %llu work units (x%.2f)\n", "optimized program",
                static_cast<unsigned long long>(
                    static_cast<double>(row.program_work) *
                    consensus::kOptimizedWorkFraction),
                consensus::kOptimizedWorkFraction);
    std::printf("  %-38s %u automatic / %u manual (paper)\n", "lemmas", row.paper_auto,
                row.paper_manual);
    std::printf("  machine-checked here: %s\n", row.properties);
  }

  std::printf("\nNote: this repository replaces Nuprl proofs with machine-checked runtime\n"
              "verification (DESIGN.md §2); \"lemma\" counts cannot be reproduced, so the\n"
              "paper's numbers are shown as reference and our property inventory beside\n"
              "them. The development-effort columns (hours/days/weeks) are not\n"
              "reproducible artifacts.\n");
  return 0;
}
