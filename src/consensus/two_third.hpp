// TwoThird consensus — the paper's leaderless, round-based, fully symmetric
// consensus protocol, based on the One-Third-Rule algorithm of the Heard-Of
// model (Charron-Bost & Schiper). Tolerates f < n/3 crash failures.
//
// Per round every process sends its estimate to all. When a process has
// received estimates from more than 2n/3 processes in its current round it
//   - decides v if more than 2n/3 of *all* processes sent v, and
//   - otherwise adopts the smallest most-frequently-received value and
//     advances to the next round.
// Decisions are broadcast so lagging processes learn them, and a decided
// process answers later-round votes with the decision.
//
// Safety (agreement, validity, integrity) is checked on every execution by
// the SafetyRecorder; the original deadlock the authors found by inspection
// (Sec. II-D) is covered by the liveness tests in tests/consensus.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "consensus/module.hpp"

namespace shadow::obs {
class Tracer;
}  // namespace shadow::obs

namespace shadow::consensus {

/// TwoThird message headers.
inline constexpr const char* kVoteHeader = "2/3-vote";
inline constexpr const char* kTwoThirdDecideHeader = "2/3-decide";

/// TwoThird message bodies.
struct VoteBody {
  Slot slot = 0;
  std::uint64_t round = 0;
  EncodedBatch batch;
};
struct DecideBody {
  Slot slot = 0;
  EncodedBatch batch;
};

struct TwoThirdConfig {
  std::vector<NodeId> peers;  // all participants; needs |peers| > 3f
  ExecProfile profile{.program_work = kTwoThirdProgramWork};
  net::Time round_timeout = 20000;  // 20 ms retransmission period
  obs::Tracer* tracer = nullptr;    // optional structured trace recorder
};

class TwoThirdModule final : public ConsensusModule {
 public:
  TwoThirdModule(NodeId self, TwoThirdConfig config, SafetyRecorder* safety = nullptr);

  void propose(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) override;
  bool on_message(net::NodeContext& ctx, const net::Message& msg) override;
  void on_tick(net::NodeContext& ctx) override;

  /// The number of crash failures the configuration tolerates.
  std::size_t tolerated_failures() const { return (config_.peers.size() - 1) / 3; }

 private:
  struct Instance {
    std::uint64_t round = 0;
    std::optional<EncodedBatch> estimate;
    // votes[round][peer index] = batch (in encoded sub-frame form: adopting
    // or re-voting a received estimate frames the original bytes)
    std::map<std::uint64_t, std::map<std::uint32_t, EncodedBatch>> votes;
    std::optional<EncodedBatch> decision;
    net::Time last_sent = 0;
  };

  void send_vote(net::NodeContext& ctx, Slot slot, Instance& inst);
  void try_advance(net::NodeContext& ctx, Slot slot, Instance& inst);
  void decide(net::NodeContext& ctx, Slot slot, Instance& inst, const EncodedBatch& value);
  std::size_t threshold() const {  // strictly more than 2n/3
    return 2 * config_.peers.size() / 3 + 1;
  }

  NodeId self_;
  TwoThirdConfig config_;
  SafetyRecorder* safety_;
  std::map<Slot, Instance> instances_;
};

}  // namespace shadow::consensus

namespace shadow::wire {

template <>
struct Codec<consensus::VoteBody>
    : Fields<&consensus::VoteBody::slot, &consensus::VoteBody::round,
             &consensus::VoteBody::batch> {};

template <>
struct Codec<consensus::DecideBody>
    : Fields<&consensus::DecideBody::slot, &consensus::DecideBody::batch> {};

}  // namespace shadow::wire
