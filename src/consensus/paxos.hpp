// Multi-decree Paxos Synod, after "Paxos Made Moderately Complex" (the
// paper's reference [20] — the informal specification its EventML Synod was
// developed from).
//
// Every participant co-locates three roles, exactly as the paper deploys the
// broadcast service on three machines:
//   acceptor   — promise/accept state, the only durable state of the synod;
//   leader     — owns a ballot; runs one scout (phase 1) and per-slot
//                commanders (phase 2); activates on adoption, deactivates on
//                preemption;
//   learner    — collects decisions and surfaces them via notify_decide.
//
// Safety hooks feed the SafetyRecorder: promise monotonicity (the invariant
// whose violation was the Google Paxos disk-corruption bug discussed in
// Sec. II-D), accept-above-promise, agreement, validity and chosen-value
// stability are all machine-checked per execution.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/module.hpp"

namespace shadow::obs {
class Tracer;
}  // namespace shadow::obs

namespace shadow::consensus {

/// Synod message headers.
inline constexpr const char* kP1aHeader = "px-p1a";
inline constexpr const char* kP1bHeader = "px-p1b";
inline constexpr const char* kP2aHeader = "px-p2a";
inline constexpr const char* kP2bHeader = "px-p2b";
inline constexpr const char* kDecisionHeader = "px-decision";
inline constexpr const char* kProposeHeader = "px-propose";

/// Synod message bodies (public so the wire round-trip suite can cover them).
struct P1aBody {
  Ballot ballot;
};
struct P1bBody {
  Ballot scout_ballot;           // the ballot this p1b answers
  Ballot promised;               // acceptor's current promise
  std::vector<PValue> accepted;  // acceptor's accepted pvalues
};
struct P2aBody {
  PValue pvalue;
};
struct P2bBody {
  Ballot commander_ballot;  // the ballot this p2b answers
  Ballot promised;
  Slot slot = 0;
};
struct DecisionBody {
  Slot slot = 0;
  EncodedBatch batch;
};
struct ProposeBody {
  Slot slot = 0;
  EncodedBatch batch;
};

struct PaxosConfig {
  std::vector<NodeId> peers;  // the synod participants (majority quorums)
  // Batched commands only add a small scan per item to a synod message walk.
  ExecProfile profile{.program_work = kSynodProgramWork, .cmd_walk_fraction = 0.02};
  net::Time leader_timeout = 50000;   // 50 ms without progress → suspect leader
  net::Time scout_retry = 30000;      // backoff before re-running phase 1
  /// Silence period after which an in-flight scout's 1a / commander's 2a is
  /// re-sent to the acceptors not yet heard from. Acceptors are pure
  /// responders, so retransmission is idempotent; without it one dropped
  /// message (lossy link, crashed-then-silent peer) wedges the ballot.
  net::Time retransmit_timeout = 100000;
  obs::Tracer* tracer = nullptr;      // optional structured trace recorder
};

class PaxosModule final : public ConsensusModule {
 public:
  PaxosModule(NodeId self, PaxosConfig config, SafetyRecorder* safety = nullptr);

  void propose(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch) override;
  bool on_message(net::NodeContext& ctx, const net::Message& msg) override;
  void on_tick(net::NodeContext& ctx) override;

  /// The owner of the highest ballot this node has promised — the best
  /// guess at who can get values chosen without a ballot fight.
  std::optional<NodeId> proposer_hint() const override {
    if (leader_.active) return self_;
    if (acceptor_.promised.round == 0) return std::nullopt;  // no leader yet
    return acceptor_.promised.leader;
  }

  /// True while this node believes it owns the active ballot.
  bool is_active_leader() const { return leader_.active; }
  const Ballot& current_ballot() const { return leader_.ballot; }

 private:
  // -- acceptor role ----------------------------------------------------------
  struct Acceptor {
    Ballot promised;                 // highest ballot promised
    std::map<Slot, PValue> accepted; // highest accepted pvalue per slot
  };

  // -- leader role ------------------------------------------------------------
  struct Scout {
    Ballot ballot;
    std::set<std::uint32_t> waitfor;          // acceptors not yet heard from
    std::map<Slot, PValue> pvalues;           // pmax accumulator
    net::Time last_sent = 0;                  // for 1a retransmission
  };
  struct Commander {
    Ballot ballot;
    Slot slot = 0;
    EncodedBatch batch;  // the original encoded bytes, framed into every 2a
    std::set<std::uint32_t> waitfor;
    net::Time last_sent = 0;                  // for 2a retransmission
  };
  struct Leader {
    Ballot ballot;
    bool active = false;
    // Proposals keep the received sub-frame: a re-proposal after adoption
    // (leader change) frames the same bytes the old leader sent.
    std::map<Slot, EncodedBatch> proposals;
    std::optional<Scout> scout;
    std::map<Slot, Commander> commanders;  // one in-flight commander per slot
  };

  void start_scout(net::NodeContext& ctx);
  void start_commander(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch);
  void preempted(net::NodeContext& ctx, const Ballot& by);
  void learn(net::NodeContext& ctx, Slot slot, const EncodedBatch& batch);
  std::size_t quorum() const { return config_.peers.size() / 2 + 1; }

  NodeId self_;
  PaxosConfig config_;
  SafetyRecorder* safety_;
  Acceptor acceptor_;
  Leader leader_;
  std::map<Slot, EncodedBatch> learned_;
  std::uint64_t max_round_seen_ = 0;
  net::Time last_progress_ = 0;
  net::Time pending_since_ = 0;  // when the oldest currently-pending work arrived
  net::Time last_scout_attempt_ = 0;
};

}  // namespace shadow::consensus

namespace shadow::wire {

template <>
struct Codec<consensus::P1aBody> {
  static void encode(BytesWriter& w, const consensus::P1aBody& v) {
    Codec<consensus::Ballot>::encode(w, v.ballot);
  }
  static consensus::P1aBody decode(BytesReader& r) {
    return {Codec<consensus::Ballot>::decode(r)};
  }
};

template <>
struct Codec<consensus::P1bBody> {
  static void encode(BytesWriter& w, const consensus::P1bBody& v) {
    Codec<consensus::Ballot>::encode(w, v.scout_ballot);
    Codec<consensus::Ballot>::encode(w, v.promised);
    Codec<std::vector<consensus::PValue>>::encode(w, v.accepted);
  }
  static consensus::P1bBody decode(BytesReader& r) {
    consensus::P1bBody v;
    v.scout_ballot = Codec<consensus::Ballot>::decode(r);
    v.promised = Codec<consensus::Ballot>::decode(r);
    v.accepted = Codec<std::vector<consensus::PValue>>::decode(r);
    return v;
  }
};

template <>
struct Codec<consensus::P2aBody> {
  static void encode(BytesWriter& w, const consensus::P2aBody& v) {
    Codec<consensus::PValue>::encode(w, v.pvalue);
  }
  static consensus::P2aBody decode(BytesReader& r) {
    return {Codec<consensus::PValue>::decode(r)};
  }
};

template <>
struct Codec<consensus::P2bBody> {
  static void encode(BytesWriter& w, const consensus::P2bBody& v) {
    Codec<consensus::Ballot>::encode(w, v.commander_ballot);
    Codec<consensus::Ballot>::encode(w, v.promised);
    w.u64(v.slot);
  }
  static consensus::P2bBody decode(BytesReader& r) {
    consensus::P2bBody v;
    v.commander_ballot = Codec<consensus::Ballot>::decode(r);
    v.promised = Codec<consensus::Ballot>::decode(r);
    v.slot = r.u64();
    return v;
  }
};

template <>
struct Codec<consensus::DecisionBody> {
  static void encode(BytesWriter& w, const consensus::DecisionBody& v) {
    w.u64(v.slot);
    Codec<consensus::EncodedBatch>::encode(w, v.batch);
  }
  static consensus::DecisionBody decode(BytesReader& r) {
    consensus::DecisionBody v;
    v.slot = r.u64();
    v.batch = Codec<consensus::EncodedBatch>::decode(r);
    return v;
  }
};

template <>
struct Codec<consensus::ProposeBody> {
  static void encode(BytesWriter& w, const consensus::ProposeBody& v) {
    w.u64(v.slot);
    Codec<consensus::EncodedBatch>::encode(w, v.batch);
  }
  static consensus::ProposeBody decode(BytesReader& r) {
    consensus::ProposeBody v;
    v.slot = r.u64();
    v.batch = Codec<consensus::EncodedBatch>::decode(r);
    return v;
  }
};

}  // namespace shadow::wire
