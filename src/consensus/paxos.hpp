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
//
// Bounded state: the stable prefix. Each node's TOB reports its delivery
// frontier (set_delivered). Every p2b carries the acceptor's frontier; the
// leader keeps the maximum it has heard per peer (its own frontier for
// itself, 0 for a peer it never heard from) and stamps the minimum over all
// peers on every decision as `stable`. Each node keeps the largest `stable`
// it has seen and forgets learned values and accepted pvalues below
// floor = min(stable, own frontier). Why that is safe:
//   * a slot below `stable` has been delivered by every peer, so every
//     possible future leader has learned it (or skipped it by a rejoin
//     snapshot). A node never proposes a slot below its own frontier — such
//     a slot counts as learned at every learned-check — so no future leader
//     proposes it, and no scout needs its pvalues: every pvalue a scout can
//     still need is at or above every acceptor's floor, and a p1b carries
//     exactly those;
//   * a px-propose or a stale px-p2a below the floor is dropped without a
//     vote (never a p2b for a pvalue that was not accepted), and a late
//     decision below the floor is ignored, so nothing below it comes back;
//   * a dead or partitioned peer holds `stable` back: memory grows during
//     the outage, as if nothing were pruned, and is released once the peer
//     catches up (it can, because nothing it still needs was forgotten);
//   * a restarted (amnesiac) incarnation reports a low frontier, which never
//     lowers `stable`: the leader keeps the per-peer maximum, and the
//     restarted node resumes from a snapshot at or past that maximum.
// The agreement and accept-at-or-above-promise invariants are unchanged:
// pruning only drops messages, and dropping messages is always safe.
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
  Slot delivered = 0;       // the acceptor's delivery frontier
};
struct DecisionBody {
  Slot slot = 0;
  EncodedBatch batch;
  Slot stable = 0;          // every peer has delivered every slot below this
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

  void set_delivered(Slot next) override;

  /// True while this node believes it owns the active ballot.
  bool is_active_leader() const { return leader_.active; }
  const Ballot& current_ballot() const { return leader_.ballot; }

  /// Slots still held in memory: learned values plus accepted pvalues.
  std::size_t retained_slots() const { return learned_.size() + acceptor_.accepted.size(); }
  /// Everything below this slot has been forgotten.
  Slot floor() const { return floor_; }

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
  /// Learned here, or below the local delivery frontier (delivered, pruned,
  /// or covered by a rejoin snapshot): never to be proposed again.
  bool settled(Slot slot) const { return slot < delivered_ || learned_.count(slot) > 0; }
  /// The minimum delivery frontier over all peers, as far as this leader knows.
  Slot stable_frontier() const;
  /// Forgets everything below min(stable_, delivered_).
  void prune();
  std::size_t quorum() const { return config_.peers.size() / 2 + 1; }

  NodeId self_;
  PaxosConfig config_;
  SafetyRecorder* safety_;
  Acceptor acceptor_;
  Leader leader_;
  std::map<Slot, EncodedBatch> learned_;
  Slot delivered_ = 0;                 // own delivery frontier (set_delivered)
  Slot stable_ = 0;                    // largest `stable` seen on a decision
  Slot floor_ = 0;                     // everything below is forgotten
  std::vector<Slot> peer_delivered_;   // leader: max frontier heard, per peer index
  std::uint64_t max_round_seen_ = 0;
  net::Time last_progress_ = 0;
  net::Time pending_since_ = 0;  // when the oldest currently-pending work arrived
  net::Time last_scout_attempt_ = 0;
};

}  // namespace shadow::consensus

namespace shadow::wire {

template <>
struct Codec<consensus::P1aBody> : Fields<&consensus::P1aBody::ballot> {};

template <>
struct Codec<consensus::P1bBody>
    : Fields<&consensus::P1bBody::scout_ballot, &consensus::P1bBody::promised,
             &consensus::P1bBody::accepted> {};

template <>
struct Codec<consensus::P2aBody> : Fields<&consensus::P2aBody::pvalue> {};

template <>
struct Codec<consensus::P2bBody>
    : Fields<&consensus::P2bBody::commander_ballot, &consensus::P2bBody::promised,
             &consensus::P2bBody::slot, &consensus::P2bBody::delivered> {};

template <>
struct Codec<consensus::DecisionBody>
    : Fields<&consensus::DecisionBody::slot, &consensus::DecisionBody::batch,
             &consensus::DecisionBody::stable> {};

template <>
struct Codec<consensus::ProposeBody>
    : Fields<&consensus::ProposeBody::slot, &consensus::ProposeBody::batch> {};

}  // namespace shadow::wire
