// ShadowDB — the heartbeat failure detector every replica owns (SmrReplica,
// and the RecoveryCore PBR and chain replication share). The owner keeps its
// heartbeat header, its tick timer, what counts as a liveness signal and its
// reconfiguration proposal; the detector keeps the per-peer last-heard
// times, sends the heartbeats and runs the suspicion scan. Range migration
// reads the SMR replica's view through live().
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "net/message.hpp"
#include "net/transport.hpp"

namespace shadow::core {

class HeartbeatDetector {
 public:
  HeartbeatDetector(NodeId self, const char* header, net::Time suspect_timeout)
      : self_(self), header_(header), suspect_timeout_(suspect_timeout) {}

  void heard(NodeId peer, net::Time now) { last_heard_[peer.value] = now; }

  /// A heartbeat to every other member, then the suspicion scan: the members
  /// silent for a suspicion interval not yet handed out in `epoch`. A member
  /// never heard from starts its clock now.
  std::vector<NodeId> tick(net::NodeContext& ctx, const std::vector<NodeId>& members,
                           std::uint64_t epoch) {
    for (NodeId member : members) {
      if (member != self_) ctx.send(member, net::make_signal(header_));
    }
    std::vector<NodeId> suspects;
    for (NodeId member : members) {
      if (member == self_) continue;
      const net::Time heard = last_heard_.try_emplace(member.value, ctx.now()).first->second;
      if (ctx.now() - heard >= suspect_timeout_ &&
          suspected_.insert((epoch << 32) | member.value).second) {
        suspects.push_back(member);
      }
    }
    return suspects;
  }

  /// Heard from within a suspicion interval; a peer never heard from (no
  /// tick ran yet) counts as live, so whoever waits on it waits.
  bool live(NodeId peer, net::Time now) const {
    const auto it = last_heard_.find(peer.value);
    return peer == self_ || it == last_heard_.end() || now - it->second < suspect_timeout_;
  }

 private:
  NodeId self_;
  const char* header_;
  net::Time suspect_timeout_;
  std::map<std::uint32_t, net::Time> last_heard_;
  std::set<std::uint64_t> suspected_;  // (epoch, member) pairs handed out
};

}  // namespace shadow::core
