// Lock-free read-only transactions over the MVCC-lite versioned store.
//
// Read-only procedures (ShardRouter::ProcInfo::read_only) never enter a
// group's TOB log and never touch db::LockManager. The client is the RO
// coordinator:
//
//   single-shard  the client sends one `ro-read` (version 0 = "current")
//                 straight to a replica of the owning group; the replica
//                 serves it at its own applied position via Engine::read_at.
//
//   cross-shard   the client first runs a lightweight `ro-snap` exchange —
//                 one request per participant group — collecting each
//                 group's applied position S_g, its GC floor, its prepared-
//                 but-undecided 2PC set and a bounded ring of recent 2PC
//                 decisions. From the responses it picks the version vector
//                 {S_g} and *detects torn cuts*: a committed cross-shard
//                 transaction visible at one group (decide_pos <= S_g) but
//                 not guaranteed at another participant (still prepared
//                 there, or decided above that group's S_h) forces a re-snap
//                 of the lagging group. Once the cut is consistent the
//                 client fans out `ro-read`s pinned at exactly S_g per
//                 group; replicas serve them from the version chains without
//                 any locking.
//
// Soundness of the detect-and-retry rule: a 2PC decision is applied at a
// group only after that group delivered the prepare, so at any participant
// a transaction is (in log order) absent, then prepared, then decided. The
// snap carries three views of that progression — the prepared set, a
// bounded ring of recent decides (with their apply positions), and a
// per-client decided high-water map (`last_decided`). A decide missing from
// a group's ring is therefore never ambiguous: if the client's high-water
// covers its seq it was applied before the snap (merely evicted from the
// ring); if not, it has not reached that group at all — a stalled or
// failed-over log — and using the snap would tear the cut, so the client
// re-snaps that group until the decide lands.
//
// Replica-side errors are retryable classifications, not failures:
//   "ro-joining"  the replica is (re)joining and refuses service;
//   "ro-lagging"  the replica has not applied up to the requested version /
//                 the client's read-your-writes floor — rotate or retry;
//   "ro-stale"    the requested version fell below the replica's GC floor —
//                 the client re-snaps for a fresh cut;
//   "ro-moved"    forwarding hops exhausted mid-migration — restart;
//   "ro-split"    a group's share spans both local and migrated keys
//                 (impossible for the bundled workloads; defensive).
//
// Range migration: the donor group serves versioned reads pinned BELOW a
// committed flip from its version chains (the flip captured the donated
// rows' pre-images when it deleted them); reads at or above the flip — and
// "current" reads — forward to the owner (RangeMigrator::ro_forward_target).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/client_ids.hpp"
#include "core/replica_common.hpp"
#include "core/router.hpp"
#include "net/transport.hpp"

namespace shadow::obs {
class Tracer;
}

namespace shadow::core {

class XsCoordinator;  // core/twopc.hpp
class RangeMigrator;  // core/migrate.hpp

inline constexpr const char* kRoSnapHeader = "ro-snap";
inline constexpr const char* kRoSnapRespHeader = "ro-snap-resp";
inline constexpr const char* kRoReadHeader = "ro-read";
inline constexpr const char* kRoReadRespHeader = "ro-read-resp";

/// A read forwarded donor → owner → ... across committed migrations gives up
/// after this many hops and answers "ro-moved" (the client restarts).
inline constexpr std::uint32_t kRoMaxForwardHops = 4;

/// Client → replica: report your group's snapshot coordinates.
struct RoSnapBody {
  std::uint32_t client = 0;  // kRoBeginBit | (real client & kXsClientMask)
  std::uint64_t seq = 0;
  GroupId group = 0;  // participant group this snap addresses
};

/// Replica → client: applied position + in-doubt 2PC state.
struct RoSnapRespBody {
  struct Decide {
    std::uint32_t client = 0;
    std::uint64_t seq = 0;
    std::uint64_t decide_pos = 0;
    std::uint8_t committed = 0;
    std::vector<std::uint32_t> participants;
  };
  GroupId group = 0;
  std::uint64_t seq = 0;       // echoes RoSnapBody::seq
  std::uint64_t position = 0;  // replica's applied position (engine state version)
  std::uint64_t floor = 0;     // oldest version still reconstructible (GC floor)
  std::uint8_t serving = 0;    // 0: (re)joining, pick another replica
  std::vector<std::pair<std::uint32_t, std::uint64_t>> prepared;  // in-doubt (client, seq)
  std::vector<Decide> decides;                                    // bounded ring, newest last
  /// Per xs client, the highest seq this group has APPLIED a decision for —
  /// the discriminator between "evicted from the bounded ring long ago"
  /// (last_decided covers the seq: included) and "has not reached this
  /// group's log yet" (it does not: the cut would tear, re-snap).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> last_decided;
};

/// Client → replica (or donor → owner when forwarded): execute the read-only
/// request's share for `group` at `version` (0 = the replica's current).
struct RoReadBody {
  workload::TxnRequest req;   // client field carries the kRoBeginBit wire id
  std::uint64_t version = 0;  // pinned read version; 0 = current
  std::uint64_t floor = 0;    // client's session floor (read-your-writes)
  GroupId group = 0;          // the participant group the client addressed
  std::uint32_t hops = 0;     // migration-forwarding hop count
};

/// Replica → client: the share's rows (or a retryable classification).
struct RoReadRespBody {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  GroupId group = 0;         // echoes RoReadBody::group (client matches on it)
  GroupId served_group = 0;  // the group that actually served (forwarding)
  std::uint64_t version = 0; // version the read executed at
  std::uint8_t ok = 0;
  std::string error;
  std::vector<db::Row> rows;
};

/// Per-replica server side of the RO protocol, owned by an SmrReplica in a
/// sharded deployment. Both handlers drain the executor pipeline before
/// touching the engine (the engine belongs to the executor thread until the
/// pipeline is quiescent), then read snapshots/version chains without locks.
class RoServer {
 public:
  struct Hooks {
    /// active && !joining && !rejoining on the owning replica.
    std::function<bool()> serving;
    /// Drains the owning replica's executor pipeline (no-op when serial).
    std::function<void()> flush;
    obs::Tracer* tracer = nullptr;
    ServerCosts costs;
  };

  RoServer(NodeId self, GroupId group, const RoutingView& view, TxnExecutor& executor,
           const XsCoordinator* xs, const RangeMigrator* mig, Hooks hooks);

  /// Node-addressed RO traffic. Returns true if consumed.
  bool on_message(net::NodeContext& ctx, const net::Message& msg);

 private:
  void serve_snap(net::NodeContext& ctx, const RoSnapBody& body, NodeId from);
  void serve_read(net::NodeContext& ctx, const RoReadBody& body);
  void answer_error(net::NodeContext& ctx, const RoReadBody& body, const char* error);
  void count(const char* metric) const;

  NodeId self_;
  GroupId group_;
  const RoutingView& view_;
  TxnExecutor& executor_;
  const XsCoordinator* xs_;
  const RangeMigrator* mig_;
  Hooks hooks_;
};

}  // namespace shadow::core

namespace shadow::wire {

template <>
struct Codec<core::RoSnapBody>
    : Fields<&core::RoSnapBody::client, &core::RoSnapBody::seq, &core::RoSnapBody::group> {};

template <>
struct Codec<core::RoSnapRespBody::Decide>
    : Fields<&core::RoSnapRespBody::Decide::client, &core::RoSnapRespBody::Decide::seq,
             &core::RoSnapRespBody::Decide::decide_pos, &core::RoSnapRespBody::Decide::committed,
             &core::RoSnapRespBody::Decide::participants> {};

template <>
struct Codec<core::RoSnapRespBody>
    : Fields<&core::RoSnapRespBody::group, &core::RoSnapRespBody::seq,
             &core::RoSnapRespBody::position, &core::RoSnapRespBody::floor,
             &core::RoSnapRespBody::serving, &core::RoSnapRespBody::prepared,
             &core::RoSnapRespBody::decides, &core::RoSnapRespBody::last_decided> {};

template <>
struct Codec<core::RoReadBody>
    : Fields<&core::RoReadBody::req, &core::RoReadBody::version, &core::RoReadBody::floor,
             &core::RoReadBody::group, &core::RoReadBody::hops> {};

template <>
struct Codec<core::RoReadRespBody>
    : Fields<&core::RoReadRespBody::client, &core::RoReadRespBody::seq,
             &core::RoReadRespBody::group, &core::RoReadRespBody::served_group,
             &core::RoReadRespBody::version, &core::RoReadRespBody::ok,
             &core::RoReadRespBody::error, &core::RoReadRespBody::rows> {};

}  // namespace shadow::wire
