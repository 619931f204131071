// ShadowDB — every synthetic client-id space, declared in one place.
//
// Control commands travel through the TOB under synthetic client ids, so the
// per-client dedup windows never confuse them with real clients' requests or
// with each other. Real clients use ids below kControlClientBit. Every space
// at or above it is ordered by SMR groups, whose pipelined delivery path
// spots control commands in a decided batch by that one comparison.
#pragma once

#include <cstdint>
#include <iterator>

namespace shadow::core {

inline constexpr std::uint32_t kControlClientBit = 0x40000000u;  // SMR reconfig: + node id
// Range migration (core/migrate.hpp): | migration id, or | ready node id.
inline constexpr std::uint32_t kMigAdminClientBit = 0x44000000u;   // admin → all TOBs
inline constexpr std::uint32_t kMigCommitClientBit = 0x45000000u;  // to-replicas → all TOBs
inline constexpr std::uint32_t kMigReadyClientBit = 0x46000000u;   // to-replica → own TOB
inline constexpr std::uint32_t kMigIdMask = 0x000FFFFFu;
/// PBR/chain reconfiguration proposals (core/recovery.hpp): + node id.
inline constexpr std::uint32_t kReplReconfigClientBase = 0x50000000u;
/// SMR rejoin requests: + node id, with a caller-supplied seq unique per
/// restart incarnation (wall-clock µs in the real cluster).
inline constexpr std::uint32_t kRejoinClientBit = 0x54000000u;
/// Read-only transactions (core/rosnap.hpp): never TOB-ordered, but marked
/// so traces classify RO traffic without payload inspection.
inline constexpr std::uint32_t kRoBeginBit = 0x58000000u;
// Cross-shard 2PC (core/twopc.hpp): | the originating client id (sharded
// deployments require real client ids < 2^20); votes also carry the voting
// group above it.
inline constexpr std::uint32_t kXsBeginBit = 0x60000000u;    // client → coordinator TOB
inline constexpr std::uint32_t kXsPrepareBit = 0x68000000u;  // coordinator → participant TOBs
inline constexpr std::uint32_t kXsVoteBit = 0x70000000u;     // participant → coordinator TOB
inline constexpr std::uint32_t kXsDecideBit = 0x78000000u;   // coordinator → participant TOBs
inline constexpr std::uint32_t kXsClientMask = 0x000FFFFFu;
inline constexpr std::uint32_t kXsVoteGroupShift = 20;

namespace client_ids {

/// Every space as [base, base + width), ascending. Node, migration and real
/// client ids fit the low 20 bits.
inline constexpr std::uint32_t kSpaces[][2] = {
    {kControlClientBit, 1u << 20},       {kMigAdminClientBit, 1u << 20},
    {kMigCommitClientBit, 1u << 20},     {kMigReadyClientBit, 1u << 20},
    {kReplReconfigClientBase, 1u << 20}, {kRejoinClientBit, 1u << 20},
    {kRoBeginBit, 1u << 20},             {kXsBeginBit, 1u << 20},
    {kXsPrepareBit, 1u << 20},           {kXsVoteBit, kXsDecideBit - kXsVoteBit},
    {kXsDecideBit, 1u << 20},
};

constexpr bool ascending_and_disjoint() {
  for (std::size_t i = 1; i < std::size(kSpaces); ++i) {
    if (kSpaces[i - 1][0] + kSpaces[i - 1][1] > kSpaces[i][0]) return false;
  }
  return true;
}

static_assert(ascending_and_disjoint(), "synthetic client-id spaces must be pairwise disjoint");
static_assert(kSpaces[0][0] == kControlClientBit,
              "every control space must lie at or above kControlClientBit");

}  // namespace client_ids

}  // namespace shadow::core
