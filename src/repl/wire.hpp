// The state-transfer wire codec.
//
// Every ShadowDB replication protocol ships database state as the same
// stream: one `begin` (schemas + dedup floor + protocol bookkeeping + the
// sender's state version), N row batches, protocol riders, one `done`
// (totals + resume bookkeeping + frame count). This header defines those
// bodies once (SnapBegin2Body / SnapBatch2Body / SnapDelete2Body /
// SnapDone2Body): each row batch carries a flags byte (block-compressed
// payload, delta-upsert semantics), incremental (delta) streams additionally
// ship per-table deletion lists, and the epilogue carries a frame count so a
// receiver can tell a complete stream from one with checksum-dropped frames.
// SMR rejoin and spare promotion, PBR and chain recovery, and shard-range
// migration all use it; the layout is pinned by
// tests/repl/state_transfer_test.cpp.
//
// Layering: repl/ sees common/, wire/ and db/ only — never sim/, net/tcp,
// consensus/ or tob/ (enforced by scripts/check.sh).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "db/engine.hpp"
#include "db/wire.hpp"

namespace shadow::repl {

/// Stream mode announced by the prologue.
enum class TransferMode : std::uint8_t {
  kFull = 0,   // receiver resets and rebuilds from the batches
  kDelta = 1,  // receiver keeps its state and applies upserts + deletes
};

/// SnapBatch2Body.flags bits.
inline constexpr std::uint8_t kBatchCompressed = 1;   // payload is an LZSS block
inline constexpr std::uint8_t kBatchDeltaUpsert = 2;  // rows overwrite on key clash

/// Stream prologue: the protocol's bookkeeping (configuration, represented
/// order, dedup table), the schemas of a full stream, and the stream's own
/// fields. `tag` disambiguates concurrent streams sharing one header (0 for
/// rejoin; the migration id for shard rebalancing). `state_version` is the
/// sender's engine version at serialization — the receiver's new delta
/// floor, and the base a future delta can be requested against.
struct SnapBegin2Body {
  ConfigSeq config = 0;
  std::vector<db::TableSchema> schemas;
  std::vector<std::pair<std::uint32_t, RequestSeq>> dedup_seqs;
  std::uint64_t order = 0;  // executed-order the snapshot represents
  std::uint8_t mode = 0;    // TransferMode
  std::uint64_t state_version = 0;
  std::uint64_t tag = 0;
};

/// One ~50 KB row batch: `raw_len` bytes of serialized rows, possibly compressed.
struct SnapBatch2Body {
  std::string table;
  std::uint8_t flags = 0;
  std::uint32_t raw_len = 0;  // payload length before compression
  std::uint64_t rows = 0;
  Bytes payload;
  std::uint64_t tag = 0;
};

/// Delta deletions for one table (keys removed since the receiver's base).
struct SnapDelete2Body {
  std::string table;
  std::vector<db::Key> keys;
  std::uint64_t tag = 0;
};

/// Stream epilogue: the row total and, for SMR crash-restart rejoin, the TOB
/// resume point — the first slot the joiner must deliver itself, the global
/// delivery index of that slot, and the exact keys of control commands
/// (reconfig/rejoin) the snapshot covers; control clients use fresh ids per
/// incarnation, so the per-client dedup floor cannot cover them. Zeroed
/// resume fields (PBR, chain, spare promotion) mean "no TOB resume".
/// `frames` counts the batch + delete messages of the stream so the receiver
/// can detect checksum-dropped frames and re-request.
struct SnapDone2Body {
  ConfigSeq config = 0;
  std::uint64_t rows = 0;
  std::uint64_t resume_slot = 0;
  std::uint64_t resume_index = 0;  // delivery index of resume_slot's first command
  std::vector<std::pair<std::uint32_t, std::uint64_t>> control_keys;
  std::uint64_t frames = 0;
  std::uint64_t tag = 0;
};

}  // namespace shadow::repl

namespace shadow::wire {

template <>
struct Codec<repl::SnapBegin2Body>
    : Fields<&repl::SnapBegin2Body::config, &repl::SnapBegin2Body::schemas,
             &repl::SnapBegin2Body::dedup_seqs, &repl::SnapBegin2Body::order,
             &repl::SnapBegin2Body::mode, &repl::SnapBegin2Body::state_version,
             &repl::SnapBegin2Body::tag> {};

template <>
struct Codec<repl::SnapBatch2Body>
    : Fields<&repl::SnapBatch2Body::table, &repl::SnapBatch2Body::flags,
             &repl::SnapBatch2Body::raw_len, &repl::SnapBatch2Body::rows,
             &repl::SnapBatch2Body::payload, &repl::SnapBatch2Body::tag> {};

template <>
struct Codec<repl::SnapDelete2Body>
    : Fields<&repl::SnapDelete2Body::table, &repl::SnapDelete2Body::keys,
             &repl::SnapDelete2Body::tag> {};

template <>
struct Codec<repl::SnapDone2Body>
    : Fields<&repl::SnapDone2Body::config, &repl::SnapDone2Body::rows,
             &repl::SnapDone2Body::resume_slot, &repl::SnapDone2Body::resume_index,
             &repl::SnapDone2Body::control_keys, &repl::SnapDone2Body::frames,
             &repl::SnapDone2Body::tag> {};

}  // namespace shadow::wire
