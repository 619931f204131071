#!/usr/bin/env bash
# Tier-1 verification plus strict-warnings builds and network-layer gates.
#
#   scripts/check.sh            # everything below
#   scripts/check.sh --fast     # tier-1 only (configure + build + ctest)
#
# Beyond tier-1 this runs:
#   * a -Wall -Wextra -Werror build of every target (libraries, tests,
#     benches, examples) in a separate build tree, so the whole tree stays
#     warning-clean;
#   * layering grep gates: protocol code (consensus, tob, core, baselines)
#     must program against net::Transport/net::NodeContext only — no
#     sim::Context and no sim/world.hpp includes — the consensus/TOB
#     layers must stay sharding-blind (no ShardRouter/GroupId) and
#     replication-blind (no repl/ includes), src/repl must never include
#     sim/ or net/tcp, the versioned storage engine (src/db) must
#     never include consensus/, tob/, or repl/ headers, state transfer
#     keeps a single stream format serialized by one engine cursor (no
#     materialized snapshot batch vector), each message stays one contiguous
#     buffer (no scatter-gather byte layer), and PBR and chain replication
#     keep one recovery core (no per-protocol recovery headers), one snapshot
#     fetch session and one heartbeat detector serve every joiner, the TOB
#     keeps no per-command delivery history, one helper builds the
#     consensus safety recorder, the engine keeps each row's last-touch
#     version on its storage entry (no per-key dirty map), storage keeps
#     rows as row bytes under key bytes (no db::Row/db::Key in the table
#     layouts, undo entries or version chains), the engine mutates
#     storage only through Table (which keeps its access paths), and every message
#     body's codec is its field list (no hand-written decoder outside the
#     codec primitives, db::Value and consensus::EncodedBatch);
#   * an ASan+UBSan build of the whole tree with the test suites run under
#     it (decoded batches are views into received frames shared across
#     the I/O, consensus and executor threads, so buffer ownership must
#     hold);
#   * a TSan build of the threaded suites — the SPSC ring unit tests and the
#     pipelined TCP cluster end-to-end test — so the three-stage pipeline's
#     cross-thread hand-offs stay provably race-free;
#   * the wire round-trip suite under extra corruption seeds;
#   * PBR + SMR end-to-end in the simulator's wire-fidelity mode;
#   * a fixed-seed chaos campaign: 20 seeded multi-fault schedules (crashes,
#     leader failover, partitions, link faults) against the simulated SMR
#     cluster, which must commit everything with zero checker violations —
#     plus a sharded (2-group) campaign where every fault hits both groups
#     at once, rebalance-under-faults campaigns (a range split mid-schedule,
#     with and without the donor replica killed mid-transfer), a read-mix
#     campaign plus one pinned seed that kills replicas mid-read-only-fanout
#     (snapshot-read checker must stay green), the Fig. 10(b)
#     compressed/delta byte-volume gate, the read-mix throughput gate
#     (lock-free snapshot reads >= 2x the 2PC-read baseline), and a smaller
#     campaign and the TCP chaos suite under TSan;
#   * a timeboxed localhost TCP cluster: real processes, real sockets, the
#     bank workload, and the offline trace checker (skipped gracefully when
#     the environment forbids sockets), single-threaded, pipelined, and
#     sharded (2 consensus groups with cross-shard 2PC) — and the chaos
#     launcher, which SIGKILLs and rejoins server processes mid-load
#     (run_chaos_cluster.sh).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: configure =="
cmake -B build -S . >/dev/null

echo "== tier-1: build =="
cmake --build build -j

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "${1:-}" != "--fast" ]]; then
  echo "== layering: protocol code must not reach into the simulator =="
  if grep -rl "sim::Context" src/consensus src/tob src/core src/baselines; then
    echo "FAIL: protocol code names sim::Context (use net::NodeContext)" >&2
    exit 1
  fi
  if grep -rl 'sim/world\.hpp' src/consensus src/tob src/core src/baselines; then
    echo "FAIL: protocol code includes sim/world.hpp (use net/transport.hpp)" >&2
    exit 1
  fi
  # Sharding stays above the consensus/TOB layer: a Paxos acceptor or TOB
  # node never knows which replication group it serves (groups are just
  # disjoint node sets wired by core/group.cpp).
  if grep -rlw 'ShardRouter\|GroupId' src/consensus src/tob; then
    echo "FAIL: consensus/tob code names ShardRouter/GroupId (sharding lives in src/core)" >&2
    exit 1
  fi
  # The state-transfer engine is transport- and simulator-agnostic: it sees
  # net::Transport only, never the simulator or the TCP backend, so every
  # protocol (and the TCP cluster) can mount streams on it unchanged.
  if grep -rl '#include "sim/\|#include "net/tcp' src/repl; then
    echo "FAIL: src/repl reaches into sim/ or net/tcp (repl is transport-agnostic)" >&2
    exit 1
  fi
  # And the ordering layers below it stay replication-blind: consensus/TOB
  # order opaque commands; what a snapshot stream is lives above them.
  if grep -rl '#include "repl/' src/consensus src/tob; then
    echo "FAIL: consensus/tob code includes repl/ (state transfer lives above ordering)" >&2
    exit 1
  fi
  # The versioned storage engine is a pure library under the replication
  # stack: version chains, GC, and read_at know nothing about ordering,
  # consensus, or state transfer (those drive the engine from above).
  if grep -rl '#include "\(consensus\|tob\|repl\)/' src/db; then
    echo "FAIL: src/db includes consensus/tob/repl headers (storage sits below ordering)" >&2
    exit 1
  fi
  # One snapshot stream: every protocol's state transfer mounts the single
  # repl::StateTransfer format, whose begin carries the sender's version.
  # The retired unversioned format (its sender, receiver paths, batch body
  # and per-protocol headers) must not come back.
  if grep -rnw 'send_full_v1\|SendV1\|begin_full\|SnapBatchBody' src bench examples ||
     grep -rn '"\(smr\|pbr\|chain\)-snap-\(begin\|batch\|done\)"' src bench examples; then
    echo "FAIL: a second snapshot stream format is back (use repl::StateTransfer::send_v2)" >&2
    exit 1
  fi
  # One snapshot cursor: Engine::serialize_rows is the one loop that fills
  # batches for every stream (full, migration-filtered, delta), copying
  # stored row bytes, and hands each batch to the sender as it fills. A row
  # becomes row bytes in one place (serialize_row has one caller in src/db:
  # where a statement's row is stored), no second loop builds batches, and
  # no materialized batch vector lives in the engine or in the sender half
  # of state transfer (the buffering receiver and the migration rider keep
  # theirs).
  row_calls="$(grep -rnE '(^|[^A-Za-z_])serialize_row\(' src/db | grep -v 'void serialize_row(' || true)"
  if [[ "$(grep -c . <<<"${row_calls}")" -ne 1 ]]; then
    echo "FAIL: serialize_row( must have exactly one caller in src/db (a statement's row stored):" >&2
    echo "${row_calls}" >&2
    exit 1
  fi
  batch_builds="$(grep -rn 'SnapshotBatch{' src/db || true)"
  if [[ "$(grep -c . <<<"${batch_builds}")" -ne 1 ]]; then
    echo "FAIL: exactly one place in src/db may build a SnapshotBatch (Engine::serialize_rows):" >&2
    echo "${batch_builds}" >&2
    exit 1
  fi
  batch_vec='std::vector<(db::)?(Engine::)?SnapshotBatch>'
  if grep -rnE "${batch_vec}" src/db ||
     sed '/^\/\/ -* receiver --$/q' src/repl/state_transfer.cpp | grep -nE "${batch_vec}"; then
    echo "FAIL: a materialized snapshot is back (stream batches through Engine::serialize_rows)" >&2
    exit 1
  fi
  # One contiguous buffer per message: make_msg writes the whole frame once,
  # and framing a batch copies its encoded bytes. The scatter-gather layer
  # (segmented byte strings, writer splices, the segmented twins of the
  # codec, frame and registry functions) must not come back.
  if grep -rn 'SegmentedBytes\|splice(\|_segments(\|encoded_view\.hpp' src; then
    echo "FAIL: the scatter-gather byte layer is back (one contiguous buffer per message)" >&2
    exit 1
  fi

  # One recovery core: PBR and chain replication share core/recovery.cpp's
  # election, state transfer, failure detection and reconfiguration over
  # one set of repl-* headers and one ::repl-reconfig proc. Per-protocol
  # recovery headers or procs, or a second copy of the core, must not come
  # back.
  if grep -rnE '"(pbr|chain)-(elect|catchup|recovered|hb|deliver)"|::(pbr|chain)-reconfig' \
       src bench examples; then
    echo "FAIL: per-protocol recovery headers are back (use core/recovery.hpp's)" >&2
    exit 1
  fi
  for fn in maybe_finish_election send_state_to refetch_state; do
    defs="$(grep -rnE "^[^ /#].*::${fn}\(" src --include='*.cpp' || true)"
    if [[ "$(grep -c . <<<"${defs}")" -ne 1 ]]; then
      echo "FAIL: ${fn} must have exactly one definition (core/recovery.cpp):" >&2
      echo "${defs}" >&2
      exit 1
    fi
  done

  # One joiner: every snapshot receiver (PBR/chain recovery, SMR rejoin and
  # spare promotion, range migration) mounts repl::FetchSession, the one
  # place that dispatches stream frames by header; and one heartbeat failure
  # detector (core/heartbeat.hpp) keeps every replica's last-heard times.
  stream_hdr='k(Snap[A-Za-z]*2|MigSnap[A-Za-z]*)Header|[A-Za-z_.]*headers?_?\.(begin|batch|done|deletes)\b'
  dispatch="$(grep -rlE "header *[!=]= *(${stream_hdr})|(${stream_hdr}) *[!=]= *[A-Za-z_.]*header\b" src || true)"
  if [[ "$(grep -c . <<<"${dispatch}")" -ne 1 ]]; then
    echo "FAIL: exactly one file in src/ may dispatch snapshot-stream frames (repl::FetchSession):" >&2
    echo "${dispatch}" >&2
    exit 1
  fi
  heard="$(grep -rlw 'last_heard_' src || true)"
  if [[ "$(grep -c . <<<"${heard}")" -ne 1 ]]; then
    echo "FAIL: exactly one file in src/ may keep heartbeat state (core/heartbeat.hpp):" >&2
    echo "${heard}" >&2
    exit 1
  fi

  # Bounded ordering state: a TOB node forgets each slot once delivered and
  # deduplicates through per-client windows, so no per-command history may
  # come back. The consensus safety recorder is built in exactly one place
  # (core::detail::make_group_safety), which skips it where it cannot check
  # agreement (a TCP process sees one acceptor).
  if grep -rnw 'delivery_log_\|delivered_keys_\|delivered_floor_' src/tob; then
    echo "FAIL: per-command delivery history is back in src/tob (use the dedup windows)" >&2
    exit 1
  fi
  # Row-resident touch stamps: a present key's last-touch version lives on
  # its storage record (db::RowEntry::touched) and an absent key's in the
  # tombstones, so no per-key dirty map may come back in the engine.
  if grep -rnw 'dirty_\|TouchMap' src/db; then
    echo "FAIL: a per-key dirty map is back in src/db (stamp the storage record)" >&2
    exit 1
  fi
  # Compact storage: storage keeps rows as row bytes under key bytes, and
  # undo entries and version chains hold the same bytes. No table layout
  # may key or hold rows as std::vector<Value> (db::Key / db::Row) again.
  if grep -nE 'std::map<Key|unordered_map<Key|\bRow row;' src/db/table.hpp src/db/table.cpp ||
     sed -n '/struct \(UndoEntry\|VersionEntry\) {/,/^  };/p' src/db/engine.hpp |
       grep -nE '^ *(const +)?(db::)?(Row|Key) +[a-z_]+'; then
    echo "FAIL: src/db stores rows or keys as std::vector<Value> (keep row bytes and key bytes)" >&2
    exit 1
  fi
  # Access paths: every storage mutation goes through Table::insert,
  # replace or take, which keep a table's secondary access paths in step
  # with its storage; the engine never mutates storage behind them.
  if grep -nE 'storage->(insert|replace|take)\(' src/db/engine.cpp; then
    echo "FAIL: src/db/engine.cpp mutates storage directly (use Table::insert/replace/take)" >&2
    exit 1
  fi
  recorders="$(grep -rnE '(make_shared|make_unique)<(consensus::)?SafetyRecorder>|new (consensus::)?SafetyRecorder\b|\bSafetyRecorder [A-Za-z_]+ *[;{(]' src || true)"
  if [[ "$(grep -c . <<<"${recorders}")" -ne 1 ]]; then
    echo "FAIL: exactly one place in src/ may construct a consensus::SafetyRecorder:" >&2
    echo "${recorders}" >&2
    exit 1
  fi
  # One field list per wire body: a body's codec is wire::Fields over its
  # members, which derives encode and decode from that one list. Only the
  # primitives and containers (wire/codec.hpp), db::Value (db/wire.hpp) and
  # consensus::EncodedBatch (consensus/types.hpp) keep hand-written codecs.
  decoders="$(grep -rl 'decode(BytesReader&' src |
    grep -vxE 'src/(wire/codec|db/wire|consensus/types)\.hpp' || true)"
  if [[ -n "${decoders}" ]]; then
    echo "FAIL: hand-written decoders are back (declare the body's wire::Fields list):" >&2
    echo "${decoders}" >&2
    exit 1
  fi

  echo "== strict: -Wall -Wextra -Werror build of every target =="
  # Keep the default build type: GCC 12's -Wrestrict and -Wstringop-overflow
  # report false positives from inside libstdc++ headers at some other
  # optimization settings, which says nothing about this tree.
  cmake -B build-strict -S . \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" >/dev/null
  cmake --build build-strict -j

  echo "== sanitizers: ASan+UBSan build + unit suites =="
  # Decoded batches are views into shared frame buffers, and borrowed views
  # point into caller storage: address/UB sanitizers are the cheapest way to
  # prove no view outlives its owner.
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  cmake --build build-asan -j
  # Per-test timeout: a deadlocked sanitizer run must fail loudly, not hang CI.
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" --timeout 300

  echo "== sanitizers: TSan build + threaded suites (SPSC ring, pipelined cluster) =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  cmake --build build-tsan -j --target common_spsc_ring_test net_tcp_cluster_e2e_test
  ./build-tsan/tests/common_spsc_ring_test >/dev/null
  ./build-tsan/tests/net_tcp_cluster_e2e_test \
    --gtest_filter='*SmrPipelined*:TcpShardedClusterE2e.*' >/dev/null

  echo "== wire: round-trip suite under extra corruption seeds =="
  for seed in 7 131 9973; do
    echo "-- SHADOW_WIRE_SEED=${seed}"
    SHADOW_WIRE_SEED="${seed}" \
      ./build/tests/wire_codec_roundtrip_test \
      --gtest_filter='WireCodec.DecodeRejectsSeededCorruption' >/dev/null
  done

  echo "== wire: PBR + SMR end-to-end in wire-fidelity mode =="
  ./build/tests/wire_fidelity_test \
    --gtest_filter='WireFidelity.PbrEndToEndWithRealBytesOnEveryLink:WireFidelity.SmrEndToEndWithRealBytesOnEveryLink' \
    >/dev/null

  echo "== chaos: fixed-seed campaign against the simulated SMR cluster =="
  # Deterministic CI gate: these exact 20 fault schedules once exposed a
  # Paxos retransmission wedge; a regression prints the failing plan's
  # replay seed and its minimized schedule.
  timeout 600 ./build/bench/chaos_campaign --plans 20 --seed 20140623 >/dev/null

  echo "== chaos: sharded fixed-seed campaign (2 groups, faults hit both at once) =="
  # Every fault lands on the target machine's node in BOTH groups; a crash
  # restart drives two independent per-group snapshot rejoins under load.
  timeout 600 ./build/bench/chaos_campaign --plans 8 --seed 20140623 \
    --shards 2 --cross-shard-pct 20 >/dev/null

  echo "== chaos: rebalance under faults (range split mid-campaign, donor killed) =="
  # A ::mig-split moves a quarter of the keyspace between groups at t=2s,
  # concurrent with the fault schedule; plans pass only if the migration also
  # commits. The second run SIGKILLs the preferred donor replica
  # mid-transfer, which must fail over to another from-group replica.
  timeout 600 ./build/bench/chaos_campaign --plans 4 --seed 20140623 \
    --shards 2 --cross-shard-pct 20 --rebalance-at-ms 2000 >/dev/null
  timeout 600 ./build/bench/chaos_campaign --plans 4 --seed 20140623 \
    --shards 2 --cross-shard-pct 20 --rebalance-at-ms 2000 --kill-donor >/dev/null
  # Pinned: a plan that crashes TOB node 0 before the split. The split's
  # rebroadcasts must enter through the other frontends, or it never
  # reaches a log ("RANGE SPLIT DID NOT COMMIT").
  timeout 600 ./build/bench/chaos_campaign --replay 7439975876262932836 \
    --shards 2 --cross-shard-pct 20 --rebalance-at-ms 2000 >/dev/null

  echo "== chaos: read-mix campaign + pinned replica-kill-mid-read-only-fanout seed =="
  # 40% of each client's txns ride the lock-free snapshot-read path while the
  # fault schedules crash replicas and TOB nodes under them; the offline
  # checker's snapshot-read check (kRoCut cross-check) must stay green. The
  # pinned replay is a crash-pair plan that SIGKILLs two of the three active
  # replicas in every group while read-only fanouts are in flight: it once
  # wedged clients in a permanent re-snap loop against a promoted spare
  # whose version chains had never re-opened (served snaps, refused every
  # pinned read), and a regression here reprints the failing plan's seed.
  timeout 600 ./build/bench/chaos_campaign --plans 6 --seed 20140623 \
    --shards 2 --cross-shard-pct 20 --read-pct 40 >/dev/null
  timeout 600 ./build/bench/chaos_campaign --replay 2340316686833741077 \
    --shards 2 --cross-shard-pct 20 --read-pct 40 >/dev/null

  echo "== db: read-mix throughput gate (snapshot reads vs 2PC-read baseline) =="
  # Cross-shard read-only fast path must clear 2x the 2PC-read baseline's
  # aggregate throughput with zero reader lock conflicts/aborts, and both
  # traces must pass the offline checker (the ro trace with a non-zero
  # snapshot-cut count).
  timeout 400 ./build/bench/read_mix --gate >/dev/null

  echo "== repl: compressed + delta snapshot byte-volume gate =="
  # Fig. 10(b) companion: a delta+compressed bank re-sync must stay >= 3x
  # below the raw full copy on the wire.
  timeout 300 ./build/bench/fig10b_state_transfer --gate

  echo "== chaos: TSan campaign + TCP chaos suite =="
  # Fault schedules exercise crash/restart interleavings the clean-run TSan
  # gates never reach (rejoin snapshots racing the executor pipeline).
  cmake --build build-tsan -j --target chaos_campaign net_tcp_chaos_test
  timeout 600 ./build-tsan/bench/chaos_campaign --plans 4 --seed 20140623 >/dev/null
  ./build-tsan/tests/net_tcp_chaos_test >/dev/null

  echo "== net: localhost TCP cluster (multi-process, bank workload, trace checker) =="
  if ./build/examples/cluster_node --mode pbr --host 0 --base-port 34999 \
       --run-for-ms 1 >/dev/null 2>&1; then
    for mode in pbr smr; do
      echo "-- ${mode}: 3 server processes + client over 127.0.0.1"
      timeout 120 ./build/examples/run_cluster.sh "$mode" 30 \
        "$((34000 + RANDOM % 1000))" 15000
    done
    echo "-- smr pipelined: 3-stage pipeline, 4 clients, adaptive batching"
    timeout 120 ./build/examples/run_cluster.sh smr 200 \
      "$((34000 + RANDOM % 1000))" 10000 4 pipelined
    echo "-- smr sharded: 2 consensus groups, 10% cross-shard 2PC transfers"
    timeout 120 ./build/examples/run_cluster.sh smr 200 \
      "$((34000 + RANDOM % 1000))" 10000 4 pipelined 2 10
    echo "-- smr rebalance: range split at t=500ms under 2-client load"
    timeout 120 ./build/examples/run_cluster.sh smr 6000 \
      "$((34000 + RANDOM % 1000))" 20000 2 "" 2 20 500
    echo "-- smr chaos: SIGKILL/restart cycles with snapshot rejoin under load"
    timeout 240 ./build/examples/run_chaos_cluster.sh 40000 \
      "$((35000 + RANDOM % 1000))" 60000 5 2
  else
    echo "-- skipped: sockets unavailable in this environment"
  fi
fi

echo "== all checks passed =="
