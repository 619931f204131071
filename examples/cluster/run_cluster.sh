#!/usr/bin/env bash
# Launches a real localhost ShadowDB cluster — three server processes plus a
# closed-loop bank-workload client — over TCP sockets, then merges the
# per-process traces and replays them through the offline checker.
#
#   run_cluster.sh [pbr|smr] [txns] [base_port] [run_ms] [clients] [pipelined] [shards] [xs_pct] [split_ms] [read_pct]
#
# `clients` (default 1) fans the transaction budget across that many
# closed-loop clients; `pipelined` (any non-empty value, smr only) runs every
# process as the 3-stage pipeline with adaptive batching; `shards` (default 1,
# smr only) partitions the bank keyspace across that many consensus groups
# with `xs_pct`% (default 10) of transactions running as cross-shard 2PC
# transfers; `split_ms` (sharded smr only) rebalances a quarter of the bank
# keyspace from group 0 to group 1 at that wall-clock offset, concurrent with
# the workload — server processes then also assert the migration committed;
# `read_pct` (default 0, sharded smr only) makes that % of transactions
# cross-shard bank.balance2 pair reads on the lock-free snapshot-read path.
#
# Exits 0 iff every transaction committed, every server exited clean (with
# `split_ms`: committed the range split, and every host reports one digest
# per group, so a replica that resynced after the split converged), AND the
# merged trace passes total order, at-most-once, durability, strict
# serializability and (sharded) cross-shard atomicity.
set -u

if [ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ]; then
  sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//'
  exit 0
fi

MODE="${1:-pbr}"
TXNS="${2:-50}"
BASE_PORT="${3:-$((35200 + RANDOM % 1000))}"
RUN_MS="${4:-20000}"
CLIENTS="${5:-1}"
PIPELINED="${6:-}"
SHARDS="${7:-1}"
XS_PCT="${8:-10}"
SPLIT_MS="${9:-0}"
READ_PCT="${10:-0}"
BIN="$(dirname "$0")/cluster_node"
[ -x "$BIN" ] || BIN="${CLUSTER_NODE:-cluster_node}"

EXTRA=(--clients "$CLIENTS")
[ -n "$PIPELINED" ] && EXTRA+=(--pipelined)
[ "$SHARDS" -gt 1 ] && EXTRA+=(--shards "$SHARDS" --cross-shard-pct "$XS_PCT")
[ "$READ_PCT" -gt 0 ] && EXTRA+=(--read-pct "$READ_PCT")
[ "$SPLIT_MS" -gt 0 ] && EXTRA+=(--split-at-ms "$SPLIT_MS")

WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null; wait 2>/dev/null; rm -rf "$WORK"' EXIT

echo "== ShadowDB-${MODE^^} on 127.0.0.1:${BASE_PORT}-$((BASE_PORT + 3)), ${TXNS} txns," \
     "${CLIENTS} clients${PIPELINED:+, pipelined}$([ "$SHARDS" -gt 1 ] && echo ", ${SHARDS} shards (${XS_PCT}% cross)")$([ "$READ_PCT" -gt 0 ] && echo ", ${READ_PCT}% reads")$([ "$SPLIT_MS" -gt 0 ] && echo ", split @ ${SPLIT_MS}ms") =="
declare -a SERVER_PID
for h in 0 1 2; do
  "$BIN" --mode "$MODE" --host "$h" --base-port "$BASE_PORT" \
         --trace "$WORK/t$h.jsonl" --run-for-ms "$RUN_MS" "${EXTRA[@]}" >"$WORK/s$h.out" &
  SERVER_PID[$h]=$!
done
sleep 0.2

"$BIN" --mode "$MODE" --host 3 --base-port "$BASE_PORT" \
       --trace "$WORK/t3.jsonl" --txns "$TXNS" --run-for-ms "$RUN_MS" "${EXTRA[@]}"
CLIENT_RC=$?

SERVER_RC=0
for h in 0 1 2; do
  wait "${SERVER_PID[$h]}" || SERVER_RC=1
  cat "$WORK/s$h.out"
done
if [ "$SPLIT_MS" -gt 0 ]; then
  for ((g = 0; g < SHARDS; g++)); do
    digests="$(grep -h "group $g executed" "$WORK"/s*.out | sed 's/.*digest //' | sort -u)"
    if [ "$(grep -c . <<<"$digests")" -ne 1 ]; then
      echo "group $g replicas disagree: $(echo $digests)"
      SERVER_RC=1
    fi
  done
fi

"$BIN" check "$WORK"/t*.jsonl
CHECK_RC=$?

if [ "$CLIENT_RC" -eq 0 ] && [ "$SERVER_RC" -eq 0 ] && [ "$CHECK_RC" -eq 0 ]; then
  echo "PASS: workload committed and the trace checker found no violations"
  exit 0
fi
echo "FAIL: client rc=$CLIENT_RC server rc=$SERVER_RC checker rc=$CHECK_RC"
exit 1
