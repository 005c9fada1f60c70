#!/usr/bin/env bash
# Multi-process chaos smoke for the wire transport: run the same seeded
# config three times through egdrun — fault-free, with a worker SIGKILLed
# mid-run, and with a worker SIGSTOPped through its own eviction — and
# assert that every deterministic summary line ("work:", fitness,
# cooperation, WSLS, distinct strategies) is byte-identical across runs.
# -full keeps GamesPlayed deterministic under eviction replay.
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

SIM_FLAGS=(-np 4 -ssets 16 -gens 400 -rounds 20 -seed 7 -full)
EVICT_FLAGS=(-evict -heartbeat-every 25ms -heartbeat-misses 5)
# Each scenario finishes in a few seconds (the SIGSTOP one, the slowest,
# in about 6 s); a run still going after this many seconds has hung.
SCENARIO_TIMEOUT=90

echo "chaos-smoke: building egdrun"
$GO build -o "$TMP/egdrun" ./cmd/egdrun

strip_summary() { grep -v '^run:' "$1" > "$1.det"; }

# run_scenario NAME OUT ARGS... runs egdrun under a deadline, so a hang
# fails the smoke with the scenario's name instead of stalling it. timeout
# signals its whole process group, so the worker fleet goes down too.
run_scenario() {
    local name=$1 out=$2 rc=0
    shift 2
    timeout "$SCENARIO_TIMEOUT" "$TMP/egdrun" "$@" > "$out" || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "chaos-smoke: FAIL: $name scenario hung (no exit within ${SCENARIO_TIMEOUT}s)" >&2
        exit 1
    fi
    if [ "$rc" -ne 0 ]; then
        echo "chaos-smoke: FAIL: $name scenario exited with status $rc" >&2
        exit "$rc"
    fi
    strip_summary "$out"
}

echo "chaos-smoke: fault-free baseline"
run_scenario fault-free "$TMP/clean.out" "${SIM_FLAGS[@]}"

echo "chaos-smoke: SIGKILL worker 2 mid-run"
run_scenario SIGKILL "$TMP/kill.out" "${SIM_FLAGS[@]}" "${EVICT_FLAGS[@]}" -chaos-kill 2@150ms

echo "chaos-smoke: SIGSTOP worker 3 mid-run, SIGCONT after eviction"
run_scenario SIGSTOP "$TMP/stop.out" "${SIM_FLAGS[@]}" "${EVICT_FLAGS[@]}" -chaos-stop 3@150ms:2s

fail=0
for chaos in kill stop; do
    if ! diff -u "$TMP/clean.out.det" "$TMP/$chaos.out.det"; then
        echo "chaos-smoke: FAIL: $chaos run diverged from the fault-free baseline" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi

echo "chaos-smoke: PASS: chaos runs bit-identical to fault-free baseline"
cat "$TMP/clean.out.det"
