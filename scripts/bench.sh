#!/usr/bin/env bash
# bench.sh — regenerate or gate the checked-in benchmark budget
# (BENCH_sim.json) covering the simulator hot path, the TLB debt set,
# the serve wire/request/batch path, cluster routing, and the PMO pool
# load path.
#
#   scripts/bench.sh check    # default: fail on >10% ns/op regression
#                             # or any allocs/op increase vs BENCH_sim.json
#   scripts/bench.sh update   # re-measure, rewrite BENCH_sim.json, and
#                             # regenerate RESULTS.md from it
#   scripts/bench.sh render   # regenerate RESULTS.md only (no measuring)
#
# Tunables: BENCH_COUNT (runs per benchmark, min-ns wins; default 3),
# BENCH_TIME (per-run benchtime; default 300ms), BENCH_TOLERANCE
# (fractional ns/op slack in check mode; default 0.10, negative
# disables the timing gate and checks allocations only).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-check}"
count="${BENCH_COUNT:-3}"
btime="${BENCH_TIME:-300ms}"
tol="${BENCH_TOLERANCE:-0.10}"

run_bench() {
    go test -run '^$' -bench . -benchmem -benchtime "$btime" -count "$count" \
        ./internal/sim/ ./internal/tlb/ ./internal/serve/ ./internal/cluster/ \
        ./internal/pmo/
}

case "$mode" in
update)
    run_bench | tee /dev/stderr | go run ./cmd/benchjson -out BENCH_sim.json
    go run ./cmd/benchjson -render BENCH_sim.json -md RESULTS.md
    ;;
check)
    run_bench | tee /dev/stderr | go run ./cmd/benchjson -check BENCH_sim.json -ns-tolerance "$tol"
    ;;
render)
    go run ./cmd/benchjson -render BENCH_sim.json -md RESULTS.md
    ;;
*)
    echo "usage: scripts/bench.sh [check|update|render]" >&2
    exit 2
    ;;
esac
