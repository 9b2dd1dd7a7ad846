#!/usr/bin/env bash
# Perf-regression smoke gate: re-measures the bench_micro suites in --smoke
# mode and diffs them against the committed baselines at the repo root.
#
# The committed baselines come from the *full* suites, so the tolerance here
# is generous (smoke uses fewer workload items and fewer timing reps, and CI
# machines differ); the check exists to catch order-of-magnitude breakage —
# a Dijkstra column going quadratic, a store load rebuilding instead of
# mapping — not 10% noise.
# Under sanitizer builds bench_diff skips timing comparison entirely.
#
# Env (set by ctest): BENCH_MICRO, BENCH_DIFF, REPO_ROOT. Tolerance can be
# overridden with BENCH_TOL (default 0.6).
set -euo pipefail

: "${BENCH_MICRO:?path to bench_micro binary}"
: "${BENCH_DIFF:?path to bench_diff binary}"
: "${REPO_ROOT:?repository root containing BENCH_*.json baselines}"
TOL="${BENCH_TOL:-0.6}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$BENCH_MICRO" --json "$tmp/routing.json" --suite routing --smoke
"$BENCH_MICRO" --json "$tmp/viterbi.json" --suite viterbi --smoke
"$BENCH_MICRO" --json "$tmp/store.json" --suite store --smoke

"$BENCH_DIFF" "$REPO_ROOT/BENCH_routing.json" "$tmp/routing.json" --tol "$TOL"
"$BENCH_DIFF" "$REPO_ROOT/BENCH_viterbi.json" "$tmp/viterbi.json" --tol "$TOL"
"$BENCH_DIFF" "$REPO_ROOT/BENCH_store.json" "$tmp/store.json" --tol "$TOL"

echo "bench_regression_smoke: OK"
