#!/usr/bin/env bash
# Builds the arithmetic/serialization-heavy tests under
# UndefinedBehaviorSanitizer and runs them.
# Usage: tools/run_ubsan_tests.sh [extra ctest args...]
#
# Uses a dedicated build tree (build-ubsan) so the instrumented objects never
# mix with the regular, TSan, or ASan builds. Mirrors tools/run_tsan_tests.sh;
# see tools/run_sanitizer_suite.sh for the combined pass.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-ubsan
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -B "${BUILD_DIR}" -S . -DLHMM_SANITIZE=undefined
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target core_test hmm_test matchers_test io_test durability_test env_fault_test serve_test frame_test net_server_test supervisor_test store_test lhmm_serve lhmm_loadgen

# -fno-sanitize-recover=all makes the first UB finding abort, so a plain run
# is the assertion. The suite leans on the paths where UB is likeliest: the
# journal's CRC/length framing and byte-level fault injection (durability_test
# deliberately bit-flips and truncates records before re-parsing them), the
# snapshot/CSV parsers over corrupt input (io_test), HMM log-space arithmetic
# (hmm_test), and the serving front end end-to-end — including the kill -9
# crash gauntlet against a UBSan-instrumented lhmm_serve, over stdin and
# over the TCP frame transport (frame_test's byte-level codec fuzzing is
# exactly where length-arithmetic UB would hide). supervisor_test pins the
# backoff doubling loop (the `base << attempt` shift-overflow trap) and the
# breaker's window arithmetic; the fleet gauntlet runs the whole
# supervision stack instrumented. store_test parses deliberately corrupted
# store files (truncated headers, flipped bits, patched version fields) —
# exactly where offset arithmetic against attacker-shaped lengths would trap —
# and the swap gauntlet feeds the same corrupt candidates to live workers.
# env_fault_test and the chaos gauntlet additionally run the io::Env
# fault-injection plane under the sanitizer: scheduled ENOSPC/EMFILE
# storms, seal-and-rotate journal repair, and the degraded-nondurable
# state machine's enter/exit transitions. matchers_test's IVMM oracle
# drives the pinned voting DPs' index arithmetic over the shared
# WeightMatrix/ViterbiColumn arenas.
export UBSAN_OPTIONS="print_stacktrace=1"
cd "${BUILD_DIR}"
./tests/core_test
./tests/hmm_test
./tests/matchers_test
./tests/io_test
./tests/durability_test
./tests/env_fault_test
./tests/serve_test
./tests/frame_test
./tests/net_server_test
./tools/lhmm_loadgen --crash-at 5,23,57 --crash-fault cycle \
  --serve-bin ./tools/lhmm_serve --threads 4
./tools/lhmm_loadgen --crash-at 5,23,57 --crash-fault cycle \
  --transport socket --serve-bin ./tools/lhmm_serve --threads 4
./tools/lhmm_loadgen --net-smoke 1 --connections 64 \
  --serve-bin ./tools/lhmm_serve --threads 4
./tests/supervisor_test
./tools/lhmm_loadgen --fleet-gauntlet 1 --workers 3 \
  --serve-bin ./tools/lhmm_serve --threads 2
./tests/store_test
./tools/lhmm_loadgen --swap-gauntlet 1 --workers 3 \
  --serve-bin ./tools/lhmm_serve --threads 2
./tools/lhmm_loadgen --chaos-gauntlet 1 \
  --serve-bin ./tools/lhmm_serve --threads 2

echo "UBSan pass complete: no undefined behavior reported."
