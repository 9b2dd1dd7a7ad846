#!/usr/bin/env bash
# Builds the memory-sensitive tests under AddressSanitizer (+ leak detection
# where the platform supports it) and runs them.
# Usage: tools/run_asan_tests.sh [extra ctest args...]
#
# Uses a dedicated build tree (build-asan) so the instrumented objects never
# mix with the regular or TSan builds. Mirrors tools/run_tsan_tests.sh; see
# tools/run_sanitizer_suite.sh for the combined pass.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -B "${BUILD_DIR}" -S . -DLHMM_SANITIZE=address
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target batch_test matchers_test stream_test robustness_test serve_test frame_test net_server_test supervisor_test durability_test env_fault_test io_test network_test hmm_test store_test lhmm_serve lhmm_loadgen

# ASan aborts with a non-zero exit on the first bad access, so a plain run is
# the assertion. The suite leans on the paths where lifetimes are trickiest:
# the StreamEngine's deferred session teardown (quarantine/eviction racing a
# blocked pump), MatchServer drain/restore (checkpointed sessions re-created
# from disk), io_test's parsers over corrupt input, and the loadgen fleet
# exercising the whole serving stack concurrently — over stdin pipes and
# over the TCP frame transport (frame_test, net_server_test, the socket
# crash gauntlet, and a 64-connection net smoke). supervisor_test and the
# fleet gauntlet cover srv::Supervisor's fork/exec/reap lifecycle and the
# ResilientClient's reconnect buffers under repeated worker SIGKILLs.
# store_test pins the mmap data plane's lifetime rules — a swapped-out
# generation is unmapped exactly when the last pinned handle releases, and
# zero-copy section views must never outlive their mapping — and the swap
# gauntlet runs the full hot-swap/corrupt-reject/rollback protocol against
# instrumented workers.
# env_fault_test and the chaos gauntlet additionally run the io::Env
# fault-injection plane under the sanitizer: scheduled ENOSPC/EMFILE
# storms, seal-and-rotate journal repair, and the degraded-nondurable
# state machine's enter/exit transitions. matchers_test's IVMM oracle drives
# the pinned voting DPs over the shared WeightMatrix/ViterbiColumn arenas.
export ASAN_OPTIONS="halt_on_error=1:detect_stack_use_after_return=1"
cd "${BUILD_DIR}"
ctest --output-on-failure -R "ThreadPool|ParallelFor|CachedRouter|BatchDeterminism|StreamEngine|MatchersTest|IvmmOracleTest" "$@"
./tests/robustness_test
./tests/serve_test
./tests/frame_test
./tests/net_server_test
./tests/durability_test
./tests/env_fault_test
./tests/io_test
./tests/network_test
./tests/hmm_test
./tools/lhmm_loadgen --smoke 1
./tools/lhmm_loadgen --crash-at 5,23,57 --crash-fault cycle \
  --serve-bin ./tools/lhmm_serve --threads 8
./tools/lhmm_loadgen --crash-at 5,23,57 --crash-fault cycle \
  --transport socket --serve-bin ./tools/lhmm_serve --threads 8
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

echo "ASan pass complete: no memory errors reported."
