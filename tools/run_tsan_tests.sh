#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs them.
# Usage: tools/run_tsan_tests.sh [extra ctest args...]
#
# Uses a dedicated build tree (build-tsan) so the instrumented objects never
# mix with the regular build. LHMM_SANITIZE=address works the same way if an
# ASan pass is wanted instead.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -B "${BUILD_DIR}" -S . -DLHMM_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target batch_test stream_test robustness_test serve_test frame_test net_server_test supervisor_test durability_test env_fault_test network_test hmm_test store_test lhmm_serve lhmm_loadgen

# TSan halts with a non-zero exit on the first data race, so a plain run is
# the assertion. batch_test covers the thread pool, the sharded route cache
# under 8-thread load, and 1-vs-4-thread batch determinism; stream_test covers
# the StreamEngine's per-session inbox pump under 8-thread shuffled arrival,
# and StreamEngineStatsTest polls Stats()/TotalStats() and Committed() while
# the pumps run the same sessions' pushes (both selected by the StreamEngine
# pattern below);
# robustness_test covers the hardened serving paths — backpressure against a
# blocked pump, cap/TTL eviction racing workers, poison quarantine, the
# 1000-session eviction-churn soak, and fault-injected batch matching;
# serve_test covers the MatchServer front end — admission, deadlines, the
# degrade ladder, watchdog quarantine of a blocked pump, and drain/restore —
# and lhmm_loadgen --smoke drives the whole serving stack with a concurrent
# fault-injecting client fleet; durability_test replays journals through the
# engine at 1 and 8 threads (recovery's PushBlocking waits out worker-side
# backpressure); the crash gauntlet kill -9s a TSan-instrumented lhmm_serve
# mid-stream and recovers it; network_test and hmm_test cover the serial
# users of the same code paths; BatchDeterminism's WarmCache tests match
# 8-way parallel against one pre-warmed shared route cache; frame_test
# and net_server_test cover the TCP transport — the poll loop serving
# real loopback sockets from concurrent client threads — and the socket
# crash gauntlet plus a 64-connection net smoke drive lhmm_serve's
# listener end-to-end; supervisor_test and the fleet gauntlet cover
# srv::Supervisor (waitpid reaping, health probes, breaker) with client
# threads and the supervision thread racing worker kills; store_test and the
# swap gauntlet cover the RCU-style generation flip — client threads pushing
# on pinned handles while the control path swaps and rolls back CURRENT.
# env_fault_test and the chaos gauntlet additionally run the io::Env
# fault-injection plane under the sanitizer: scheduled ENOSPC/EMFILE
# storms, seal-and-rotate journal repair, and the degraded-nondurable
# state machine's enter/exit transitions.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
cd "${BUILD_DIR}"
ctest --output-on-failure -R "ThreadPool|ParallelFor|CachedRouter|BatchDeterminism|StreamEngine" "$@"
./tests/robustness_test
./tests/serve_test
./tests/frame_test
./tests/net_server_test
./tests/durability_test
./tests/env_fault_test
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

echo "TSan pass complete: no data races reported."
