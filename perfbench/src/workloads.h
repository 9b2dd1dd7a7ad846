// The three workloads and the pieces they share: matcher factories, the
// per-session timestamp probe used for streaming latencies, and the fixed
// list of per-layer metrics every traced run prints.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "matchers/batch_matcher.h"
#include "matchers/stream_engine.h"
#include "trace.h"

namespace perfbench {

/// Matcher threads of the untraced workloads (2 matcher threads plus the
/// benchmark's own thread on a 4-core machine). Traced runs use one.
inline constexpr int kMatcherThreads = 2;
/// Fixed lag of every streaming session (stream-hz and serve-tcp).
inline constexpr int kLag = 8;
/// Mean points of a preprocessed Hangzhou-S test trajectory, used to size
/// the streaming workloads from --seconds.
inline constexpr double kPointsPerTrajectory = 14.0;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

// The two phases of the streaming workloads (stream-hz and serve-tcp).
/// Phase 1 (capacity) gets this share of --seconds at the capacity measured
/// when the benchmark was defined (about 13 sessions/s); phase 2 (latency)
/// gets the rest at the offered rate: about 55 timed sessions at --seconds
/// 28, so that p80 has ten beyond it.
inline constexpr double kPhase1Share = 0.3;
inline constexpr double kPhase1SessionsPerS = 13.0;
/// The phases alternate over this many rounds, each with its share of the
/// sessions, so that both figures sample the whole run: the shared host's
/// speed drifts within seconds, and a figure taken from one stretch of the
/// run follows that stretch.
inline constexpr int kRounds = 2;
/// The phase-2 offered load: about 30% of the phase-1 capacity of the commit
/// this benchmark was defined on (2 matcher threads, 4-core x86 machine).
/// At 40%, a slower spell of the shared host pushed the load far enough up
/// that queueing doubled the tail latency, and its spread over ten seeds
/// was 0.34. Recorded in BENCHMARK.json's workload descriptions; keep them
/// equal.
inline constexpr double kOfferedPointsPerS = 45.0;
/// Gap between the points of one session in phase 2.
inline constexpr double kPointGapS = 0.1;

/// Plain LhmmMatcher clones over the world.
lhmm::matchers::MatcherFactory LhmmFactory(const World* world);

/// When each event of one streaming session was processed, recorded by a
/// wrapper around the session (steady-clock ns, see NowNs). Written by the
/// engine's pump thread, read by the producer after StreamEngine::Barrier.
struct SessionStamps {
  std::vector<int64_t> push_start_ns;
  std::vector<int64_t> push_end_ns;
  int64_t finish_end_ns = 0;
};

/// Wraps `inner` so that each clone's sessions record SessionStamps. Every
/// clone appends its stamps to `*registry` when it is built, which
/// StreamEngine::Open does on the producer thread; with every session opened
/// through this factory, (*registry)[id] belongs to session id.
lhmm::matchers::MatcherFactory StampingFactory(
    lhmm::matchers::MatcherFactory inner,
    std::vector<std::shared_ptr<SessionStamps>>* registry);

/// Engine settings of the streaming workloads: `threads` pump threads, lag
/// kLag, `router` shared by all sessions.
lhmm::matchers::StreamEngineConfig EngineConfig(int threads,
                                                lhmm::network::CachedRouter* router);

/// Opens one session per input, pushes round-robin with PushBlocking, finishes
/// each session after its last point and waits for the engine. Returns the
/// session ids; `*failed` counts sessions whose events were refused.
std::vector<lhmm::matchers::SessionId> RunSaturated(
    lhmm::matchers::StreamEngine* engine, const std::vector<Input>& inputs,
    int64_t* failed);

/// Everything a traced run can report. Layers a workload does not exercise
/// stay 0, so every traced run prints the same names.
struct PerLayer {
  SpanTotals spans;
  int64_t route_many_targets = 0;
  int64_t transitions_without_route = 0;
  double cache_hit_ratio = 0.0;
  int64_t cache_entries = 0;
  double shortcut_ms = 0.0;
  int64_t shortcuts_applied = 0;
  int64_t online_points = 0;  ///< Points pushed in the traced streaming run.
  double batch_busy_ratio = 0.0;
  double point_ms_p50 = 0.0;
  double point_ms_p95 = 0.0;
  double queue_wait_ms_p50 = 0.0;
  double queue_wait_ms_p99 = 0.0;
  double service_ms_p50 = 0.0;
  int64_t inbox_depth_max = 0;
  double gen_late_ms_p99 = 0.0;
  double rpc_open_ms_p50 = 0.0;
  double rpc_push_ms_p50 = 0.0;
  double rpc_push_ms_p99 = 0.0;
  double rpc_finish_ms_p50 = 0.0;
  double rpc_status_ms_p50 = 0.0;
  double rpc_tick_ms_p50 = 0.0;
  double checkpoint_ms_p50 = 0.0;
  double journal_bytes_per_event = 0.0;
  int64_t journal_segments = 0;
  double srv_cpu_s = 0.0;
  int64_t pushes_rejected = 0;
  int64_t pushes_shed = 0;
  int64_t downgrades = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
};

/// Prints the per-layer metrics (names and units as in BENCHMARK.json).
void AddPerLayerMetrics(const PerLayer& p, Report* report);

/// Checks of a traced run's span list: spans nest, and the root spans cover
/// the traced wall time (so the self times account for it). Adds an info
/// line; returns false when a check fails.
bool CheckSpans(const PerLayer& p, Report* report);

int RunOffline(const Options& opt);
int RunStream(const Options& opt);
int RunServe(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
