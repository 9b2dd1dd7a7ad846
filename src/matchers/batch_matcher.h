#ifndef LHMM_MATCHERS_BATCH_MATCHER_H_
#define LHMM_MATCHERS_BATCH_MATCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "matchers/matcher.h"
#include "network/path_cache.h"

namespace lhmm::matchers {

/// Builds a fresh, independent matcher instance. Every worker thread of a
/// BatchMatcher owns one clone, so nothing mutable (engine, routing scratch,
/// per-trajectory state) is ever shared between threads. Heavy read-only
/// assets — the road network, the grid index, a trained LhmmModel — are
/// shared by capture in the factory closure.
using MatcherFactory = std::function<std::unique_ptr<MapMatcher>()>;

struct BatchConfig {
  /// Worker threads; 0 means core::ThreadPool::DefaultThreadCount().
  int num_threads = 0;
  /// Optional thread-safe route cache installed into every worker clone (via
  /// MapMatcher::UseSharedRouter), so shortest-path results amortize across
  /// workers exactly as they amortize across trajectories in serial runs.
  network::CachedRouter* shared_router = nullptr;
};

/// Wall-clock accounting of the last batch run.
struct BatchStats {
  double wall_s = 0.0;   ///< Batch wall-clock time.
  double work_s = 0.0;   ///< Summed worker busy time (serial-cost estimate).
  int num_threads = 1;
  int64_t items = 0;
  /// Effective speedup over a serial run of the same work: work_s / wall_s.
  double Speedup() const { return wall_s > 0.0 ? work_s / wall_s : 0.0; }
};

/// Parallel batch map matching: shards a trajectory set across N worker
/// clones of one matcher produced by a MatcherFactory. Workers pull indices
/// from a shared counter (dynamic load balancing — trajectory match times
/// vary by an order of magnitude), and every result lands in its input slot,
/// so output order is the input order and results are byte-identical across
/// thread counts (see tests/batch_test.cc for the enforced contract).
class BatchMatcher {
 public:
  explicit BatchMatcher(MatcherFactory factory, const BatchConfig& config = {});
  ~BatchMatcher();

  BatchMatcher(const BatchMatcher&) = delete;
  BatchMatcher& operator=(const BatchMatcher&) = delete;

  /// Matches every trajectory; results are parallel to the input. When
  /// `times_s` is non-null it receives the per-trajectory Match() wall time.
  std::vector<MatchResult> MatchAll(const std::vector<traj::Trajectory>& trajs,
                                    std::vector<double>* times_s = nullptr);

  /// General sharded loop: runs fn(worker_matcher, index) for every index in
  /// [0, n). Each invocation gets a matcher clone no other concurrent
  /// invocation touches; fn must confine its writes to per-index slots.
  /// Evaluation harnesses use this to fold metric computation into the
  /// parallel region.
  void ForEach(int64_t n, const std::function<void(MapMatcher*, int64_t)>& fn);

  /// Display name / candidate support of the underlying matcher family.
  std::string name() const { return probe_->name(); }
  bool provides_candidates() const { return probe_->ProvidesCandidates(); }

  int num_threads() const { return num_threads_; }
  const BatchStats& last_stats() const { return stats_; }

 private:
  MapMatcher* Worker(int w);

  MatcherFactory factory_;
  BatchConfig config_;
  int num_threads_;
  /// Worker clones, created lazily; workers_[0] doubles as the probe.
  std::vector<std::unique_ptr<MapMatcher>> workers_;
  MapMatcher* probe_;
  std::unique_ptr<core::ThreadPool> pool_;
  BatchStats stats_;
};

}  // namespace lhmm::matchers

#endif  // LHMM_MATCHERS_BATCH_MATCHER_H_
