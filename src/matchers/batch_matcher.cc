#include "matchers/batch_matcher.h"

#include <algorithm>
#include <atomic>

#include "core/logging.h"
#include "core/stopwatch.h"

namespace lhmm::matchers {

BatchMatcher::BatchMatcher(MatcherFactory factory, const BatchConfig& config)
    : factory_(std::move(factory)), config_(config) {
  CHECK(factory_ != nullptr);
  num_threads_ = config_.num_threads > 0 ? config_.num_threads
                                         : core::ThreadPool::DefaultThreadCount();
  workers_.push_back(factory_());
  CHECK(workers_[0] != nullptr) << "factory returned null matcher";
  if (config_.shared_router != nullptr) {
    workers_[0]->UseSharedRouter(config_.shared_router);
  }
  probe_ = workers_[0].get();
  if (num_threads_ > 1) {
    pool_ = std::make_unique<core::ThreadPool>(num_threads_);
  }
}

BatchMatcher::~BatchMatcher() = default;

MapMatcher* BatchMatcher::Worker(int w) {
  // Called from the main thread only (before tasks are submitted).
  while (static_cast<int>(workers_.size()) <= w) {
    workers_.push_back(factory_());
    CHECK(workers_.back() != nullptr) << "factory returned null matcher";
    if (config_.shared_router != nullptr) {
      workers_.back()->UseSharedRouter(config_.shared_router);
    }
  }
  return workers_[w].get();
}

void BatchMatcher::ForEach(int64_t n,
                           const std::function<void(MapMatcher*, int64_t)>& fn) {
  stats_ = BatchStats{};
  stats_.num_threads = num_threads_;
  stats_.items = n;
  if (n <= 0) return;
  core::Stopwatch wall;
  if (num_threads_ == 1 || n == 1) {
    MapMatcher* m = Worker(0);
    for (int64_t i = 0; i < n; ++i) fn(m, i);
    stats_.wall_s = wall.ElapsedSeconds();
    stats_.work_s = stats_.wall_s;
    return;
  }
  const int active = static_cast<int>(
      std::min<int64_t>(static_cast<int64_t>(num_threads_), n));
  for (int w = 0; w < active; ++w) Worker(w);  // Clone before going parallel.
  std::atomic<int64_t> next{0};
  std::vector<double> busy(active, 0.0);  // Per-worker slot: no sharing.
  for (int w = 0; w < active; ++w) {
    MapMatcher* m = workers_[w].get();
    double* busy_slot = &busy[w];
    pool_->Submit([m, n, &next, &fn, busy_slot] {
      core::Stopwatch watch;
      for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(m, i);
      }
      *busy_slot = watch.ElapsedSeconds();
    });
  }
  pool_->Wait();
  stats_.wall_s = wall.ElapsedSeconds();
  for (double b : busy) stats_.work_s += b;
}

std::vector<MatchResult> BatchMatcher::MatchAll(
    const std::vector<traj::Trajectory>& trajs, std::vector<double>* times_s) {
  const int64_t n = static_cast<int64_t>(trajs.size());
  std::vector<MatchResult> results(n);
  std::vector<double> times(n, 0.0);
  ForEach(n, [&trajs, &results, &times](MapMatcher* m, int64_t i) {
    core::Stopwatch watch;
    results[i] = m->Match(trajs[i]);
    times[i] = watch.ElapsedSeconds();
  });
  if (times_s != nullptr) *times_s = std::move(times);
  return results;
}

}  // namespace lhmm::matchers
