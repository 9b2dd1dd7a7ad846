#ifndef LHMM_NETWORK_PATH_CACHE_H_
#define LHMM_NETWORK_PATH_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "network/grid_index.h"
#include "network/shortest_path.h"

namespace lhmm::network {

/// Memoizing wrapper around SegmentRouter. The paper notes that HMM matchers
/// "can use a precomputation table to avoid the bottleneck of repeated
/// shortest path searches" [11]; this is that table, filled lazily. Negative
/// results (unreachable within the bound) are cached too.
///
/// Thread safe: the table is sharded under striped mutexes, hit/miss counters
/// are atomic, and concurrent cache misses each run their Dijkstra on a
/// private SegmentRouter drawn from an internal pool (SegmentRouter keeps
/// mutable scratch and must not be shared). One CachedRouter can therefore be
/// shared by every worker of a parallel batch match, so route results still
/// amortize across threads. Caching is semantically transparent — a query
/// returns exactly what an uncached SegmentRouter would — which is what makes
/// matching results independent of thread count and interleaving.
class CachedRouter {
 public:
  /// Wraps an external router (must outlive this wrapper). The router becomes
  /// the pool's first member; additional routers are created on demand when
  /// queries overlap in time.
  explicit CachedRouter(SegmentRouter* router);

  /// Self-contained variant: all pooled routers are owned.
  explicit CachedRouter(const RoadNetwork* net);

  virtual ~CachedRouter() = default;

  /// Shortest route from `from` to `to` bounded by `max_length`. A cached
  /// entry is reused only if it was computed with a bound at least as large.
  /// Virtual so fault-injection wrappers (network::FaultyRouter) can stand in
  /// anywhere a CachedRouter* is accepted.
  virtual std::optional<Route> Route1(SegmentId from, SegmentId to,
                                      double max_length);

  /// Batched variant mirroring SegmentRouter::RouteMany. Runs at most one
  /// Dijkstra for all cache misses.
  virtual std::vector<std::optional<Route>> RouteMany(
      SegmentId from, const std::vector<SegmentId>& targets, double max_length);

  /// Precomputes routes from every segment to all segments within `radius`
  /// meters (the FMM-style precomputation table of [11] the paper mentions:
  /// "The HMM can use a precomputation table to avoid the bottleneck of
  /// repeated shortest path searches"). Eager and memory-proportional to
  /// (segments x neighbors); use for repeated batch matching on one network.
  void WarmAll(const GridIndex& index, double radius);

  /// Diagnostics. Every individual target of every query increments exactly
  /// one of the two counters, so hits() + misses() equals the number of
  /// (from, to) lookups served since construction / Clear().
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;
  void Clear();

  /// Number of striped table shards.
  static constexpr int kShards = 16;

 private:
  struct Entry {
    std::optional<Route> route;
    double bound = 0.0;  ///< max_length used when the entry was computed.
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;
  };

  static uint64_t Key(SegmentId from, SegmentId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }
  Shard& ShardOf(uint64_t key) {
    return *shards_[(key ^ (key >> 32)) % kShards];
  }

  /// Checks out a router for one Dijkstra; returned to the pool afterwards.
  SegmentRouter* AcquireRouter();
  void ReleaseRouter(SegmentRouter* router);

  const RoadNetwork* net_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};

  std::mutex pool_mu_;
  std::vector<SegmentRouter*> free_routers_;
  std::vector<std::unique_ptr<SegmentRouter>> owned_routers_;
};

}  // namespace lhmm::network

#endif  // LHMM_NETWORK_PATH_CACHE_H_
