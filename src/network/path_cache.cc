#include "network/path_cache.h"

#include "core/logging.h"

namespace lhmm::network {

CachedRouter::CachedRouter(SegmentRouter* router)
    : CachedRouter(router->network()) {
  free_routers_.push_back(router);
}

CachedRouter::CachedRouter(const RoadNetwork* net) : net_(net) {
  CHECK(net != nullptr);
  shards_.reserve(kShards);
  for (int i = 0; i < kShards; ++i) shards_.push_back(std::make_unique<Shard>());
}

SegmentRouter* CachedRouter::AcquireRouter() {
  std::unique_lock<std::mutex> lock(pool_mu_);
  if (!free_routers_.empty()) {
    SegmentRouter* r = free_routers_.back();
    free_routers_.pop_back();
    return r;
  }
  owned_routers_.push_back(std::make_unique<SegmentRouter>(net_));
  return owned_routers_.back().get();
}

void CachedRouter::ReleaseRouter(SegmentRouter* router) {
  std::unique_lock<std::mutex> lock(pool_mu_);
  free_routers_.push_back(router);
}

size_t CachedRouter::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

void CachedRouter::Clear() {
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

void CachedRouter::WarmAll(const GridIndex& index, double radius) {
  const RoadNetwork& net = *index.network();
  std::vector<SegmentId> targets;
  for (SegmentId from = 0; from < net.num_segments(); ++from) {
    const geo::Polyline& geom = net.segment(from).geometry;
    const geo::Point mid = geom.PointAt(geom.Length() / 2.0);
    targets.clear();
    for (const SegmentHit& hit : index.Query(mid, radius)) {
      targets.push_back(hit.segment);
    }
    (void)RouteMany(from, targets, radius * 2.0);
  }
}

std::optional<Route> CachedRouter::Route1(SegmentId from, SegmentId to,
                                          double max_length) {
  std::vector<std::optional<Route>> routes = RouteMany(from, {to}, max_length);
  return std::move(routes[0]);
}

std::vector<std::optional<Route>> CachedRouter::RouteMany(
    SegmentId from, const std::vector<SegmentId>& targets, double max_length) {
  std::vector<std::optional<Route>> out(targets.size());
  std::vector<SegmentId> missing;
  std::vector<size_t> missing_pos;
  int64_t hit_count = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const uint64_t key = Key(from, targets[i]);
    Shard& shard = ShardOf(key);
    std::unique_lock<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end() &&
        (it->second.route.has_value() || it->second.bound >= max_length)) {
      // A found route is valid for any bound >= its length; a negative entry
      // is only valid if it was computed with at least this bound.
      if (it->second.route.has_value() && it->second.route->length > max_length) {
        // Route exists but exceeds the caller's bound.
        ++hit_count;
        continue;
      }
      out[i] = it->second.route;
      ++hit_count;
      continue;
    }
    lock.unlock();
    missing.push_back(targets[i]);
    missing_pos.push_back(i);
  }
  if (hit_count > 0) hits_.fetch_add(hit_count, std::memory_order_relaxed);
  if (!missing.empty()) {
    misses_.fetch_add(static_cast<int64_t>(missing.size()),
                      std::memory_order_relaxed);
    SegmentRouter* router = AcquireRouter();
    std::vector<std::optional<Route>> fresh =
        router->RouteMany(from, missing, max_length);
    ReleaseRouter(router);
    for (size_t j = 0; j < missing.size(); ++j) {
      const uint64_t key = Key(from, missing[j]);
      Shard& shard = ShardOf(key);
      {
        std::unique_lock<std::mutex> lock(shard.mu);
        // Concurrent fills of one key are benign (Dijkstra is deterministic),
        // but never let a tighter-bound negative overwrite a found route.
        Entry& entry = shard.map[key];
        if (!entry.route.has_value() || fresh[j].has_value()) {
          entry = Entry{fresh[j], max_length};
        }
      }
      out[missing_pos[j]] = std::move(fresh[j]);
    }
  }
  return out;
}

}  // namespace lhmm::network
