#include "network/faulty_router.h"

#include <chrono>
#include <thread>

namespace lhmm::network {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64 -> 64 bit hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultyRouter::FaultyRouter(SegmentRouter* router, const FaultConfig& config)
    : CachedRouter(router), config_(config) {}

FaultyRouter::FaultyRouter(const RoadNetwork* net, const FaultConfig& config)
    : CachedRouter(net), config_(config) {}

double FaultyRouter::Draw(SegmentId from, SegmentId to, uint64_t salt) const {
  uint64_t h = Mix(config_.seed ^ salt);
  h = Mix(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32 |
               static_cast<uint32_t>(to)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultyRouter::IsFaulted(SegmentId from, SegmentId to) const {
  return Draw(from, to, /*salt=*/0x5fa17ULL) < config_.route_failure_rate;
}

bool FaultyRouter::IsDelayed(SegmentId from, SegmentId to) const {
  return config_.latency_rate > 0.0 && config_.latency_micros > 0 &&
         Draw(from, to, /*salt=*/0xde1a7ULL) < config_.latency_rate;
}

void FaultyRouter::MaybeDelay(SegmentId from, SegmentId to) {
  if (IsDelayed(from, to)) {
    injected_delays_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(config_.latency_micros));
  }
}

std::optional<Route> FaultyRouter::Route1(SegmentId from, SegmentId to,
                                          double max_length) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  MaybeDelay(from, to);
  if (IsFaulted(from, to)) {
    injected_failures_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Call the base batched form non-virtually: the base Route1 would dispatch
  // back into this class and double-count the query.
  std::vector<std::optional<Route>> routes =
      CachedRouter::RouteMany(from, {to}, max_length);
  return std::move(routes[0]);
}

std::vector<std::optional<Route>> FaultyRouter::RouteMany(
    SegmentId from, const std::vector<SegmentId>& targets, double max_length) {
  queries_.fetch_add(static_cast<int64_t>(targets.size()),
                     std::memory_order_relaxed);
  // Draw the latency decision per (from, target) pair, exactly as Route1
  // would, so injected_delays() counts pairs — not batches — and does not
  // depend on how callers group their targets. The sleeps are served as one
  // aggregate wait per batch; per-pair accounting stays exact.
  int64_t delayed = 0;
  for (const SegmentId to : targets) {
    if (IsDelayed(from, to)) ++delayed;
  }
  if (delayed > 0) {
    injected_delays_.fetch_add(delayed, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.latency_micros * delayed));
  }
  std::vector<std::optional<Route>> out =
      CachedRouter::RouteMany(from, targets, max_length);
  for (size_t i = 0; i < targets.size(); ++i) {
    // Count every faulted pair (as Route1 does), whether or not the
    // underlying query found a route, so the counter is a pure function of
    // the queried pairs and usable in determinism assertions.
    if (IsFaulted(from, targets[i])) {
      injected_failures_.fetch_add(1, std::memory_order_relaxed);
      out[i].reset();
    }
  }
  return out;
}

}  // namespace lhmm::network
