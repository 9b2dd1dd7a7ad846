#ifndef LHMM_NETWORK_FAULTY_ROUTER_H_
#define LHMM_NETWORK_FAULTY_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "network/path_cache.h"

namespace lhmm::network {

/// Fault-injection knobs. Rates are probabilities in [0, 1].
struct FaultConfig {
  /// Fraction of (from, to) segment pairs whose route queries always fail
  /// (return nullopt), simulating a routing subsystem outage, a graph hole,
  /// or a timeout on that pair.
  double route_failure_rate = 0.0;
  /// Fraction of (from, to) pairs whose queries are delayed by
  /// `latency_micros` before answering — shakes up thread interleavings
  /// without changing any result.
  double latency_rate = 0.0;
  int latency_micros = 50;
  uint64_t seed = 1;
};

/// A CachedRouter that deterministically injects failures: it drops in
/// anywhere a CachedRouter* is accepted (UseSharedRouter, StreamEngineConfig,
/// hmm::Engine), so the whole matching stack can be exercised against a
/// misbehaving routing layer.
///
/// Fault decisions are a pure hash of (seed, from, to) — not of call order,
/// thread, or cache state — so a faulted pair fails on every query and
/// results stay byte-identical across thread counts and interleavings, which
/// keeps the determinism contracts testable under injected faults. Latency
/// injection sleeps but never alters an answer. Thread safe exactly like
/// CachedRouter; counters are atomic.
class FaultyRouter : public CachedRouter {
 public:
  /// Wraps an external SegmentRouter (must outlive this wrapper).
  FaultyRouter(SegmentRouter* router, const FaultConfig& config);

  /// Self-contained variant over `net`.
  FaultyRouter(const RoadNetwork* net, const FaultConfig& config);

  std::optional<Route> Route1(SegmentId from, SegmentId to,
                              double max_length) override;
  std::vector<std::optional<Route>> RouteMany(
      SegmentId from, const std::vector<SegmentId>& targets,
      double max_length) override;

  /// True when queries from -> to are configured to fail.
  bool IsFaulted(SegmentId from, SegmentId to) const;

  /// True when queries from -> to are configured to be delayed.
  bool IsDelayed(SegmentId from, SegmentId to) const;

  /// Total (from, to) lookups answered, failures injected into them, and
  /// latency delays served, since construction.
  int64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  int64_t injected_failures() const {
    return injected_failures_.load(std::memory_order_relaxed);
  }
  int64_t injected_delays() const {
    return injected_delays_.load(std::memory_order_relaxed);
  }

  const FaultConfig& fault_config() const { return config_; }

 private:
  /// Uniform [0, 1) draw fully determined by (seed, from, to, salt).
  double Draw(SegmentId from, SegmentId to, uint64_t salt) const;
  void MaybeDelay(SegmentId from, SegmentId to);

  FaultConfig config_;
  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> injected_failures_{0};
  std::atomic<int64_t> injected_delays_{0};
};

}  // namespace lhmm::network

#endif  // LHMM_NETWORK_FAULTY_ROUTER_H_
