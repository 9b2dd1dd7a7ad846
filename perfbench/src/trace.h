// Span tracing for the benchmark's traced runs. Every span is recorded from
// the benchmark's own files, by wrapping a public interface of the library:
//
//   TracingSegmentRouter  network::SegmentRouter (the Dijkstra behind a cache)
//   TracingCachedRouter   network::CachedRouter (installed via UseSharedRouter)
//   TracingObservation    hmm::ObservationModel
//   TracingTransition     hmm::TransitionModel
//   TracedLhmmMatcher     matchers::MapMatcher: an hmm::Engine, or an
//                         OnlineSession for streaming, over the wrapped models
//                         of a real LhmmMatcher, built as LhmmMatcher builds
//                         its own.
//
// A Tracer is single-threaded: traced runs use one matcher thread.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "matchers/batch_matcher.h"
#include "network/path_cache.h"

namespace perfbench {

enum SpanName : uint16_t {
  kSpanMatch,             ///< hmm::Engine::Match (one trajectory).
  kSpanSessionPush,       ///< StreamingSession::Push.
  kSpanSessionFinish,     ///< StreamingSession::Finish.
  kSpanObsBegin,          ///< ObservationModel::BeginTrajectory.
  kSpanObsCandidates,     ///< ObservationModel::Candidates.
  kSpanObsMakeCandidate,  ///< ObservationModel::MakeCandidate.
  kSpanTransition,        ///< TransitionModel::Transition.
  kSpanRouteMany,         ///< CachedRouter::RouteMany.
  kSpanRoute1,            ///< CachedRouter::Route1.
  kSpanDijkstra,          ///< SegmentRouter::RouteMany / Route1 (cache misses).
  kNumSpanNames
};
const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< Index of the enclosing span, -1 for a root.
  uint32_t trace_id = 0;  ///< Trajectory (offline) or session (streaming).
  SpanName name = kSpanMatch;
};

/// Per-name aggregate of a span list.
struct SpanTotals {
  int64_t calls[kNumSpanNames] = {};
  double total_ms[kNumSpanNames] = {};  ///< Inclusive.
  double self_ms[kNumSpanNames] = {};   ///< Minus the time of child spans.
  double root_ms = 0.0;                 ///< Sum of root span durations.
  bool nesting_ok = true;               ///< Children inside parents, all closed.
};

class Tracer {
 public:
  int Begin(SpanName name);
  void End(int index);
  void set_trace_id(uint32_t id) { trace_id_ = id; }
  /// A fresh id for the next trajectory or session.
  uint32_t NewTraceId() { return next_trace_id_++; }

  /// Counts kept at the same boundaries as the spans.
  int64_t route_many_targets = 0;
  int64_t transitions_without_route = 0;
  int64_t shortcuts_applied = 0;

  const std::vector<Span>& spans() const { return spans_; }
  SpanTotals Totals() const;
  /// Writes the spans as TSV: trace_id, name, start_ns, end_ns, parent.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  uint32_t trace_id_ = 0;
  uint32_t next_trace_id_ = 0;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

class TracingSegmentRouter : public lhmm::network::SegmentRouter {
 public:
  TracingSegmentRouter(const lhmm::network::RoadNetwork* net, Tracer* tracer)
      : SegmentRouter(net), tracer_(tracer) {}
  std::optional<lhmm::network::Route> Route1(SegmentId from, SegmentId to,
                                             double max_length) override;
  std::vector<std::optional<lhmm::network::Route>> RouteMany(
      SegmentId from, const std::vector<SegmentId>& targets,
      double max_length) override;

 private:
  Tracer* tracer_;
};

class TracingCachedRouter : public lhmm::network::CachedRouter {
 public:
  /// `router` must outlive this cache.
  TracingCachedRouter(TracingSegmentRouter* router, Tracer* tracer)
      : CachedRouter(router), tracer_(tracer) {}
  std::optional<lhmm::network::Route> Route1(SegmentId from, SegmentId to,
                                             double max_length) override;
  std::vector<std::optional<lhmm::network::Route>> RouteMany(
      SegmentId from, const std::vector<SegmentId>& targets,
      double max_length) override;

 private:
  Tracer* tracer_;
};

/// A cold traced router: the Dijkstra router and the cache in front of it.
struct TracedRouter {
  TracedRouter(const lhmm::network::RoadNetwork* net, Tracer* tracer)
      : dijkstra(net, tracer), cache(&dijkstra, tracer) {}
  TracingSegmentRouter dijkstra;
  TracingCachedRouter cache;
};

/// Factory of TracedLhmmMatcher clones, configured as the real matcher;
/// counts shortcuts across them.
lhmm::matchers::MatcherFactory TracedLhmmFactory(const World* world,
                                                 Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
