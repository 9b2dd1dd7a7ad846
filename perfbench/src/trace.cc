#include "trace.h"

#include <cstdio>

#include "core/logging.h"
#include "hmm/engine.h"
#include "hmm/models.h"
#include "lhmm/lhmm_matcher.h"
#include "matchers/matcher.h"
#include "matchers/streaming.h"

namespace perfbench {

namespace net = ::lhmm::network;
namespace hmm = ::lhmm::hmm;
namespace matchers = ::lhmm::matchers;
namespace traj = ::lhmm::traj;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kSpanMatch: return "engine.match";
    case kSpanSessionPush: return "session.push";
    case kSpanSessionFinish: return "session.finish";
    case kSpanObsBegin: return "obs.begin";
    case kSpanObsCandidates: return "obs.candidates";
    case kSpanObsMakeCandidate: return "obs.make_candidate";
    case kSpanTransition: return "trans";
    case kSpanRouteMany: return "route_many";
    case kSpanRoute1: return "route1";
    case kSpanDijkstra: return "dijkstra";
    case kNumSpanNames: break;
  }
  return "?";
}

int Tracer::Begin(SpanName name) {
  Span s;
  s.name = name;
  s.trace_id = trace_id_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::End(int index) {
  spans_[index].end_ns = NowNs();
  CHECK(!stack_.empty() && stack_.back() == index) << "unbalanced span";
  stack_.pop_back();
}

SpanTotals Tracer::Totals() const {
  SpanTotals t;
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ms = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    if (s.end_ns < s.start_ns) t.nesting_ok = false;
    if (s.parent >= 0) {
      const Span& p = spans_[s.parent];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) t.nesting_ok = false;
      child_ms[s.parent] += ms;
    } else {
      t.root_ms += ms;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ms = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    t.calls[s.name] += 1;
    t.total_ms[s.name] += ms;
    t.self_ms[s.name] += ms - child_ms[i];
  }
  return t;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "trace_id\tname\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans_) {
    fprintf(f, "%u\t%s\t%lld\t%lld\t%d\n", s.trace_id, SpanNameString(s.name),
            static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
            s.parent);
  }
  return fclose(f) == 0;
}

std::optional<net::Route> TracingSegmentRouter::Route1(SegmentId from,
                                                       SegmentId to,
                                                       double max_length) {
  ScopedSpan span(tracer_, kSpanDijkstra);
  return SegmentRouter::Route1(from, to, max_length);
}

std::vector<std::optional<net::Route>> TracingSegmentRouter::RouteMany(
    SegmentId from, const std::vector<SegmentId>& targets, double max_length) {
  ScopedSpan span(tracer_, kSpanDijkstra);
  return SegmentRouter::RouteMany(from, targets, max_length);
}

std::optional<net::Route> TracingCachedRouter::Route1(SegmentId from,
                                                      SegmentId to,
                                                      double max_length) {
  ScopedSpan span(tracer_, kSpanRoute1);
  return CachedRouter::Route1(from, to, max_length);
}

std::vector<std::optional<net::Route>> TracingCachedRouter::RouteMany(
    SegmentId from, const std::vector<SegmentId>& targets, double max_length) {
  ScopedSpan span(tracer_, kSpanRouteMany);
  tracer_->route_many_targets += static_cast<int64_t>(targets.size());
  return CachedRouter::RouteMany(from, targets, max_length);
}

namespace {

class TracingObservation : public hmm::ObservationModel {
 public:
  TracingObservation(hmm::ObservationModel* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void BeginTrajectory(const traj::Trajectory& t) override {
    ScopedSpan span(tracer_, kSpanObsBegin);
    inner_->BeginTrajectory(t);
  }
  hmm::CandidateSet Candidates(const traj::Trajectory& t, int i, int k) override {
    ScopedSpan span(tracer_, kSpanObsCandidates);
    return inner_->Candidates(t, i, k);
  }
  hmm::Candidate MakeCandidate(const traj::Trajectory& t, int i,
                               SegmentId segment) override {
    ScopedSpan span(tracer_, kSpanObsMakeCandidate);
    return inner_->MakeCandidate(t, i, segment);
  }

 private:
  hmm::ObservationModel* inner_;
  Tracer* tracer_;
};

class TracingTransition : public hmm::TransitionModel {
 public:
  TracingTransition(hmm::TransitionModel* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void BeginTrajectory(const traj::Trajectory& t) override {
    inner_->BeginTrajectory(t);
  }
  double Transition(const traj::Trajectory& t, int prev_index, int cur_index,
                    const hmm::Candidate& prev, const hmm::Candidate& cur,
                    const net::Route* route, double straight_dist) override {
    ScopedSpan span(tracer_, kSpanTransition);
    if (route == nullptr) ++tracer_->transitions_without_route;
    return inner_->Transition(t, prev_index, cur_index, prev, cur, route,
                              straight_dist);
  }

 private:
  hmm::TransitionModel* inner_;
  Tracer* tracer_;
};

/// Spans every Push/Finish of a streaming session under the session's id.
class TracingSession : public matchers::StreamingSession {
 public:
  TracingSession(std::unique_ptr<matchers::StreamingSession> inner,
                 Tracer* tracer, uint32_t id)
      : inner_(std::move(inner)), tracer_(tracer), id_(id) {}

  std::vector<SegmentId> Push(const traj::TrajPoint& point) override {
    tracer_->set_trace_id(id_);
    ScopedSpan span(tracer_, kSpanSessionPush);
    return inner_->Push(point);
  }
  std::vector<SegmentId> Finish() override {
    tracer_->set_trace_id(id_);
    ScopedSpan span(tracer_, kSpanSessionFinish);
    return inner_->Finish();
  }
  void Reset() override { inner_->Reset(); }
  const std::vector<SegmentId>& committed() const override {
    return inner_->committed();
  }
  matchers::SessionStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<matchers::StreamingSession> inner_;
  Tracer* tracer_;
  uint32_t id_;
};

/// An LhmmMatcher whose models and router calls are spanned. The engine and
/// the online session are built exactly as LhmmMatcher builds its own, over
/// the real matcher's models, so matched paths are unchanged (the traced and
/// untraced digests are compared by every traced run).
class TracedLhmmMatcher : public matchers::MapMatcher {
 public:
  TracedLhmmMatcher(const World* world, Tracer* tracer)
      : world_(world),
        tracer_(tracer),
        inner_(&world->bundle.net, world->index.get(), world->model),
        obs_(inner_.engine()->observation_model(), tracer),
        trans_(inner_.engine()->transition_model(), tracer),
        config_(inner_.engine()->config()) {}

  std::string name() const override { return "LHMM-traced"; }
  bool ProvidesCandidates() const override { return true; }
  bool SupportsStreaming() const override { return true; }

  void UseSharedRouter(net::CachedRouter* shared) override {
    router_ = shared;
    engine_ = std::make_unique<hmm::Engine>(&world_->bundle.net, shared, &obs_,
                                            &trans_, config_);
  }

  matchers::MatchResult Match(const traj::Trajectory& t) override {
    CHECK(engine_ != nullptr) << "install a shared router first";
    tracer_->set_trace_id(tracer_->NewTraceId());
    const int64_t applied_before = engine_->shortcuts_applied();
    hmm::EngineResult er;
    {
      ScopedSpan span(tracer_, kSpanMatch);
      er = engine_->Match(t);
    }
    tracer_->shortcuts_applied += engine_->shortcuts_applied() - applied_before;
    matchers::MatchResult out;
    out.path = std::move(er.path);
    out.candidates = std::move(er.candidates);
    out.point_index = std::move(er.point_index);
    return out;
  }

  std::unique_ptr<matchers::StreamingSession> OpenSession(
      const matchers::StreamConfig& config) override {
    CHECK(router_ != nullptr) << "install a shared router first";
    hmm::OnlineConfig oc;
    oc.k = config_.k;
    oc.lag = config.lag;
    oc.route_bound_alpha = config_.route_bound_alpha;
    oc.route_bound_beta = config_.route_bound_beta;
    oc.max_route_bound = config_.max_route_bound;
    return std::make_unique<TracingSession>(
        std::make_unique<matchers::OnlineSession>(&world_->bundle.net, router_,
                                                  &obs_, &trans_, oc),
        tracer_, tracer_->NewTraceId());
  }

 private:
  const World* world_;
  Tracer* tracer_;
  L::LhmmMatcher inner_;
  TracingObservation obs_;
  TracingTransition trans_;
  hmm::EngineConfig config_;
  net::CachedRouter* router_ = nullptr;
  std::unique_ptr<hmm::Engine> engine_;
};

}  // namespace

matchers::MatcherFactory TracedLhmmFactory(const World* world, Tracer* tracer) {
  return [world, tracer]() -> std::unique_ptr<matchers::MapMatcher> {
    return std::make_unique<TracedLhmmMatcher>(world, tracer);
  };
}

}  // namespace perfbench
