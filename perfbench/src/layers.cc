#include <cmath>
#include <cstdio>

#include "lhmm/lhmm_matcher.h"
#include "workloads.h"

namespace perfbench {

namespace matchers = ::lhmm::matchers;
namespace traj = ::lhmm::traj;

matchers::MatcherFactory LhmmFactory(const World* world) {
  return [world]() -> std::unique_ptr<matchers::MapMatcher> {
    return std::make_unique<L::LhmmMatcher>(&world->bundle.net,
                                            world->index.get(), world->model);
  };
}

namespace {

class StampingSession : public matchers::StreamingSession {
 public:
  StampingSession(std::unique_ptr<matchers::StreamingSession> inner,
                  std::shared_ptr<SessionStamps> stamps)
      : inner_(std::move(inner)), stamps_(std::move(stamps)) {}

  std::vector<SegmentId> Push(const traj::TrajPoint& point) override {
    stamps_->push_start_ns.push_back(NowNs());
    std::vector<SegmentId> out = inner_->Push(point);
    stamps_->push_end_ns.push_back(NowNs());
    return out;
  }
  std::vector<SegmentId> Finish() override {
    std::vector<SegmentId> out = inner_->Finish();
    stamps_->finish_end_ns = NowNs();
    return out;
  }
  void Reset() override { inner_->Reset(); }
  const std::vector<SegmentId>& committed() const override {
    return inner_->committed();
  }
  matchers::SessionStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<matchers::StreamingSession> inner_;
  std::shared_ptr<SessionStamps> stamps_;
};

/// Delegates everything to the wrapped matcher; only its sessions are
/// wrapped.
class StampingMatcher : public matchers::MapMatcher {
 public:
  StampingMatcher(std::unique_ptr<matchers::MapMatcher> inner,
                  std::shared_ptr<SessionStamps> stamps)
      : inner_(std::move(inner)), stamps_(std::move(stamps)) {}

  std::string name() const override { return inner_->name(); }
  matchers::MatchResult Match(const traj::Trajectory& t) override {
    return inner_->Match(t);
  }
  bool ProvidesCandidates() const override { return inner_->ProvidesCandidates(); }
  void UseSharedRouter(lhmm::network::CachedRouter* shared) override {
    inner_->UseSharedRouter(shared);
  }
  bool SupportsStreaming() const override { return inner_->SupportsStreaming(); }
  std::unique_ptr<matchers::StreamingSession> OpenSession(
      const matchers::StreamConfig& config) override {
    std::unique_ptr<matchers::StreamingSession> session =
        inner_->OpenSession(config);
    if (session == nullptr) return nullptr;
    return std::make_unique<StampingSession>(std::move(session), stamps_);
  }

 private:
  std::unique_ptr<matchers::MapMatcher> inner_;
  std::shared_ptr<SessionStamps> stamps_;
};

}  // namespace

matchers::MatcherFactory StampingFactory(
    matchers::MatcherFactory inner,
    std::vector<std::shared_ptr<SessionStamps>>* registry) {
  return [inner, registry]() -> std::unique_ptr<matchers::MapMatcher> {
    auto stamps = std::make_shared<SessionStamps>();
    registry->push_back(stamps);
    return std::make_unique<StampingMatcher>(inner(), stamps);
  };
}

void AddPerLayerMetrics(const PerLayer& p, Report* r) {
  const SpanTotals& s = p.spans;
  r->Add("network.route_many.calls", s.calls[kSpanRouteMany], "count");
  r->Add("network.route_many.targets", p.route_many_targets, "count");
  r->Add("network.route_many.ms", s.self_ms[kSpanRouteMany], "ms");
  r->Add("network.route1.calls", s.calls[kSpanRoute1], "count");
  r->Add("network.route1.ms", s.self_ms[kSpanRoute1], "ms");
  r->Add("network.cache.hit_ratio", p.cache_hit_ratio, "ratio");
  r->Add("network.cache.entries", p.cache_entries, "count");
  r->Add("network.dijkstra.calls", s.calls[kSpanDijkstra], "count");
  r->Add("network.dijkstra.ms", s.self_ms[kSpanDijkstra], "ms");
  r->Add("lhmm.obs.begin.calls", s.calls[kSpanObsBegin], "count");
  r->Add("lhmm.obs.begin.ms", s.self_ms[kSpanObsBegin], "ms");
  r->Add("lhmm.obs.candidates.calls", s.calls[kSpanObsCandidates], "count");
  r->Add("lhmm.obs.candidates.ms", s.self_ms[kSpanObsCandidates], "ms");
  r->Add("lhmm.obs.make_candidate.calls", s.calls[kSpanObsMakeCandidate], "count");
  r->Add("lhmm.obs.make_candidate.ms", s.self_ms[kSpanObsMakeCandidate], "ms");
  r->Add("lhmm.trans.calls", s.calls[kSpanTransition], "count");
  r->Add("lhmm.trans.ms", s.self_ms[kSpanTransition], "ms");
  const int64_t trans = s.calls[kSpanTransition];
  r->Add("lhmm.trans.no_route_ratio",
         trans > 0 ? static_cast<double>(p.transitions_without_route) / trans : 0.0,
         "ratio");
  r->Add("hmm.engine.match_ms", s.total_ms[kSpanMatch], "ms");
  r->Add("hmm.engine.self_ms", s.self_ms[kSpanMatch], "ms");
  r->Add("hmm.shortcut.ms", p.shortcut_ms, "ms");
  r->Add("hmm.shortcut.applied", p.shortcuts_applied, "count");
  const double points = static_cast<double>(p.online_points);
  r->Add("hmm.online.candidates_per_point",
         points > 0 ? s.calls[kSpanObsCandidates] / points : 0.0, "count");
  r->Add("hmm.online.trans_per_point", points > 0 ? trans / points : 0.0, "count");
  r->Add("hmm.online.self_ms",
         s.self_ms[kSpanSessionPush] + s.self_ms[kSpanSessionFinish], "ms");
  r->Add("matchers.batch.busy_ratio", p.batch_busy_ratio, "ratio");
  r->Add("matchers.stream.point_ms_p50", p.point_ms_p50, "ms");
  r->Add("matchers.stream.point_ms_p95", p.point_ms_p95, "ms");
  r->Add("matchers.stream.queue_wait_ms_p50", p.queue_wait_ms_p50, "ms");
  r->Add("matchers.stream.queue_wait_ms_p99", p.queue_wait_ms_p99, "ms");
  r->Add("matchers.stream.service_ms_p50", p.service_ms_p50, "ms");
  r->Add("matchers.stream.inbox_depth_max", p.inbox_depth_max, "count");
  r->Add("gen.late_ms_p99", p.gen_late_ms_p99, "ms");
  r->Add("srv.rpc.open_ms_p50", p.rpc_open_ms_p50, "ms");
  r->Add("srv.rpc.push_ms_p50", p.rpc_push_ms_p50, "ms");
  r->Add("srv.rpc.push_ms_p99", p.rpc_push_ms_p99, "ms");
  r->Add("srv.rpc.finish_ms_p50", p.rpc_finish_ms_p50, "ms");
  r->Add("srv.rpc.status_ms_p50", p.rpc_status_ms_p50, "ms");
  r->Add("srv.rpc.tick_ms_p50", p.rpc_tick_ms_p50, "ms");
  r->Add("io.checkpoint_ms_p50", p.checkpoint_ms_p50, "ms");
  r->Add("io.journal.bytes_per_event", p.journal_bytes_per_event, "bytes");
  r->Add("io.journal.segments", p.journal_segments, "count");
  r->Add("srv.cpu_s", p.srv_cpu_s, "s");
  r->Add("srv.pushes_rejected", p.pushes_rejected, "count");
  r->Add("srv.pushes_shed", p.pushes_shed, "count");
  r->Add("srv.downgrades", p.downgrades, "count");

  // Layer shares of the traced match time, to set beside the gprof shares
  // recorded in the notes. Routing counts the cache and Dijkstra self times.
  const double root = s.root_ms;
  const auto share = [root](double ms) { return root > 0 ? ms / root : 0.0; };
  r->Add("trace.share.routing",
         share(s.self_ms[kSpanRouteMany] + s.self_ms[kSpanRoute1] +
               s.self_ms[kSpanDijkstra]),
         "ratio");
  r->Add("trace.share.trans", share(s.self_ms[kSpanTransition]), "ratio");
  r->Add("trace.share.obs",
         share(s.self_ms[kSpanObsBegin] + s.self_ms[kSpanObsCandidates] +
               s.self_ms[kSpanObsMakeCandidate]),
         "ratio");
  r->Add("trace.share.shortcut", share(p.shortcut_ms), "ratio");
  r->Add("trace.share.engine_self",
         share(s.self_ms[kSpanMatch] + s.self_ms[kSpanSessionPush] +
               s.self_ms[kSpanSessionFinish]),
         "ratio");
  r->Add("trace.root_coverage",
         p.traced_wall_s > 0 ? root / (1e3 * p.traced_wall_s) : 0.0, "ratio");
  r->Add("trace.overhead_ratio",
         p.untraced_wall_s > 0 ? p.traced_wall_s / p.untraced_wall_s : 0.0,
         "ratio");
}

bool CheckSpans(const PerLayer& p, Report* report) {
  const SpanTotals& s = p.spans;
  double self_sum = 0.0;
  for (int n = 0; n < kNumSpanNames; ++n) self_sum += s.self_ms[n];
  // Self times partition the root spans exactly (up to rounding); the roots
  // must cover nearly all of the traced wall time, or time went somewhere no
  // span saw.
  const double coverage = p.traced_wall_s > 0 ? s.root_ms / (1e3 * p.traced_wall_s) : 0;
  const bool partition_ok = std::abs(self_sum - s.root_ms) <= 1e-6 * s.root_ms + 1e-3;
  const bool ok = s.nesting_ok && partition_ok && coverage > 0.9 && coverage <= 1.0;
  char line[256];
  snprintf(line, sizeof(line),
           "spans nesting=%s self_sum_ms=%.3f root_ms=%.3f traced_wall_ms=%.3f "
           "coverage=%.4f -> %s",
           s.nesting_ok ? "ok" : "BAD", self_sum, s.root_ms, 1e3 * p.traced_wall_s,
           coverage, ok ? "ok" : "FAIL");
  report->Info(line);
  return ok;
}

}  // namespace perfbench
