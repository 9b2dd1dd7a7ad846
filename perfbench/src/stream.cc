// stream-hz: in-process fixed-lag streaming through matchers::StreamEngine at
// two threads, lag 8, one session per trajectory, many sessions live at once,
// against one shared route cache that the first batch warms.
//
//   Phase 1 (capacity): every session opened up front and fed round-robin
//   with PushBlocking as fast as the engine takes points.
//   Phase 2 (latency): an open loop. Session k arrives at k * A and pushes
//   its points kPointGapS apart; A is set so the offered rate is
//   kOfferedPointsPerS. Each point is timed from its due time until its
//   session has processed it.
//
// The two phases alternate over kRounds rounds (see workloads.h).
#include <algorithm>
#include <cstdio>

#include "core/logging.h"
#include "workloads.h"

namespace perfbench {

namespace matchers = ::lhmm::matchers;
namespace net = ::lhmm::network;

namespace {

/// The traced runs use the first kTracedSessions of phase 1.
constexpr int kTracedSessions = 16;
constexpr int kSmokeSessions = 4;

/// Timings of one open-loop phase.
struct OpenLoop {
  std::vector<matchers::SessionId> ids;
  /// Per push that re-scores the window (its session already holds kLag
  /// points): due -> processed, enqueue -> session Push starts, and the Push
  /// itself. The first kLag pushes of a session only buffer; mixing the two
  /// kinds makes a median jump between them.
  std::vector<double> point_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  /// Last point due -> finish processed, for sessions longer than kLag: in
  /// shorter ones the last push only buffers and the finish is the only
  /// work, which again makes the median jump between two kinds.
  std::vector<double> traj_ms;
  std::vector<double> late_ms;  ///< Generator lateness, per event.
  int64_t inbox_depth_max = 0;
  double wall_s = 0.0;
};

/// Runs `inputs` as one open-loop stretch and appends its timings to `*out`.
void RunOpenLoop(matchers::StreamEngine* engine,
                 const std::vector<std::shared_ptr<SessionStamps>>& registry,
                 const std::vector<Input>& inputs, OpenLoop* out, int64_t* failed) {
  if (inputs.empty()) return;
  struct Event {
    double due;
    int k;
    int j;
  };
  int64_t points = 0;
  for (const Input& in : inputs) points += in.points.size();
  const double arrival_gap =
      static_cast<double>(points) / inputs.size() / kOfferedPointsPerS;
  const double start = NowS() + 0.02;
  std::vector<Event> events;
  for (int k = 0; k < static_cast<int>(inputs.size()); ++k) {
    const int len = std::max(1, inputs[k].points.size());
    for (int j = 0; j < len; ++j) {
      events.push_back({start + k * arrival_gap + j * kPointGapS, k, j});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due < b.due; });

  const size_t base = out->ids.size();
  out->ids.resize(base + inputs.size(), -1);
  std::vector<std::vector<int64_t>> enqueue_ns(inputs.size());
  std::vector<std::vector<double>> due(inputs.size());
  std::vector<bool> bad(inputs.size(), false);
  for (const Event& e : events) {
    SleepUntil(e.due);
    out->late_ms.push_back(1e3 * (NowS() - e.due));
    const auto& pts = inputs[e.k].points.points;
    if (e.j == 0) {
      out->ids[base + e.k] = engine->Open();
      CHECK_EQ(static_cast<size_t>(out->ids[base + e.k]) + 1, registry.size());
    }
    const matchers::SessionId id = out->ids[base + e.k];
    if (e.j < static_cast<int>(pts.size())) {
      out->inbox_depth_max = std::max(out->inbox_depth_max, engine->inbox_depth(id));
      enqueue_ns[e.k].push_back(NowNs());
      due[e.k].push_back(e.due);
      if (!engine->Push(id, pts[e.j]).ok()) bad[e.k] = true;
    }
    if (e.j + 1 == std::max(1, static_cast<int>(pts.size()))) {
      if (!engine->Finish(id).ok()) bad[e.k] = true;
    }
  }
  engine->Barrier();
  out->wall_s += NowS() - start;
  for (size_t k = 0; k < inputs.size(); ++k) {
    const matchers::SessionId id = out->ids[base + k];
    const SessionStamps& st = *registry[id];
    if (bad[k] || engine->state(id) != matchers::SessionState::kFinished ||
        st.push_end_ns.size() != due[k].size()) {
      ++*failed;
      continue;
    }
    for (size_t j = kLag; j < due[k].size(); ++j) {
      out->point_ms.push_back(1e-6 * st.push_end_ns[j] - 1e3 * due[k][j]);
      out->queue_wait_ms.push_back(1e-6 * (st.push_start_ns[j] - enqueue_ns[k][j]));
      out->service_ms.push_back(1e-6 * (st.push_end_ns[j] - st.push_start_ns[j]));
    }
    if (due[k].size() > static_cast<size_t>(kLag)) {
      out->traj_ms.push_back(1e-6 * st.finish_end_ns - 1e3 * due[k].back());
    }
  }
}

std::vector<Path> CommittedPaths(const matchers::StreamEngine& engine,
                                 const std::vector<matchers::SessionId>& ids) {
  std::vector<Path> out;
  for (const matchers::SessionId id : ids) out.push_back(engine.Committed(id));
  return out;
}

}  // namespace

matchers::StreamEngineConfig EngineConfig(int threads, net::CachedRouter* router) {
  matchers::StreamEngineConfig config;
  config.num_threads = threads;
  config.lag = kLag;
  config.shared_router = router;
  return config;
}

std::vector<matchers::SessionId> RunSaturated(matchers::StreamEngine* engine,
                                              const std::vector<Input>& inputs,
                                              int64_t* failed) {
  std::vector<matchers::SessionId> ids;
  std::vector<bool> bad(inputs.size(), false);
  size_t longest = 0;
  for (const Input& in : inputs) {
    ids.push_back(engine->Open());
    longest = std::max(longest, in.points.points.size());
  }
  for (size_t j = 0; j < std::max<size_t>(longest, 1); ++j) {
    for (size_t k = 0; k < inputs.size(); ++k) {
      const auto& pts = inputs[k].points.points;
      if (j < pts.size() && !engine->PushBlocking(ids[k], pts[j]).ok()) bad[k] = true;
      if (j + 1 == std::max<size_t>(pts.size(), 1) && !engine->Finish(ids[k]).ok()) {
        bad[k] = true;
      }
    }
  }
  engine->Barrier();
  for (size_t k = 0; k < inputs.size(); ++k) {
    if (bad[k] || engine->state(ids[k]) != matchers::SessionState::kFinished) ++*failed;
  }
  return ids;
}

int RunStream(const Options& opt) {
  Report report;
  std::vector<SetupTimes> setups;
  const std::unique_ptr<World> world =
      LoadWorldRepeated(opt.data_dir, opt.smoke ? 2 : kSetupRepeats, &setups);
  const net::RoadNetwork& network = world->bundle.net;
  const int n1 = opt.smoke ? kSmokeSessions
                           : std::max(1, static_cast<int>(kPhase1Share * opt.seconds *
                                                          kPhase1SessionsPerS));
  const int n2 = opt.smoke ? kSmokeSessions
                           : std::max(1, static_cast<int>((1 - kPhase1Share) * opt.seconds *
                                                          kOfferedPointsPerS /
                                                          kPointsPerTrajectory));
  const std::vector<Input> inputs = SelectInputs(opt.data_dir, opt.seed, n1 + n2);
  const std::vector<Input> phase1(inputs.begin(), inputs.begin() + n1);
  const std::vector<Input> phase2(inputs.begin() + n1, inputs.end());
  ReferenceStore refs(opt.data_dir);
  bool correct = true;
  int64_t failed = 0;

  // Both phases share one engine and one route cache.
  net::CachedRouter router(&network);
  std::vector<std::shared_ptr<SessionStamps>> registry;
  matchers::StreamEngine engine(StampingFactory(LhmmFactory(world.get()), &registry),
                                EngineConfig(kMatcherThreads, &router));
  const double cpu0 = ProcessCpuS();
  std::vector<matchers::SessionId> ids1;
  double wall1 = 0.0;
  OpenLoop loop;
  for (int r = 0; r < kRounds; ++r) {
    const std::vector<Input> batch(phase1.begin() + r * n1 / kRounds,
                                   phase1.begin() + (r + 1) * n1 / kRounds);
    const double start1 = NowS();
    for (const matchers::SessionId id : RunSaturated(&engine, batch, &failed)) {
      ids1.push_back(id);
    }
    wall1 += NowS() - start1;
    const std::vector<Input> stretch(phase2.begin() + r * n2 / kRounds,
                                     phase2.begin() + (r + 1) * n2 / kRounds);
    RunOpenLoop(&engine, registry, stretch, &loop, &failed);
  }
  const double cpu_s = ProcessCpuS() - cpu0;

  std::vector<Path> paths = CommittedPaths(engine, ids1);
  for (const Path& p : CommittedPaths(engine, loop.ids)) paths.push_back(p);
  std::vector<uint64_t> digests;
  for (size_t i = 0; i < paths.size(); ++i) {
    digests.push_back(PathDigest(paths[i]));
    if (!refs.Check("stream8", inputs[i].pool_index, digests[i])) {
      report.Info("digest mismatch against reference, pool index " +
                  std::to_string(inputs[i].pool_index));
      correct = false;
      ++failed;
    }
  }

  if (!opt.trace) {
    int64_t points1 = 0;
    for (const Input& in : phase1) points1 += in.points.size();
    const Accuracy acc = Score(network, inputs, paths);
    report.Add("traj_per_s", n1 / wall1, "1/s");
    report.Add("points_per_s", points1 / wall1, "1/s");
    report.Add("traj_ms_p50", Percentile(loop.traj_ms, 0.5), "ms");
    report.Add("traj_ms_p80", Percentile(loop.traj_ms, 0.8), "ms");
    report.Add("cpu_ms_per_traj", 1e3 * cpu_s / (n1 + n2), "ms");
    report.Add("path_precision", acc.precision, "ratio");
    report.Add("path_recall", acc.recall, "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    AddSetupMetrics(setups, false, &report);
    report.Info("samples phase2_rescoring_points=" + std::to_string(loop.point_ms.size()) +
                " phase2_timed_sessions=" + std::to_string(loop.traj_ms.size()) +
                " phase2_wall_s=" + std::to_string(loop.wall_s));
  } else {
    PerLayer layers;
    layers.point_ms_p50 = Percentile(loop.point_ms, 0.5);
    layers.point_ms_p95 = Percentile(loop.point_ms, 0.95);
    layers.queue_wait_ms_p50 = Percentile(loop.queue_wait_ms, 0.5);
    layers.queue_wait_ms_p99 = Percentile(loop.queue_wait_ms, 0.99);
    layers.service_ms_p50 = Percentile(loop.service_ms, 0.5);
    layers.inbox_depth_max = loop.inbox_depth_max;
    layers.gen_late_ms_p99 = Percentile(loop.late_ms, 0.99);

    // One matcher thread on the first phase-1 sessions, cold caches: traced,
    // and untraced before and after it (the overhead ratio uses their mean,
    // so slow drift of the machine cancels). All must commit what phase 1
    // committed.
    const std::vector<Input> subset(
        phase1.begin(), phase1.begin() + std::min<int>(n1, kTracedSessions));
    const auto check = [&](const matchers::StreamEngine& e,
                           const std::vector<matchers::SessionId>& ids,
                           const char* what) {
      for (size_t k = 0; k < ids.size(); ++k) {
        if (PathDigest(e.Committed(ids[k])) != digests[k]) {
          report.Info(std::string("digest mismatch: ") + what);
          correct = false;
          ++failed;
        }
      }
    };
    const auto untraced = [&] {
      net::CachedRouter cold(&network);
      matchers::StreamEngine single(LhmmFactory(world.get()), EngineConfig(1, &cold));
      const double t0 = NowS();
      const auto ids = RunSaturated(&single, subset, &failed);
      layers.untraced_wall_s += 0.5 * (NowS() - t0);
      check(single, ids, "untraced 1 thread");
    };
    untraced();
    Tracer tracer;
    {
      TracedRouter cold(&network, &tracer);
      matchers::StreamEngine traced(TracedLhmmFactory(world.get(), &tracer),
                                    EngineConfig(1, &cold.cache));
      const double t0 = NowS();
      const auto ids = RunSaturated(&traced, subset, &failed);
      layers.traced_wall_s = NowS() - t0;
      check(traced, ids, "traced 1 thread");
      const int64_t lookups = cold.cache.hits() + cold.cache.misses();
      layers.cache_hit_ratio =
          lookups > 0 ? static_cast<double>(cold.cache.hits()) / lookups : 0.0;
      layers.cache_entries = static_cast<int64_t>(cold.cache.size());
    }
    untraced();
    for (const Input& in : subset) layers.online_points += in.points.size();
    layers.spans = tracer.Totals();
    layers.route_many_targets = tracer.route_many_targets;
    layers.transitions_without_route = tracer.transitions_without_route;
    if (!CheckSpans(layers, &report)) correct = false;
    const std::string span_file = opt.work_dir + "/stream-hz.spans.tsv";
    if (!tracer.Write(span_file)) correct = false;
    report.Info("spans " + std::to_string(tracer.spans().size()) + " -> " + span_file);
    AddPerLayerMetrics(layers, &report);
    AddSetupMetrics(setups, true, &report);
  }
  refs.Save();
  if (!CheckModelHash(opt.data_dir, &report)) correct = false;
  report.Info("digest stream-hz seed=" + std::to_string(opt.seed) +
              " paths=" + std::to_string(digests.size()) + " " +
              Hex(CombineDigests(digests)));
  report.Print(correct && failed == 0, n1 + n2, failed);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace perfbench
