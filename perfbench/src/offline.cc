// offline-hz: offline LHMM in the paper's configuration (k = 30, Alg. 2
// shortcuts on) through matchers::BatchMatcher::ForEach -> MapMatcher::Match
// at two threads. Every pass matches the seed's trajectory set against a
// fresh, cold shared CachedRouter; passes repeat until --seconds is used up.
#include <cstdio>

#include "lhmm/lhmm_matcher.h"
#include "workloads.h"

namespace perfbench {

namespace matchers = ::lhmm::matchers;
namespace net = ::lhmm::network;

namespace {

/// Trajectories per seed (a two-thread pass takes about 8 s on a 4-core
/// 2.x GHz x86 machine) and the first ones of them used by the traced run.
constexpr int kTrajectories = 300;
constexpr int kTracedTrajectories = 60;
constexpr int kSmokeTrajectories = 6;

struct Pass {
  std::vector<Path> paths;
  std::vector<double> match_ms;
  double wall_s = 0.0;
};

Pass RunPass(const std::vector<Input>& inputs, int threads,
             const matchers::MatcherFactory& factory, net::CachedRouter* router) {
  matchers::BatchConfig config;
  config.num_threads = threads;
  config.shared_router = router;
  matchers::BatchMatcher batch(factory, config);
  Pass pass;
  const int64_t n = static_cast<int64_t>(inputs.size());
  pass.paths.resize(n);
  pass.match_ms.resize(n);
  const double start = NowS();
  batch.ForEach(n, [&](matchers::MapMatcher* m, int64_t i) {
    const int64_t t0 = NowNs();
    matchers::MatchResult r = m->Match(inputs[i].points);
    pass.match_ms[i] = 1e-6 * static_cast<double>(NowNs() - t0);
    pass.paths[i] = std::move(r.path);
  });
  pass.wall_s = NowS() - start;
  return pass;
}

std::vector<uint64_t> Digests(const std::vector<Path>& paths) {
  std::vector<uint64_t> out;
  for (const Path& p : paths) out.push_back(PathDigest(p));
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

int RunOffline(const Options& opt) {
  Report report;
  std::vector<SetupTimes> setups;
  const std::unique_ptr<World> world =
      LoadWorldRepeated(opt.data_dir, opt.smoke ? 2 : kSetupRepeats, &setups);
  const net::RoadNetwork& network = world->bundle.net;
  const int n = opt.smoke ? kSmokeTrajectories : kTrajectories;
  const std::vector<Input> inputs = SelectInputs(opt.data_dir, opt.seed, n);
  int64_t points = 0;
  for (const Input& in : inputs) points += in.points.size();
  ReferenceStore refs(opt.data_dir);
  const matchers::MatcherFactory factory = LhmmFactory(world.get());
  bool correct = true;
  int64_t failed = 0;
  std::vector<Path> paths;
  std::vector<uint64_t> digests;

  // Compares a pass's paths with the first pass and with the references kept
  // from earlier runs; a trajectory that disagrees counts as failed.
  const auto check = [&](const std::vector<Path>& pass_paths, const char* what) {
    const std::vector<uint64_t> d = Digests(pass_paths);
    if (digests.empty()) {
      digests = d;
      paths = pass_paths;
      for (size_t i = 0; i < d.size(); ++i) {
        if (!refs.Check("offline", inputs[i].pool_index, d[i])) ++failed;
      }
    }
    int64_t mismatched = 0;
    for (size_t i = 0; i < d.size(); ++i) mismatched += d[i] != digests[i];
    if (mismatched > 0) {
      report.Info(std::string("digest mismatch: ") + what);
      correct = false;
      failed += mismatched;
    }
  };

  if (!opt.trace) {
    std::vector<double> match_ms;
    double wall_s = 0.0;
    int64_t matched = 0, matched_points = 0;
    const double cpu0 = ProcessCpuS();
    const double start = NowS();
    do {
      net::CachedRouter router(&network);
      const Pass pass = RunPass(inputs, kMatcherThreads, factory, &router);
      check(pass.paths, "repeated pass");
      match_ms.insert(match_ms.end(), pass.match_ms.begin(), pass.match_ms.end());
      wall_s += pass.wall_s;
      matched += n;
      matched_points += points;
    } while (NowS() - start < opt.seconds);
    const double cpu_s = ProcessCpuS() - cpu0;
    const Accuracy acc = Score(network, inputs, paths);
    report.Add("traj_per_s", matched / wall_s, "1/s");
    report.Add("points_per_s", matched_points / wall_s, "1/s");
    report.Add("traj_ms_p50", Percentile(match_ms, 0.5), "ms");
    report.Add("traj_ms_p80", Percentile(match_ms, 0.8), "ms");
    report.Add("cpu_ms_per_traj", 1e3 * cpu_s / matched, "ms");
    report.Add("path_precision", acc.precision, "ratio");
    report.Add("path_recall", acc.recall, "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    AddSetupMetrics(setups, false, &report);
    report.Info("samples match_calls=" + std::to_string(match_ms.size()) +
                " passes=" + std::to_string(matched / n));
  } else {
    // Traced run on the first trajectories of the set, one matcher thread:
    // untraced, an untraced two-thread pass for the thread-count check and
    // the busy ratio, traced, untraced again, and last two untraced matchers
    // with shortcuts on and off for Alg. 2's cost.
    const std::vector<Input> subset(
        inputs.begin(), inputs.begin() + std::min<int>(n, kTracedTrajectories));
    PerLayer layers;
    // Untraced before and after the traced pass; the overhead ratio uses
    // their mean, so slow drift of the machine cancels.
    const auto untraced = [&] {
      net::CachedRouter router(&network);
      const Pass pass = RunPass(subset, 1, factory, &router);
      layers.untraced_wall_s += 0.5 * pass.wall_s;
      check(pass.paths, "untraced 1 thread");
    };
    untraced();
    {
      net::CachedRouter router(&network);
      const Pass pass = RunPass(subset, kMatcherThreads, factory, &router);
      layers.batch_busy_ratio = Sum(pass.match_ms) / 1e3 / (kMatcherThreads * pass.wall_s);
      check(pass.paths, "untraced 2 threads");
    }
    Tracer tracer;
    {
      TracedRouter router(&network, &tracer);
      const Pass pass =
          RunPass(subset, 1, TracedLhmmFactory(world.get(), &tracer),
                  &router.cache);
      layers.traced_wall_s = pass.wall_s;
      check(pass.paths, "traced 1 thread");
      const int64_t lookups = router.cache.hits() + router.cache.misses();
      layers.cache_hit_ratio =
          lookups > 0 ? static_cast<double>(router.cache.hits()) / lookups : 0.0;
      layers.cache_entries = static_cast<int64_t>(router.cache.size());
    }
    untraced();
    layers.spans = tracer.Totals();
    layers.route_many_targets = tracer.route_many_targets;
    layers.transitions_without_route = tracer.transitions_without_route;
    layers.shortcuts_applied = tracer.shortcuts_applied;
    {
      // Alg. 2's cost: the same subset matched with shortcuts on and off,
      // interleaved per trajectory (alternating which goes first) so that
      // machine drift cancels; each matcher keeps its own cold cache.
      net::CachedRouter router_on(&network), router_off(&network);
      L::LhmmMatcher on(&network, world->index.get(), world->model);
      L::LhmmMatcher off(&network, world->index.get(), world->model);
      on.UseSharedRouter(&router_on);
      off.UseSharedRouter(&router_off);
      off.engine()->mutable_config()->use_shortcuts = false;
      double on_ms = 0.0, off_ms = 0.0;
      for (size_t i = 0; i < subset.size(); ++i) {
        for (int round = 0; round < 2; ++round) {
          const bool shortcuts = (round == 0) == (i % 2 == 0);
          const int64_t t0 = NowNs();
          (shortcuts ? on : off).Match(subset[i].points);
          (shortcuts ? on_ms : off_ms) += 1e-6 * static_cast<double>(NowNs() - t0);
        }
      }
      layers.shortcut_ms = on_ms - off_ms;
    }
    if (!CheckSpans(layers, &report)) correct = false;
    const std::string span_file = opt.work_dir + "/offline-hz.spans.tsv";
    if (!tracer.Write(span_file)) correct = false;
    report.Info("spans " + std::to_string(tracer.spans().size()) + " -> " + span_file);
    AddPerLayerMetrics(layers, &report);
    AddSetupMetrics(setups, true, &report);
  }
  refs.Save();
  if (!CheckModelHash(opt.data_dir, &report)) correct = false;
  report.Info("digest offline-hz seed=" + std::to_string(opt.seed) +
              " paths=" + std::to_string(digests.size()) + " " +
              Hex(CombineDigests(digests)));
  report.Print(correct && failed == 0, static_cast<int64_t>(digests.size()), failed);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace perfbench
