// Micro-benchmarks (google-benchmark) for the hot kernels under the
// map-matching pipeline: spatial index queries, bounded Dijkstra, the HMM
// engine end to end, attention/MLP inference, and Het-Graph encoder forward.
//
// Besides the default google-benchmark mode, `--json PATH --suite
// routing|viterbi|store [--smoke]` runs a fixed perf suite and writes a flat
// key/value JSON snapshot for tools/bench_diff — the perf-regression
// harness. The routing suite measures the HMM column and path-expansion
// routing workloads on a Hangzhou-S-scale network with cold bounded
// Dijkstra; the viterbi suite measures the SoA column kernel and the engine
// end to end; the store suite measures the mmap data plane — store build,
// open+validate (the full CRC sweep a swap candidate pays), and
// materializing assets from the mapping vs rebuilding them from scratch the
// way an owned-mode worker must. `--smoke` shrinks query counts (same
// network, same per-query metrics) so the suite runs in ctest time.

#include <benchmark/benchmark.h>

#include "core/strings.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "hmm/classic_models.h"
#include "hmm/engine.h"
#include "hmm/viterbi_kernel.h"
#include "lhmm/het_encoder.h"
#include "lhmm/mr_graph.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "network/shortest_path.h"
#include "nn/modules.h"
#include "sim/dataset.h"
#include "store/mapped_store.h"
#include "store/store_writer.h"
#include "traj/filters.h"

namespace lhmm {
namespace {

/// Shared fixture state, built once.
struct MicroEnv {
  sim::Dataset ds;
  std::unique_ptr<network::GridIndex> index;

  MicroEnv() {
    sim::DatasetConfig cfg = sim::XiamenSPreset();
    cfg.num_train = 30;
    cfg.num_val = 5;
    cfg.num_test = 30;
    ds = sim::BuildDataset(cfg);
    index = std::make_unique<network::GridIndex>(&ds.network, 300.0);
  }
};

MicroEnv& Env() {
  static MicroEnv* env = new MicroEnv();
  return *env;
}

void BM_GridIndexQuery(benchmark::State& state) {
  MicroEnv& env = Env();
  core::Rng rng(1);
  const geo::BBox& b = env.ds.network.Bounds();
  for (auto _ : state) {
    const geo::Point p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    benchmark::DoNotOptimize(env.index->Query(p, state.range(0)));
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(500)->Arg(1500)->Arg(2500);

void BM_GridIndexNearest(benchmark::State& state) {
  MicroEnv& env = Env();
  core::Rng rng(2);
  const geo::BBox& b = env.ds.network.Bounds();
  for (auto _ : state) {
    const geo::Point p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    benchmark::DoNotOptimize(env.index->Nearest(p, state.range(0)));
  }
}
BENCHMARK(BM_GridIndexNearest)->Arg(30)->Arg(100);

void BM_BoundedDijkstra(benchmark::State& state) {
  MicroEnv& env = Env();
  network::SegmentRouter router(&env.ds.network);
  core::Rng rng(3);
  const int n = env.ds.network.num_segments();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        router.Route1(rng.UniformInt(n), rng.UniformInt(n), state.range(0)));
  }
}
BENCHMARK(BM_BoundedDijkstra)->Arg(2000)->Arg(6000);

void BM_RouteMany45(benchmark::State& state) {
  MicroEnv& env = Env();
  network::SegmentRouter router(&env.ds.network);
  core::Rng rng(4);
  const int n = env.ds.network.num_segments();
  std::vector<network::SegmentId> targets(45);
  for (auto& t : targets) t = rng.UniformInt(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.RouteMany(rng.UniformInt(n), targets, 4000.0));
  }
}
BENCHMARK(BM_RouteMany45);

void BM_HmmEngineMatch(benchmark::State& state) {
  MicroEnv& env = Env();
  hmm::ClassicModelConfig models;
  hmm::EngineConfig config;
  config.k = static_cast<int>(state.range(0));
  hmm::GaussianObservationModel obs(env.index.get(), models);
  hmm::ClassicTransitionModel trans(models, &env.ds.network);
  network::SegmentRouter router(&env.ds.network);
  network::CachedRouter cached(&router);
  hmm::Engine engine(&env.ds.network, &cached, &obs, &trans, config);
  traj::FilterConfig filters;
  std::vector<traj::Trajectory> cleaned;
  for (const auto& mt : env.ds.test) {
    cleaned.push_back(
        traj::DeduplicateTowers(traj::PreprocessCellular(mt.cellular, filters)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Match(cleaned[i]));
    i = (i + 1) % cleaned.size();
  }
}
BENCHMARK(BM_HmmEngineMatch)->Arg(15)->Arg(30)->Arg(45)->Unit(benchmark::kMillisecond);

void BM_AttentionForward(benchmark::State& state) {
  core::Rng rng(5);
  nn::AdditiveAttention attn(48, 48, 48, &rng);
  const nn::Matrix keys = nn::Matrix::Gaussian(static_cast<int>(state.range(0)),
                                               48, 1.0f, &rng);
  const nn::Matrix query = nn::Matrix::Gaussian(1, 48, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(query, keys, keys));
  }
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(32)->Arg(64);

void BM_MlpBatchForward(benchmark::State& state) {
  core::Rng rng(6);
  nn::Mlp mlp({96, 48, 2}, &rng);
  const nn::Matrix x = nn::Matrix::Gaussian(static_cast<int>(state.range(0)), 96,
                                            1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
}
BENCHMARK(BM_MlpBatchForward)->Arg(32)->Arg(128)->Arg(256);

void BM_HetEncoderForward(benchmark::State& state) {
  MicroEnv& env = Env();
  traj::FilterConfig filters;
  std::vector<traj::Trajectory> cleaned;
  for (const auto& mt : env.ds.train) {
    cleaned.push_back(
        traj::DeduplicateTowers(traj::PreprocessCellular(mt.cellular, filters)));
  }
  lhmm::MultiRelationalGraph graph = lhmm::BuildGraph(
      env.ds.network, static_cast<int>(env.ds.towers.size()), env.ds.train, cleaned);
  core::Rng rng(7);
  lhmm::EncoderConfig cfg;
  cfg.dim = static_cast<int>(state.range(0));
  lhmm::HetGraphEncoder encoder(&graph, cfg, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.ForwardNoGrad());
  }
  state.SetLabel(core::StrFormat("|V|=%d", graph.num_nodes()));
}
BENCHMARK(BM_HetEncoderForward)->Arg(32)->Arg(48)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// JSON perf-suite mode (the tools/bench_diff regression harness).
// ---------------------------------------------------------------------------

struct KV {
  std::string key;
  double value;
};

/// Writes a flat {"key": value, ...} JSON object — the only shape
/// tools/bench_diff parses.
bool WriteFlatJson(const std::string& path, const std::vector<KV>& kvs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  for (size_t i = 0; i < kvs.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.6g%s\n", kvs[i].key.c_str(), kvs[i].value,
                 i + 1 < kvs.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// Fixed integer spin, timed: a machine-speed yardstick stored next to every
/// wall metric so bench_diff can normalize away host differences before
/// comparing against a committed baseline.
double CalibrateUs() {
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    core::Stopwatch watch;
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 2000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
    best = std::min(best, watch.ElapsedSeconds() * 1e6);
  }
  return best;
}

int Sanitized() {
#if defined(LHMM_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return 1;
#else
  return 0;
#endif
}

/// The routing suite: the two routing workloads the matching pipeline
/// actually issues, on a Hangzhou-S-scale city network.
///
///  - "column": the HMM column pattern — for each of ~8 predecessor
///    candidates, RouteMany against the next point's ~45 candidate targets
///    under the Eq.-derived bound (one shared target set per column);
///  - "expand": the path expansion's point-to-point Route1 calls at the 12 km
///    cap.
///
/// Both run cold (no CachedRouter): this isolates the search itself, which
/// is what every cache miss pays in production.
int RunRoutingSuite(const std::string& json_path, bool smoke) {
  sim::DatasetConfig cfg = sim::HangzhouSPreset();
  network::RoadNetwork net = network::GenerateCityNetwork(cfg.net);
  network::GridIndex index(&net, 300.0);
  const geo::BBox b = net.Bounds();
  core::Rng rng(42);

  const int num_columns = smoke ? 6 : 40;
  const int num_expands = smoke ? 12 : 80;
  const int reps = smoke ? 2 : 3;

  struct Column {
    std::vector<network::SegmentId> froms;
    std::vector<network::SegmentId> targets;
    double bound = 0.0;
  };
  std::vector<Column> columns;
  while (static_cast<int>(columns.size()) < num_columns) {
    const geo::Point a{rng.Uniform(b.min_x, b.max_x),
                       rng.Uniform(b.min_y, b.max_y)};
    const double angle = rng.Uniform(0.0, 6.28318530717958648);
    const double hop = rng.Uniform(120.0, 900.0);
    const geo::Point p2{a.x + std::cos(angle) * hop,
                        a.y + std::sin(angle) * hop};
    const auto ha = index.Query(a, 500.0);
    const auto hb = index.Query(p2, 500.0);
    if (ha.size() < 8 || hb.size() < 16) continue;
    Column c;
    for (size_t i = 0; i < ha.size() && c.froms.size() < 8; ++i) {
      c.froms.push_back(ha[i].segment);
    }
    for (size_t i = 0; i < hb.size() && c.targets.size() < 45; ++i) {
      c.targets.push_back(hb[i].segment);
    }
    c.bound = std::min(12000.0, 4.0 * hop + 1500.0);
    columns.push_back(std::move(c));
  }
  struct Pair {
    network::SegmentId from = 0;
    network::SegmentId to = 0;
  };
  std::vector<Pair> expands(num_expands);
  const int n = net.num_segments();
  for (Pair& p : expands) {
    p.from = rng.UniformInt(n);
    p.to = rng.UniformInt(n);
  }

  const auto run_columns = [&columns](network::SegmentRouter& r) {
    for (const Column& c : columns) {
      for (const network::SegmentId from : c.froms) {
        benchmark::DoNotOptimize(r.RouteMany(from, c.targets, c.bound).size());
      }
    }
  };
  const auto run_expands = [&expands](network::SegmentRouter& r) {
    for (const Pair& p : expands) {
      benchmark::DoNotOptimize(r.Route1(p.from, p.to, 12000.0).has_value());
    }
  };
  network::SegmentRouter dijkstra(&net);
  // One untimed pass first, so every timed rep sees warm scratch buffers.
  run_columns(dijkstra);
  run_expands(dijkstra);

  const auto time_best = [&](const std::function<void()>& fn) {
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      core::Stopwatch watch;
      fn();
      best = std::min(best, watch.ElapsedSeconds() * 1e6);
    }
    return best;
  };
  int64_t column_calls = 0;
  for (const Column& c : columns) {
    column_calls += static_cast<int64_t>(c.froms.size());
  }
  const double dij_col_us = time_best([&] { run_columns(dijkstra); });
  const double dij_exp_us = time_best([&] { run_expands(dijkstra); });

  const double calib_us = CalibrateUs();
  std::vector<KV> kvs;
  kvs.push_back({"sanitized", static_cast<double>(Sanitized())});
  kvs.push_back({"calib_us", calib_us});
  kvs.push_back({"network_segments", static_cast<double>(n)});
  kvs.push_back({"column_dijkstra_us",
                 dij_col_us / static_cast<double>(column_calls)});
  kvs.push_back({"route_query_dijkstra_us",
                 dij_exp_us / static_cast<double>(num_expands)});
  if (!WriteFlatJson(json_path, kvs)) return 2;
  std::printf(
      "routing suite -> %s\n  column %.1f us, route query %.1f us,"
      " %d segments\n",
      json_path.c_str(), dij_col_us / column_calls, dij_exp_us / num_expands,
      n);
  return 0;
}

/// The viterbi suite: the SoA column kernel on an engine-shaped matrix
/// (k = 45), and the HMM engine end to end.
int RunViterbiSuite(const std::string& json_path, bool smoke) {
  const int kernel_iters = smoke ? 2000 : 20000;
  const int reps = smoke ? 2 : 3;

  constexpr int kRows = 45, kCols = 45;
  hmm::WeightMatrix w;
  w.Reset(kRows, kCols);
  core::Rng rng(7);
  std::vector<double> f_prev(kRows);
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < kRows; ++j) {
    f_prev[j] = rng.Uniform() < 0.15 ? kNegInf : rng.Uniform(-8.0, 0.0);
    for (int k = 0; k < kCols; ++k) {
      w.Set(j, k, rng.Uniform(-6.0, 0.0), rng.Uniform() < 0.7);
    }
  }
  std::vector<double> f_cur(kCols);
  std::vector<int> pre(kCols);
  double best_kernel_us = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    core::Stopwatch watch;
    for (int i = 0; i < kernel_iters; ++i) {
      hmm::ViterbiColumn(w, f_prev.data(), f_cur.data(), pre.data());
      benchmark::DoNotOptimize(f_cur.data());
    }
    best_kernel_us = std::min(best_kernel_us, watch.ElapsedSeconds() * 1e6);
  }
  const double soa_us = best_kernel_us / kernel_iters;

  // Engine end to end (k = 45, cold cache per rep) on the shared micro env.
  MicroEnv& env = Env();
  hmm::ClassicModelConfig models;
  hmm::EngineConfig config;
  config.k = 45;
  hmm::GaussianObservationModel obs(env.index.get(), models);
  hmm::ClassicTransitionModel trans(models, &env.ds.network);
  traj::FilterConfig filters;
  std::vector<traj::Trajectory> cleaned;
  const int num_trajs = smoke ? 4 : static_cast<int>(env.ds.test.size());
  for (int i = 0; i < num_trajs; ++i) {
    cleaned.push_back(traj::DeduplicateTowers(
        traj::PreprocessCellular(env.ds.test[i].cellular, filters)));
  }
  double best_match_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    network::CachedRouter cached(&env.ds.network);  // Cold every rep.
    hmm::Engine engine(&env.ds.network, &cached, &obs, &trans, config);
    core::Stopwatch watch;
    for (const traj::Trajectory& t : cleaned) {
      benchmark::DoNotOptimize(engine.Match(t));
    }
    best_match_ms =
        std::min(best_match_ms, watch.ElapsedSeconds() * 1e3 / cleaned.size());
  }

  const double calib_us = CalibrateUs();
  std::vector<KV> kvs;
  kvs.push_back({"sanitized", static_cast<double>(Sanitized())});
  kvs.push_back({"calib_us", calib_us});
  kvs.push_back({"column_soa_us", soa_us});
  kvs.push_back({"engine_match_ms", best_match_ms});
  if (!WriteFlatJson(json_path, kvs)) return 2;
  std::printf(
      "viterbi suite -> %s\n  column soa %.3f us; engine match %.2f ms/traj\n",
      json_path.c_str(), soa_us, best_match_ms);
  return 0;
}

/// The store suite: the versioned mmap data plane's three costs on a
/// Hangzhou-S-scale network —
///
///  - "build": encoding every section and atomically writing the store
///    (what `lhmm_store build` pays once per rollout);
///  - "open+validate": mmap plus the full header/TOC/per-section CRC sweep
///    (what every worker pays per open, and every swap candidate per swap);
///  - "materialize": road network and grid index from the mapping, against
///    rebuilding the grid index from scratch the way an owned-mode worker
///    must on every start.
///
/// The build/rebuild costs are one-shot (same network in smoke and full
/// mode), so smoke only trims timing reps, never the workload shape.
int RunStoreSuite(const std::string& json_path, bool smoke) {
  const int reps = smoke ? 2 : 5;
  sim::DatasetConfig cfg = sim::HangzhouSPreset();
  network::RoadNetwork net = network::GenerateCityNetwork(cfg.net);

  network::GridIndex index(&net, 300.0);
  const uint64_t fp = network::NetworkFingerprint(net);

  char tmpl[] = "/tmp/lhmm-bench-store-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "error: mkdtemp failed\n");
    return 2;
  }
  const std::string path = std::string(dir) + "/store-1.lds";

  // Sub-millisecond operations (index rebuild, open, loads) are timed over a batch of
  // iterations per rep so the committed baseline is not noise-dominated;
  // the build (which fsyncs) runs once per rep.
  const auto time_best = [&](int iters, const std::function<void()>& fn) {
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      core::Stopwatch watch;
      for (int i = 0; i < iters; ++i) fn();
      best = std::min(best, watch.ElapsedSeconds() * 1e3 / iters);
    }
    return best;
  };
  const int load_iters = smoke ? 8 : 16;

  // The owned-mode baseline: what every worker rebuilds without a store.
  const double owned_index_ms = time_best(load_iters, [&] {
    network::GridIndex rebuilt(&net, 300.0);
    benchmark::DoNotOptimize(rebuilt.network());
  });

  // Build: encode all three sections + the atomic temp/rename/fsync write.
  bool build_failed = false;
  const double build_ms = time_best(1, [&] {
    store::StoreWriter w;
    w.AddSection(store::kSectionNetwork, store::EncodeNetwork(net));
    w.AddSection(store::kSectionGrid, store::EncodeGridIndex(index));
    w.AddSection(store::kSectionMeta,
                 store::EncodeMeta({{"source", "bench"}}));
    if (!w.Write(path, fp, 1).ok()) build_failed = true;
  });
  if (build_failed) {
    std::fprintf(stderr, "error: store build failed\n");
    return 2;
  }

  // Open + validate: the full CRC sweep, per open.
  bool open_failed = false;
  const double open_validate_ms = time_best(load_iters, [&] {
    auto store = store::MappedStore::Open(path, fp);
    if (!store.ok()) open_failed = true;
    benchmark::DoNotOptimize(store.ok());
  });
  if (open_failed) {
    std::fprintf(stderr, "error: store open failed\n");
    return 2;
  }

  // Materialize from one long-lived mapping (the serving pattern).
  auto store = store::MappedStore::Open(path, fp);
  const int64_t store_bytes = (*store)->bytes();
  network::RoadNetwork loaded_net;
  const double load_network_ms = time_best(load_iters, [&] {
    auto loaded = (*store)->LoadNetwork();
    if (loaded.ok()) loaded_net = std::move(*loaded);
    benchmark::DoNotOptimize(loaded_net.num_segments());
  });
  const double load_grid_ms = time_best(load_iters, [&] {
    auto loaded = (*store)->LoadGridIndex(&loaded_net);
    benchmark::DoNotOptimize(loaded.ok());
  });
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const double mapped_total_ms =
      open_validate_ms + load_network_ms + load_grid_ms;
  const double owned_total_ms = owned_index_ms;

  const double calib_us = CalibrateUs();
  std::vector<KV> kvs;
  kvs.push_back({"sanitized", static_cast<double>(Sanitized())});
  kvs.push_back({"calib_us", calib_us});
  kvs.push_back({"network_segments",
                 static_cast<double>(net.num_segments())});
  kvs.push_back({"store_bytes", static_cast<double>(store_bytes)});
  kvs.push_back({"store_build_ms", build_ms});
  kvs.push_back({"open_validate_ms", open_validate_ms});
  kvs.push_back({"load_network_ms", load_network_ms});
  kvs.push_back({"load_grid_ms", load_grid_ms});
  kvs.push_back({"mapped_startup_ms", mapped_total_ms});
  kvs.push_back({"owned_startup_ms", owned_total_ms});
  kvs.push_back({"startup_speedup", owned_total_ms / mapped_total_ms});
  if (!WriteFlatJson(json_path, kvs)) return 2;
  std::printf(
      "store suite -> %s\n  build %.1f ms, open+validate %.2f ms, materialize"
      " net %.1f + grid %.1f ms\n  startup %.1f ms mapped vs %.1f ms"
      " owned rebuild (%.1fx), %lld bytes, %d segments\n",
      json_path.c_str(), build_ms, open_validate_ms, load_network_ms,
      load_grid_ms, mapped_total_ms, owned_total_ms,
      owned_total_ms / mapped_total_ms, static_cast<long long>(store_bytes),
      net.num_segments());
  return 0;
}

}  // namespace

/// Named entry point for the suite mode (the suite functions live in the
/// anonymous namespace above; this is the one symbol main can reach).
int RunSuiteMain(const std::string& suite, const std::string& json_path,
                 bool smoke) {
  if (suite == "routing") return RunRoutingSuite(json_path, smoke);
  if (suite == "viterbi") return RunViterbiSuite(json_path, smoke);
  if (suite == "store") return RunStoreSuite(json_path, smoke);
  std::fprintf(stderr, "error: --json needs --suite routing|viterbi|store\n");
  return 2;
}

}  // namespace lhmm

int main(int argc, char** argv) {
  std::string json_path, suite;
  bool smoke = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      suite = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return lhmm::RunSuiteMain(suite, json_path, smoke);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
