#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "core/logging.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"

namespace lhmm::bench {

namespace {
constexpr char kCacheDir[] = "bench_cache";
}

bool FastMode() {
  const char* v = std::getenv("LHMM_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

Env MakeEnv(const std::string& which, bool fast) {
  sim::DatasetConfig cfg =
      which == "Hangzhou-S" ? sim::HangzhouSPreset() : sim::XiamenSPreset();
  if (fast || FastMode()) {
    cfg.num_train = cfg.num_train / 4;
    cfg.num_val = cfg.num_val / 4;
    cfg.num_test = cfg.num_test / 4;
  }
  Env env;
  core::Stopwatch watch;
  env.ds = sim::BuildDataset(cfg);
  env.index = std::make_unique<network::GridIndex>(&env.ds.network, 300.0);
  fprintf(stderr, "[bench] dataset %s ready in %.1f s (%d segments, %d towers)\n",
          cfg.name.c_str(), watch.ElapsedSeconds(), env.ds.network.num_segments(),
          static_cast<int>(env.ds.towers.size()));
  return env;
}

std::shared_ptr<lhmm::LhmmModel> GetLhmmModel(const Env& env,
                                              const lhmm::LhmmConfig& config,
                                              const std::string& tag) {
  std::filesystem::create_directories(kCacheDir);
  const std::string path = std::string(kCacheDir) + "/" + env.ds.name + "_" + tag +
                           (FastMode() ? "_fast" : "") + ".model";

  lhmm::TrainInputs inputs;
  inputs.net = env.net();
  inputs.index = env.index.get();
  inputs.num_towers = env.num_towers();
  inputs.train = &env.ds.train;

  if (std::filesystem::exists(path)) {
    auto cached = lhmm::LoadLhmm(inputs, path, config, config);
    if (cached.ok()) {
      fprintf(stderr, "[bench] loaded cached model %s\n", path.c_str());
      return *cached;
    }
    fprintf(stderr, "[bench] cache load failed (%s); retraining\n",
            cached.status().ToString().c_str());
  }

  core::Stopwatch watch;
  std::shared_ptr<lhmm::LhmmModel> model = lhmm::TrainLhmm(inputs, config);
  fprintf(stderr, "[bench] trained %s/%s in %.1f s\n", env.ds.name.c_str(),
          tag.c_str(), watch.ElapsedSeconds());
  const core::Status status = model->Save(path);
  if (!status.ok()) {
    fprintf(stderr, "[bench] warning: cannot cache model: %s\n",
            status.ToString().c_str());
  }
  return model;
}

lhmm::LhmmConfig DefaultLhmmConfig() {
  lhmm::LhmmConfig config;
  return config;
}

std::unique_ptr<matchers::Seq2SeqMatcher> GetSeq2Seq(
    const Env& env,
    std::unique_ptr<matchers::Seq2SeqMatcher> (*maker)(const network::RoadNetwork*,
                                                       const network::GridIndex*,
                                                       int, uint64_t),
    const std::string& tag) {
  std::filesystem::create_directories(kCacheDir);
  const std::string path = std::string(kCacheDir) + "/" + env.ds.name + "_" + tag +
                           (FastMode() ? "_fast" : "") + ".model";
  std::unique_ptr<matchers::Seq2SeqMatcher> matcher =
      maker(env.net(), env.index.get(), env.num_towers(), 77);
  if (std::filesystem::exists(path) && matcher->Load(path).ok()) {
    fprintf(stderr, "[bench] loaded cached model %s\n", path.c_str());
    return matcher;
  }
  core::Stopwatch watch;
  traj::FilterConfig filters;
  matcher->Train(env.ds.train, filters);
  fprintf(stderr, "[bench] trained %s/%s in %.1f s\n", env.ds.name.c_str(),
          tag.c_str(), watch.ElapsedSeconds());
  const core::Status status = matcher->Save(path);
  if (!status.ok()) {
    fprintf(stderr, "[bench] warning: cannot cache model: %s\n",
            status.ToString().c_str());
  }
  return matcher;
}

hmm::ClassicModelConfig GpsModelConfig() {
  hmm::ClassicModelConfig cfg;
  // GPS-era scales: tuned for tens of meters of noise, kept (as the paper
  // argues) unsuited to 0.1-3 km cellular errors.
  cfg.obs_sigma = 260.0;
  cfg.search_radius = 1700.0;
  cfg.trans_beta = 420.0;
  return cfg;
}

hmm::ClassicModelConfig CtmmModelConfig() {
  hmm::ClassicModelConfig cfg;
  // Cellular-tailored scales.
  cfg.obs_sigma = 480.0;
  cfg.search_radius = 2300.0;
  cfg.trans_beta = 520.0;
  return cfg;
}

hmm::EngineConfig BaselineEngineConfig() {
  hmm::EngineConfig cfg;
  cfg.k = 45;
  return cfg;
}

int ThreadsFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      const int n = std::atoi(arg + 10);
      if (n >= 1) return n;
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      const int n = std::atoi(argv[i + 1]);
      if (n >= 1) return n;
    }
  }
  return core::ThreadPool::DefaultThreadCount();
}

matchers::MatcherFactory Seq2SeqFactory(
    const Env& env,
    std::unique_ptr<matchers::Seq2SeqMatcher> (*maker)(const network::RoadNetwork*,
                                                       const network::GridIndex*,
                                                       int, uint64_t),
    const std::string& tag) {
  // Train (or load) exactly one prototype, then hand every worker clone a
  // shared read-only view of its weights: the inference path never writes
  // them, so N clones cost one copy of the model instead of N disk reloads
  // (or N retrains) that used to run per clone.
  std::shared_ptr<matchers::Seq2SeqMatcher> prototype =
      GetSeq2Seq(env, maker, tag);
  return [prototype]() -> std::unique_ptr<matchers::MapMatcher> {
    return prototype->SharedClone();
  };
}

core::Status WriteTimingsJson(const std::string& path, const std::string& dataset,
                              int threads,
                              const std::vector<MatcherTiming>& timings) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return core::Status::IoError("cannot open " + path);
  }
  std::fprintf(f, "{\n  \"dataset\": \"%s\",\n  \"threads\": %d,\n  \"matchers\": [\n",
               dataset.c_str(), threads);
  for (size_t i = 0; i < timings.size(); ++i) {
    const MatcherTiming& t = timings[i];
    std::fprintf(f,
                 "    {\"matcher\": \"%s\", \"wall_s\": %.4f, \"work_s\": %.4f, "
                 "\"speedup\": %.2f}%s\n",
                 t.matcher.c_str(), t.wall_s, t.work_s, t.speedup,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return core::Status::Ok();
}

}  // namespace lhmm::bench
