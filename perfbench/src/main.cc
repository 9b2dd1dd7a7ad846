// perfbench — the program behind the end-to-end LHMM benchmark (see ../README.md).
//
//   perfbench prepare --data-dir DIR [--smoke 1]
//       Simulates the Hangzhou-S world (network, towers, training split and a
//       pool of test trajectories), trains LHMM at the LhmmConfig default
//       steps and writes everything, with the model's hash, to DIR.
//   perfbench run --workload offline-hz|stream-hz|serve-tcp --data-dir DIR
//                 --work-dir DIR --seed N --seconds S --trace 0|1
//                 [--serve-bin PATH] [--smoke 1]
//       Runs one workload and prints its metrics; the last stdout line is the
//       JSON result. Exits 1 when an output check fails.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "core/logging.h"
#include "io/dataset_io.h"
#include "io/trajectory_io.h"
#include "lhmm/trainer.h"
#include "sim/dataset.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Test trajectories simulated into the pool the seeds draw from. Each seed's
/// set is a large share of it, which keeps the seed-to-seed spread of the
/// accuracy metrics small.
constexpr int kPoolSize = 400;

std::map<std::string, std::string> ParseArgs(int argc, char** argv, int from) {
  std::map<std::string, std::string> out;
  for (int i = from; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    out[key] = argv[i + 1];
  }
  return out;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "") {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int Prepare(const std::string& dir, bool smoke) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  lhmm::sim::DatasetConfig cfg = lhmm::sim::HangzhouSPreset();
  L::LhmmConfig lhmm_config;
  if (smoke) {
    // A micro world for the smoke test: few trajectories, a few training
    // steps. Its accuracy means nothing; its digests must still repeat.
    cfg.num_train = 60;
    cfg.num_val = 0;
    cfg.num_test = 40;
    lhmm_config.obs_steps = 20;
    lhmm_config.trans_steps = 20;
    lhmm_config.fusion_steps = 20;
  } else {
    cfg.num_test = kPoolSize;
  }
  fprintf(stderr, "prepare: simulating %s (%d train / %d pool)\n",
          cfg.name.c_str(), cfg.num_train, cfg.num_test);
  lhmm::sim::Dataset ds = lhmm::sim::BuildDataset(cfg);

  // The pool holds the test trajectories without their GPS channel; the
  // world bundle is what a serving process loads (no test split).
  std::vector<lhmm::traj::MatchedTrajectory> pool = std::move(ds.test);
  for (lhmm::traj::MatchedTrajectory& mt : pool) mt.gps.points.clear();
  ds.test.clear();
  ds.val.clear();
  lhmm::core::Status st = lhmm::io::SaveTrajectoriesCsv(pool, dir + "/pool.csv");
  CHECK(st.ok()) << st.ToString();
  st = lhmm::io::SaveDatasetBundle(ds, dir + "/world");
  CHECK(st.ok()) << st.ToString();

  // Train on the bundle as loaded back from disk, like `lhmm_cli train`
  // does, so the model is the one the CLI writes for this bundle.
  auto bundle = lhmm::io::LoadDatasetBundle(dir + "/world");
  CHECK(bundle.ok()) << bundle.status().ToString();
  fprintf(stderr, "prepare: training LHMM (%d/%d/%d steps)\n", lhmm_config.obs_steps,
          lhmm_config.trans_steps, lhmm_config.fusion_steps);
  lhmm::network::GridIndex index(&bundle->net, 300.0);
  L::TrainInputs inputs;
  inputs.net = &bundle->net;
  inputs.index = &index;
  inputs.num_towers = static_cast<int>(bundle->towers.size());
  inputs.train = &bundle->train;
  const std::unique_ptr<L::LhmmModel> model = L::TrainLhmm(inputs, lhmm_config);
  st = model->Save(dir + "/model.bin");
  CHECK(st.ok()) << st.ToString();
  const std::string hash = ModelHash(dir);
  {
    std::ofstream out(dir + "/model.hash");
    out << hash << "\n";
  }
  fprintf(stderr, "prepare: model hash %s\n", hash.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces): program entry point.
  if (argc < 2) {
    fprintf(stderr, "usage: perfbench prepare|run [--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const auto args = ParseArgs(argc, argv, 2);
  if (cmd == "prepare") {
    return Prepare(Get(args, "data-dir"), Get(args, "smoke", "0") == "1");
  }
  if (cmd != "run") {
    fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return 2;
  }
  Options opt;
  opt.workload = Get(args, "workload");
  opt.data_dir = Get(args, "data-dir");
  opt.work_dir = Get(args, "work-dir");
  opt.serve_bin = Get(args, "serve-bin");
  opt.seed = std::stoull(Get(args, "seed", "1"));
  opt.seconds = std::stod(Get(args, "seconds", "20"));
  opt.trace = Get(args, "trace", "0") == "1";
  opt.smoke = Get(args, "smoke", "0") == "1";
  if (opt.data_dir.empty() || opt.work_dir.empty()) {
    fprintf(stderr, "run needs --data-dir and --work-dir\n");
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  if (opt.workload == "offline-hz") return RunOffline(opt);
  if (opt.workload == "stream-hz") return RunStream(opt);
  if (opt.workload == "serve-tcp") return RunServe(opt);
  fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
