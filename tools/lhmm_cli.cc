// lhmm_cli — command-line front end for the library, wiring the I/O formats
// to the simulator, trainer, matcher, and evaluator so the whole pipeline can
// run from the shell without writing C++:
//
//   lhmm_cli simulate --preset Xiamen-S --out data/xiamen      # dataset to disk
//   lhmm_cli train    --data data/xiamen --model m.bin         # train LHMM
//   lhmm_cli match    --data data/xiamen --model m.bin \
//                     --out matched.paths [--render scene.svg] # match test split
//   lhmm_cli eval     --data data/xiamen --paths matched.paths # score paths
//
// Dataset layout on disk: <out>_nodes.csv, <out>_segments.csv (network),
// <out>_train.csv / <out>_test.csv (+ .paths) (trajectories),
// <out>_towers.csv (tower positions).

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "core/csv.h"
#include "core/stopwatch.h"
#include "core/strings.h"
#include "eval/evaluator.h"
#include "eval/report.h"
#include "io/dataset_io.h"
#include "io/network_io.h"
#include "io/trajectory_io.h"
#include "lhmm/lhmm_matcher.h"
#include "lhmm/trainer.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "sim/dataset.h"
#include "traj/sanitize.h"
#include "viz/svg.h"

using namespace lhmm;  // NOLINT(build/namespaces): CLI driver.
namespace L = ::lhmm::lhmm;

namespace {

/// Minimal --key value argument parser.
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

int Fail(const core::Status& status) {
  fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

using Bundle = io::DatasetBundle;
const auto SaveBundle = io::SaveDatasetBundle;
const auto LoadBundle = io::LoadDatasetBundle;

int CmdSimulate(const std::map<std::string, std::string>& args) {
  const std::string preset = Get(args, "preset", "Xiamen-S");
  const std::string out = Get(args, "out");
  if (out.empty()) {
    fprintf(stderr, "simulate requires --out <prefix>\n");
    return 1;
  }
  sim::DatasetConfig cfg =
      preset == "Hangzhou-S" ? sim::HangzhouSPreset() : sim::XiamenSPreset();
  int v = 0;
  if (core::ParseInt(Get(args, "train", ""), &v)) cfg.num_train = v;
  if (core::ParseInt(Get(args, "test", ""), &v)) cfg.num_test = v;
  if (core::ParseInt(Get(args, "seed", ""), &v)) cfg.seed = v;
  printf("Simulating %s (%d train / %d test)...\n", cfg.name.c_str(),
         cfg.num_train, cfg.num_test);
  const sim::Dataset ds = sim::BuildDataset(cfg);
  const core::Status status = SaveBundle(ds, out);
  if (!status.ok()) return Fail(status);
  printf("Wrote dataset bundle with prefix %s\n", out.c_str());
  return 0;
}

int CmdTrain(const std::map<std::string, std::string>& args) {
  const std::string data = Get(args, "data");
  const std::string model_path = Get(args, "model");
  if (data.empty() || model_path.empty()) {
    fprintf(stderr, "train requires --data <prefix> --model <file>\n");
    return 1;
  }
  auto bundle = LoadBundle(data);
  if (!bundle.ok()) return Fail(bundle.status());
  network::GridIndex index(&bundle->net, 300.0);
  L::TrainInputs inputs;
  inputs.net = &bundle->net;
  inputs.index = &index;
  inputs.num_towers = static_cast<int>(bundle->towers.size());
  inputs.train = &bundle->train;
  L::LhmmConfig cfg;
  cfg.verbose = Get(args, "verbose", "0") == "1";
  // Micro-training knobs, mainly for smoke runs and golden tests; a model
  // trained with a non-default --encoder-dim must be matched with the same.
  int v = 0;
  if (core::ParseInt(Get(args, "obs-steps", ""), &v)) cfg.obs_steps = v;
  if (core::ParseInt(Get(args, "trans-steps", ""), &v)) cfg.trans_steps = v;
  if (core::ParseInt(Get(args, "fusion-steps", ""), &v)) cfg.fusion_steps = v;
  if (core::ParseInt(Get(args, "encoder-dim", ""), &v)) cfg.encoder.dim = v;
  printf("Training LHMM on %zu trajectories...\n", bundle->train.size());
  std::shared_ptr<L::LhmmModel> model = L::TrainLhmm(inputs, cfg);
  const core::Status status = model->Save(model_path);
  if (!status.ok()) return Fail(status);
  printf("Model written to %s (+.aux)\n", model_path.c_str());
  return 0;
}

int CmdMatch(const std::map<std::string, std::string>& args) {
  const std::string data = Get(args, "data");
  const std::string model_path = Get(args, "model");
  const std::string out = Get(args, "out");
  if (data.empty() || model_path.empty() || out.empty()) {
    fprintf(stderr, "match requires --data <prefix> --model <file> --out <file>\n");
    return 1;
  }
  auto bundle = LoadBundle(data);
  if (!bundle.ok()) return Fail(bundle.status());
  network::GridIndex index(&bundle->net, 300.0);
  L::TrainInputs inputs;
  inputs.net = &bundle->net;
  inputs.index = &index;
  inputs.num_towers = static_cast<int>(bundle->towers.size());
  inputs.train = &bundle->train;
  // --encoder-dim shapes the architecture only; the loaded model carries the
  // default config.
  L::LhmmConfig architecture;
  int dim = 0;
  if (core::ParseInt(Get(args, "encoder-dim", ""), &dim)) architecture.encoder.dim = dim;
  auto model = L::LoadLhmm(inputs, model_path, architecture);
  if (!model.ok()) return Fail(model.status());

  L::LhmmMatcher matcher(&bundle->net, &index, *model);

  // Opt-in cache pre-heating: one shared router, every (segment, neighbor)
  // pair precomputed, so matching pays no first-query routing latency.
  network::CachedRouter shared_router(&bundle->net);
  if (Get(args, "warm-cache", "0") == "1") {
    double radius = 1500.0;
    double r = 0.0;
    if (core::ParseDouble(Get(args, "warm-radius", ""), &r) && r > 0.0) {
      radius = r;
    }
    core::Stopwatch watch;
    shared_router.WarmAll(index, radius);
    printf("Warmed route cache: %zu routes within %.0f m in %.2fs\n",
           shared_router.size(), radius, watch.ElapsedSeconds());
    matcher.UseSharedRouter(&shared_router);
  }

  // Opt-in input sanitization (reject | drop | repair) ahead of the
  // preprocessing filters; --sanitize repair is the recommended posture for
  // feeds that may carry broken fixes.
  const std::string sanitize_arg = Get(args, "sanitize");
  traj::SanitizeConfig sanitize_config;
  bool sanitize = true;
  if (sanitize_arg == "reject") {
    sanitize_config.policy = traj::SanitizePolicy::kReject;
  } else if (sanitize_arg == "drop") {
    sanitize_config.policy = traj::SanitizePolicy::kDropPoint;
  } else if (sanitize_arg == "repair") {
    sanitize_config.policy = traj::SanitizePolicy::kRepair;
  } else if (sanitize_arg.empty()) {
    sanitize = false;
  } else {
    fprintf(stderr, "unknown --sanitize policy '%s'\n", sanitize_arg.c_str());
    return 1;
  }
  sanitize_config.num_towers = static_cast<int>(bundle->towers.size());
  sanitize_config.network_bounds = bundle->net.Bounds();

  traj::FilterConfig filters;
  int total_issues = 0;
  int total_breaks = 0;
  std::vector<std::vector<network::SegmentId>> matched;
  for (const auto& mt : bundle->test) {
    traj::Trajectory cellular = mt.cellular;
    if (sanitize) {
      traj::SanitizeReport report;
      auto cleaned = traj::Sanitize(cellular, sanitize_config, &report);
      if (!cleaned.ok()) return Fail(cleaned.status());
      total_issues += report.issues();
      cellular = std::move(*cleaned);
    }
    const traj::Trajectory t = eval::Preprocess(cellular, filters);
    matchers::MatchResult result = matcher.Match(t);
    total_breaks += result.num_breaks;
    matched.push_back(std::move(result.path));
  }
  const core::Status status = io::SavePaths(matched, out);
  if (!status.ok()) return Fail(status);
  printf("Matched %zu trajectories -> %s\n", matched.size(), out.c_str());
  if (sanitize) {
    printf("Sanitize (%s): %d issue(s) across the split\n",
           traj::SanitizePolicyName(sanitize_config.policy), total_issues);
  }
  if (total_breaks > 0) {
    printf("Survived %d HMM break(s); gaps were stitched, not dropped\n",
           total_breaks);
  }

  const std::string render = Get(args, "render");
  if (!render.empty() && !bundle->test.empty()) {
    viz::SvgScene scene(bundle->net.Bounds(), 1200.0);
    scene.DrawNetwork(bundle->net, {.color = "#d8d8d8", .width = 0.7});
    scene.DrawPath(bundle->net, bundle->test[0].truth_path,
                   {.color = "#2b6cb0", .width = 3.0, .opacity = 0.9});
    scene.DrawPath(bundle->net, matched[0],
                   {.color = "#2f855a", .width = 2.2, .opacity = 0.9});
    traj::Trajectory cleaned = eval::Preprocess(bundle->test[0].cellular, filters);
    scene.DrawTrajectory(cleaned, {.color = "#c53030", .width = 1.6});
    scene.AddLegend("ground truth", {.color = "#2b6cb0"});
    scene.AddLegend("LHMM match", {.color = "#2f855a"});
    scene.AddLegend("cellular points", {.color = "#c53030"});
    const core::Status svg = scene.Write(render);
    if (!svg.ok()) return Fail(svg);
    printf("Scene for trajectory 0 rendered to %s\n", render.c_str());
  }
  return 0;
}

int CmdEval(const std::map<std::string, std::string>& args) {
  const std::string data = Get(args, "data");
  const std::string paths_file = Get(args, "paths");
  if (data.empty() || paths_file.empty()) {
    fprintf(stderr, "eval requires --data <prefix> --paths <file>\n");
    return 1;
  }
  auto bundle = LoadBundle(data);
  if (!bundle.ok()) return Fail(bundle.status());
  auto paths = io::LoadPaths(paths_file);
  if (!paths.ok()) return Fail(paths.status());
  if (paths->size() != bundle->test.size()) {
    fprintf(stderr, "path count %zu != test split size %zu\n", paths->size(),
            bundle->test.size());
    return 1;
  }
  double precision = 0.0;
  double recall = 0.0;
  double rmf = 0.0;
  double cmf = 0.0;
  for (size_t i = 0; i < paths->size(); ++i) {
    const eval::PathMetrics m = eval::ComputePathMetrics(
        bundle->net, (*paths)[i], bundle->test[i].truth_path, 50.0);
    precision += m.precision;
    recall += m.recall;
    rmf += m.rmf;
    cmf += m.cmf;
  }
  const double n = static_cast<double>(paths->size());
  eval::TextTable table({"metric", "value"});
  table.AddRow({"precision", eval::Fmt(precision / n)});
  table.AddRow({"recall", eval::Fmt(recall / n)});
  table.AddRow({"RMF", eval::Fmt(rmf / n)});
  table.AddRow({"CMF50", eval::Fmt(cmf / n)});
  table.Print();
  return 0;
}

void Usage() {
  fprintf(stderr,
          "usage: lhmm_cli <simulate|train|match|eval> [--key value ...]\n"
          "  simulate --preset Hangzhou-S|Xiamen-S --out PREFIX [--train N]"
          " [--test N] [--seed S]\n"
          "  train    --data PREFIX --model FILE [--verbose 1]\n"
          "           [--obs-steps N] [--trans-steps N] [--fusion-steps N]"
          " [--encoder-dim D]\n"
          "  match    --data PREFIX --model FILE --out FILE [--render FILE.svg]\n"
          "           [--encoder-dim D] [--warm-cache 1 [--warm-radius M]]"
          " [--sanitize reject|drop|repair]\n"
          "  eval     --data PREFIX --paths FILE\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const auto args = ParseArgs(argc, argv, 2);
  if (cmd == "simulate") return CmdSimulate(args);
  if (cmd == "train") return CmdTrain(args);
  if (cmd == "match") return CmdMatch(args);
  if (cmd == "eval") return CmdEval(args);
  Usage();
  return 1;
}
