#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "core/logging.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "io/trajectory_io.h"
#include "lhmm/trainer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch)
      .count();
}

void SleepUntil(double t) {
  const double wait = t - NowS();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

std::unique_ptr<World> LoadWorld(const std::string& data_dir, SetupTimes* times) {
  auto world = std::make_unique<World>();
  const Clock::time_point start = Clock::now();
  auto bundle = lhmm::io::LoadDatasetBundle(data_dir + "/world");
  CHECK(bundle.ok()) << bundle.status().ToString();
  world->bundle = std::move(bundle).value();
  times->bundle_ms = MsSince(start);

  const Clock::time_point index_start = Clock::now();
  world->index =
      std::make_unique<lhmm::network::GridIndex>(&world->bundle.net, 300.0);
  times->index_ms = MsSince(index_start);

  // Rebuild the architecture with a zero-step training run, then load the
  // weights: the load path of lhmm_cli match and lhmm_serve.
  const Clock::time_point model_start = Clock::now();
  L::TrainInputs inputs;
  inputs.net = &world->bundle.net;
  inputs.index = world->index.get();
  inputs.num_towers = static_cast<int>(world->bundle.towers.size());
  inputs.train = &world->bundle.train;
  L::LhmmConfig cfg;
  cfg.obs_steps = 0;
  cfg.trans_steps = 0;
  cfg.fusion_steps = 0;
  world->model = L::TrainLhmm(inputs, cfg);
  world->model->config = L::LhmmConfig{};
  const lhmm::core::Status load = world->model->Load(data_dir + "/model.bin");
  CHECK(load.ok()) << load.ToString();
  times->model_ms = MsSince(model_start);
  times->ready_ms = MsSince(start);
  return world;
}

std::unique_ptr<World> LoadWorldRepeated(const std::string& data_dir, int repeats,
                                         std::vector<SetupTimes>* times) {
  std::unique_ptr<World> world;
  for (int i = 0; i < repeats; ++i) {
    world.reset();
    SetupTimes t;
    world = LoadWorld(data_dir, &t);
    times->push_back(t);
  }
  return world;
}

std::vector<Input> SelectInputs(const std::string& data_dir, uint64_t seed, int n) {
  auto pool = lhmm::io::LoadTrajectoriesCsv(data_dir + "/pool.csv");
  CHECK(pool.ok()) << pool.status().ToString();
  CHECK_LE(n, static_cast<int>(pool->size())) << "pool too small";
  std::vector<int> order(pool->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::mt19937_64 rng(seed);
  // Fisher-Yates with an explicit draw, so the order does not depend on the
  // standard library's shuffle.
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  const lhmm::traj::FilterConfig filters;
  std::vector<Input> out(n);
  for (int i = 0; i < n; ++i) {
    const lhmm::traj::MatchedTrajectory& mt = (*pool)[order[i]];
    out[i].pool_index = order[i];
    out[i].points = lhmm::eval::Preprocess(mt.cellular, filters);
    out[i].truth = mt.truth_path;
  }
  return out;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t PathDigest(const Path& path) {
  uint64_t h = 1469598103934665603ull;
  for (const SegmentId s : path) {
    uint32_t v = static_cast<uint32_t>(s);
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  // Mix in the length so an empty path differs from a missing one.
  h ^= path.size();
  h *= 1099511628211ull;
  return h;
}

uint64_t CombineDigests(const std::vector<uint64_t>& digests) {
  uint64_t h = 1469598103934665603ull;
  for (const uint64_t d : digests) {
    for (int b = 0; b < 8; ++b) {
      h ^= (d >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Accuracy Score(const lhmm::network::RoadNetwork& net,
               const std::vector<Input>& inputs, const std::vector<Path>& paths) {
  CHECK_EQ(inputs.size(), paths.size());
  Accuracy acc;
  if (inputs.empty()) return acc;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const lhmm::eval::PathMetrics m =
        lhmm::eval::ComputePathMetrics(net, paths[i], inputs[i].truth, 50.0);
    acc.precision += m.precision;
    acc.recall += m.recall;
  }
  acc.precision /= static_cast<double>(inputs.size());
  acc.recall /= static_cast<double>(inputs.size());
  return acc;
}

ReferenceStore::ReferenceStore(const std::string& data_dir)
    : path_(data_dir + "/refs.tsv") {
  std::ifstream in(path_);
  std::string kind;
  int index = 0;
  std::string hex;
  while (in >> kind >> index >> hex) {
    refs_[{kind, index}] = std::stoull(hex, nullptr, 16);
  }
}

bool ReferenceStore::Check(const std::string& kind, int pool_index,
                           uint64_t digest) {
  const auto key = std::make_pair(kind, pool_index);
  const auto it = refs_.find(key);
  if (it != refs_.end()) return it->second == digest;
  refs_[key] = digest;
  pending_.push_back(kind + "\t" + std::to_string(pool_index) + "\t" + Hex(digest));
  return true;
}

bool ReferenceStore::Has(const std::string& kind, int pool_index) const {
  return refs_.count({kind, pool_index}) > 0;
}

void ReferenceStore::Save() {
  if (pending_.empty()) return;
  std::ofstream out(path_, std::ios::app);
  for (const std::string& line : pending_) out << line << "\n";
  pending_.clear();
}

namespace {

uint64_t FileHash(const std::string& path, uint64_t h) {
  std::ifstream in(path, std::ios::binary);
  CHECK(in.is_open()) << "cannot read " << path;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

std::string ModelHash(const std::string& data_dir) {
  const uint64_t h = FileHash(data_dir + "/model.bin", 1469598103934665603ull);
  return Hex(FileHash(data_dir + "/model.bin.aux", h));
}

bool CheckModelHash(const std::string& data_dir, Report* report) {
  std::ifstream in(data_dir + "/model.hash");
  std::string recorded;
  in >> recorded;
  const std::string now = ModelHash(data_dir);
  report->Info("model_hash " + now);
  if (now == recorded) return true;
  report->Info("model files changed since they were trained: recorded hash " +
               recorded);
  return false;
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& line) { printf("info %s\n", line.c_str()); }

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  for (const auto& [name, vu] : metrics_) {
    printf("metric %-40s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g", metrics_[i].second.first);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].first + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
}

void AddSetupMetrics(const std::vector<SetupTimes>& setups, bool per_layer,
                     Report* report) {
  std::vector<double> ready, bundle, index, model;
  for (const SetupTimes& s : setups) {
    ready.push_back(s.ready_ms);
    bundle.push_back(s.bundle_ms);
    index.push_back(s.index_ms);
    model.push_back(s.model_ms);
  }
  if (!per_layer) {
    report->Add("setup_s", Median(ready) / 1e3, "s");
    return;
  }
  report->Add("setup.bundle_ms", Median(bundle), "ms");
  report->Add("setup.model_ms", Median(model), "ms");
  report->Add("setup.index_ms", Median(index), "ms");
  report->Add("setup.ready_ms", Median(ready), "ms");
}

}  // namespace perfbench
