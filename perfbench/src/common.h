// Shared pieces of the end-to-end benchmark program: the prepared world
// (dataset bundle, grid index, trained LHMM), the seeded workload inputs,
// statistics, path digests, the per-trajectory reference store and the
// result printer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/dataset_io.h"
#include "lhmm/model.h"
#include "network/grid_index.h"
#include "traj/trajectory.h"

namespace perfbench {

namespace L = ::lhmm::lhmm;
using lhmm::network::SegmentId;
using Path = std::vector<SegmentId>;

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double NowS();
/// Nanoseconds on the same clock.
int64_t NowNs();
/// Sleeps until NowS() reaches `t`.
void SleepUntil(double t);

/// Command-line options of one workload run.
struct Options {
  std::string workload;
  std::string data_dir;  ///< Prepared world + reference store.
  std::string work_dir;  ///< Scratch for spans and the server's files.
  std::string serve_bin;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
};

/// Wall times of one set-up: the calls a serving process makes before it can
/// take its first input.
struct SetupTimes {
  double bundle_ms = 0.0;  ///< io::LoadDatasetBundle.
  double index_ms = 0.0;   ///< network::GridIndex construction.
  double model_ms = 0.0;   ///< Architecture rebuild + LhmmModel::Load.
  double ready_ms = 0.0;   ///< All of the above.
};

/// The loaded world. Heap-allocated and never moved: the index and the
/// model point into the bundle's network.
struct World {
  lhmm::io::DatasetBundle bundle;
  std::unique_ptr<lhmm::network::GridIndex> index;
  std::shared_ptr<L::LhmmModel> model;
};

/// Loads the world the way lhmm_serve does (bundle, index, zero-step
/// architecture rebuild, weights) and times each call.
std::unique_ptr<World> LoadWorld(const std::string& data_dir, SetupTimes* times);

/// Sets up `repeats` times and returns the last world; `times` receives every
/// set-up's timings.
std::unique_ptr<World> LoadWorldRepeated(const std::string& data_dir, int repeats,
                                         std::vector<SetupTimes>* times);

/// One workload input: a test trajectory from the prepared pool, preprocessed
/// once with eval::Preprocess so every workload feeds the same points.
struct Input {
  int pool_index = 0;
  lhmm::traj::Trajectory points;
  Path truth;
};

/// `n` distinct pool trajectories chosen by `seed` (seeded shuffle of the
/// pool), in the shuffled order.
std::vector<Input> SelectInputs(const std::string& data_dir, uint64_t seed, int n);

/// Percentile with linear interpolation, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// FNV-1a digests of paths, and of a sequence of path digests.
uint64_t PathDigest(const Path& path);
uint64_t CombineDigests(const std::vector<uint64_t>& digests);
std::string Hex(uint64_t v);

/// Mean precision/recall of `paths` against the inputs' truth paths.
struct Accuracy {
  double precision = 0.0;
  double recall = 0.0;
};
Accuracy Score(const lhmm::network::RoadNetwork& net,
               const std::vector<Input>& inputs, const std::vector<Path>& paths);

/// Per-trajectory reference digests kept in the data directory across runs,
/// keyed by (kind, pool index). Check() compares against a stored digest and
/// records new ones; Save() appends the new ones to the file.
class ReferenceStore {
 public:
  explicit ReferenceStore(const std::string& data_dir);
  /// True when `digest` agrees with the stored reference (or none exists).
  bool Check(const std::string& kind, int pool_index, uint64_t digest);
  bool Has(const std::string& kind, int pool_index) const;
  void Save();

 private:
  std::string path_;
  std::map<std::pair<std::string, int>, uint64_t> refs_;
  std::vector<std::string> pending_;
};

/// FNV-1a hash of the trained model files (model.bin, then model.bin.aux).
std::string ModelHash(const std::string& data_dir);

/// Process CPU seconds (user + system) of this process.
double ProcessCpuS();
/// Peak resident set (VmHWM) of a process, in MB; pid 0 = this process.
double PeakRssMb(int pid = 0);

/// Named metrics of one run, printed with their units.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& line);  ///< A free-form "info" line on stdout.
  /// Prints the metric lines and, last, the JSON result line.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Adds the metrics every workload reports: setup_s and its parts.
void AddSetupMetrics(const std::vector<SetupTimes>& setups, bool per_layer,
                     Report* report);

/// Hashes the model files now, prints the hash and returns whether it equals
/// the one recorded when the world was prepared (model.hash).
bool CheckModelHash(const std::string& data_dir, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
