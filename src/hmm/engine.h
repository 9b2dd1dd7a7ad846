#ifndef LHMM_HMM_ENGINE_H_
#define LHMM_HMM_ENGINE_H_

#include <vector>

#include "hmm/models.h"
#include "hmm/viterbi_kernel.h"
#include "network/path_cache.h"
#include "network/road_network.h"

namespace lhmm::hmm {

/// Knobs of the path-finding process (Section IV-E).
struct EngineConfig {
  int k = 45;                  ///< Candidates per point (30 for LHMM in V-A2).
  bool use_shortcuts = false;  ///< Enable the Algorithm 2 optimization.
  int num_shortcuts = 1;       ///< K of Eq. (20); 1 suffices per Fig. 9.
  /// Route search bound = alpha * straight-line distance + beta, clamped to
  /// max_route_bound (meters).
  double route_bound_alpha = 4.0;
  double route_bound_beta = 1500.0;
  double max_route_bound = 12000.0;
};

/// Everything the evaluator needs from one matched trajectory.
struct EngineResult {
  /// The expanded matched path P as consecutive road segments.
  std::vector<network::SegmentId> path;
  /// Final candidate sets per retained point, including any candidates the
  /// shortcut pass appended; drives the Hitting Ratio metric.
  std::vector<CandidateSet> candidates;
  /// Original trajectory index of each retained point (points whose candidate
  /// set came back empty are dropped before the DP).
  std::vector<int> point_index;
  /// Chosen candidate segment per retained point.
  std::vector<network::SegmentId> matched;
  /// HMM breaks: retained-point positions s (indices into point_index /
  /// matched) where no candidate was reachable from step s-1 and Viterbi
  /// restarted (Newson–Krumm-style split-and-stitch). Empty on healthy input.
  std::vector<int> breaks;
  /// Trajectory seconds spanned by the break gaps, and the complementary
  /// fraction of the duration covered by connected sub-paths (1.0 when
  /// break-free or the duration is zero).
  double gap_seconds = 0.0;
  double gap_coverage = 1.0;

  int num_breaks() const { return static_cast<int>(breaks.size()); }
};

/// The output of one decode step: the Viterbi choice per retained point.
struct Decoding {
  /// Chosen candidate index per retained point (into the candidate sets the
  /// decode ran over, including any the shortcut pass appended).
  std::vector<int> chosen;
  /// Retained-point positions where the DP restarted (EngineResult::breaks).
  std::vector<int> breaks;
  /// Straight-line hop from retained point s-1 to s (0 at s = 0); drives the
  /// route search bounds of the decode and of the path expansion.
  std::vector<double> straight;
};

/// The HMM path-finding framework: candidate preparation, candidate graph
/// construction, Viterbi (Algorithm 1), and the shortcut optimization
/// (Algorithm 2). Observation and transition probabilities are pluggable, so
/// every HMM-family matcher in this library — classical baselines and LHMM —
/// runs through this one engine, offline via Match() and online through
/// hmm::OnlineMatcher, which drives the same Decode() over its window.
class Engine {
 public:
  /// All pointers must outlive the engine. The router is shared so its
  /// shortest-path cache amortizes across trajectories and matchers.
  Engine(const network::RoadNetwork* net, network::CachedRouter* router,
         ObservationModel* obs, TransitionModel* trans, const EngineConfig& config);

  /// Matches one (preprocessed) cellular trajectory.
  EngineResult Match(const traj::Trajectory& t);

  /// Candidate preparation: begins `t` on both models, then appends the
  /// candidate set of every point in [first, t.size()) that has one, with the
  /// point's trajectory index. Points with no candidate in range are skipped.
  void PrepareCandidates(const traj::Trajectory& t, int first,
                         std::vector<CandidateSet>* cands,
                         std::vector<int>* point_index);

  /// The decode step: forward Viterbi (Algorithm 1) over the non-empty
  /// candidate sets `cands` of the retained points `point_index`, with
  /// Algorithm 2 interleaved when use_shortcuts is set (it may append
  /// projected candidates to `cands`), restart on unreachable columns, and
  /// the restart-aware backward pass. `pinned_start` scores the first point's
  /// candidates 0 instead of their observation (an online anchor).
  Decoding Decode(const traj::Trajectory& t, const std::vector<int>& point_index,
                  std::vector<CandidateSet>* cands, bool pinned_start);

  /// The transition weights of column s (Eq. (13)): resets `w` to
  /// |cands[s-1]| x |cands[s]| and fills W(c_{s-1}^j -> c_s^k) = P_T * P_O
  /// with one RouteMany per predecessor row over the shared target list,
  /// bounded by the route bound of the hop length `straight`. Model calls
  /// happen in (j, k) order, so stateful models observe a fixed call
  /// sequence. When `f_prev` is non-null, a row whose score f_prev[j] is -inf
  /// is left unreachable without a route query: all its scores would be -inf,
  /// which the column kernel skips anyway.
  void ColumnWeights(const traj::Trajectory& t, const std::vector<int>& point_index,
                     const std::vector<CandidateSet>& cands, int s,
                     double straight, const double* f_prev, WeightMatrix* w);

  /// Path expansion of one hop: appends the segments of the route from `from`
  /// to `to` to `path`, skipping consecutive duplicates. When no route exists
  /// within the bound, appends `to`'s segment instead and returns true if
  /// that stitched a discontinuity (the segment differs from the path tail).
  bool AppendLeg(const Candidate& from, const Candidate& to, double straight,
                 std::vector<network::SegmentId>* path);

  const EngineConfig& config() const { return config_; }
  EngineConfig* mutable_config() { return &config_; }

  /// Number of times the shortcut pass improved a candidate's score since
  /// construction (diagnostics; drives the Fig. 9 analysis). All diagnostics
  /// counters are per-engine-instance — engines run concurrently in batch
  /// matching, so callers aggregate across instances instead of reading a
  /// shared static.
  int64_t shortcuts_applied() const { return shortcuts_applied_; }

  /// The plugged-in models.
  ObservationModel* observation_model() { return obs_; }
  TransitionModel* transition_model() { return trans_; }

 private:
  double RouteBound(double straight_dist) const;

  /// Runs the interleaved Algorithm 2 step for point `s`, possibly appending
  /// a projected candidate to `cands[s-1]` and improving f/pre at `s`.
  /// `w_prev` and `w_cur` are the original transition-weight matrices of
  /// steps s-1 and s (Eq. 20 operates on those).
  void ShortcutPass(const traj::Trajectory& t, int s,
                    const std::vector<int>& point_index,
                    std::vector<CandidateSet>* cands,
                    const WeightMatrix& w_prev, const WeightMatrix& w_cur,
                    std::vector<std::vector<double>>* f,
                    std::vector<std::vector<int>>* pre);

  const network::RoadNetwork* net_;
  network::CachedRouter* router_;
  ObservationModel* obs_;
  TransitionModel* trans_;
  EngineConfig config_;
  /// Rotating flat weight arenas (step s-1 and s) and the per-column target
  /// list, reused across columns and trajectories.
  WeightMatrix w_prev_, w_cur_;
  std::vector<network::SegmentId> cur_segments_;
  int64_t shortcuts_applied_ = 0;
};

}  // namespace lhmm::hmm

#endif  // LHMM_HMM_ENGINE_H_
