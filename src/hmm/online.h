#ifndef LHMM_HMM_ONLINE_H_
#define LHMM_HMM_ONLINE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "hmm/candidate.h"
#include "hmm/engine.h"
#include "hmm/models.h"
#include "network/path_cache.h"

namespace lhmm::hmm {

/// Configuration of the fixed-lag online matcher.
struct OnlineConfig {
  int k = 20;            ///< Candidates per point.
  int lag = 8;           ///< Points of look-ahead before a point is committed.
  double route_bound_alpha = 4.0;
  double route_bound_beta = 1500.0;
  double max_route_bound = 12000.0;
};

/// The complete resumable state of an OnlineMatcher, for drain/restore of
/// live serving sessions. The windowed DP is recomputed from the window on
/// every Advance, so the anchor candidate, the buffered window, the committed
/// path (its tail drives consecutive-segment dedup), and the counters are
/// sufficient: a matcher restored from a checkpoint continues with output
/// byte-identical to one that was never interrupted.
struct OnlineCheckpoint {
  bool has_anchor = false;
  Candidate anchor;
  traj::TrajPoint anchor_point;
  std::vector<traj::TrajPoint> window;
  std::vector<network::SegmentId> committed;
  int64_t pushed = 0;
  int64_t consumed = 0;
  int64_t breaks = 0;
};

/// Fixed-lag online map matching: points stream in one at a time; once a
/// point has `lag` successors, its match is committed and the road segments
/// connecting it to the previous commitment are emitted. Runs the same
/// observation/transition models as the offline Engine over a sliding
/// window, so any matcher family (classical or learned) can run in real
/// time with a bounded decision delay.
///
/// The matcher owns a shortcut-free Engine and decodes every window with the
/// engine's own Decode() — the DP, break restart and backward pass are the
/// offline ones. The committed anchor is re-inserted at the head of every
/// window as a pinned single-candidate point, so transitions out of it are
/// scored with the real timestamps and positions (no degenerate dt = 0
/// stand-in). On Finish() the whole remaining chain is committed from one
/// decode, which makes the streamed path equal to the offline Viterbi path
/// (Engine with shortcuts disabled) whenever `lag >= trajectory length`.
///
/// Latency/accuracy trade-off: larger lag approaches offline Viterbi
/// accuracy; lag 0 is greedy anchored tracking.
class OnlineMatcher {
 public:
  /// All pointers must outlive the matcher.
  OnlineMatcher(const network::RoadNetwork* net, network::CachedRouter* router,
                ObservationModel* obs, TransitionModel* trans,
                const OnlineConfig& config);

  /// Feeds the next trajectory point; returns the road segments newly
  /// committed by this update (often empty while the window fills).
  std::vector<network::SegmentId> Push(const traj::TrajPoint& point);

  /// Flushes the window at end of stream: commits the best path for all
  /// pending points and returns its segments.
  std::vector<network::SegmentId> Finish();

  /// Total committed path so far (everything ever returned, concatenated).
  const std::vector<network::SegmentId>& committed() const { return committed_; }

  /// Resets all streaming state (including the counters) for a new trajectory.
  void Reset();

  /// Snapshots the resumable state. Valid at any quiescent moment (no Push or
  /// Finish in flight).
  OnlineCheckpoint Checkpoint() const;

  /// Replaces all streaming state with `checkpoint`. Subsequent pushes emit
  /// exactly what the checkpointed matcher would have emitted.
  void Restore(const OnlineCheckpoint& checkpoint);

  /// Points fed via Push() since construction / Reset().
  int64_t pushed_points() const { return pushed_; }

  /// Points whose decision is final: committed to the path or dropped as
  /// unmatchable. Consumption is FIFO, so the consumed points are exactly
  /// the first consumed_points() arrivals; callers derive per-point commit
  /// latency by diffing this counter around Push()/Finish().
  int64_t consumed_points() const { return consumed_; }

  /// Points currently buffered and awaiting look-ahead.
  int pending_points() const { return static_cast<int>(window_.size()); }

  /// Committed HMM breaks: commits whose connecting route from the previous
  /// anchor did not exist (the windowed DP restarted across the gap and the
  /// path was stitched with a discontinuity). The online mirror of
  /// EngineResult::breaks. 0 on healthy input.
  int64_t breaks() const { return breaks_; }

  /// The shortcut-free engine that decodes the window; its Match() is the
  /// offline reference the fixed-lag output converges to.
  Engine* engine() { return &engine_; }

 private:
  /// Decodes the window and commits the oldest point — or, when `flush` is
  /// set, the entire chain. Guarantees progress: at least one window point
  /// is consumed whenever the window is non-empty.
  std::vector<network::SegmentId> Advance(bool flush);

  Engine engine_;
  int lag_;

  std::deque<traj::TrajPoint> window_;
  /// Anchor: the last committed candidate (invalid before the first commit).
  Candidate anchor_;
  bool has_anchor_ = false;
  traj::TrajPoint anchor_point_;
  std::vector<network::SegmentId> committed_;
  int64_t pushed_ = 0;
  int64_t consumed_ = 0;
  int64_t breaks_ = 0;
};

}  // namespace lhmm::hmm

#endif  // LHMM_HMM_ONLINE_H_
