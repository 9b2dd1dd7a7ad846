#ifndef LHMM_MATCHERS_STREAMING_H_
#define LHMM_MATCHERS_STREAMING_H_

#include <cstdint>
#include <vector>

#include "hmm/engine.h"
#include "hmm/online.h"
#include "network/path_cache.h"
#include "traj/trajectory.h"

namespace lhmm::matchers {

/// Knobs of a streaming session; everything else (candidate count k, route
/// bounds, models) comes from the matcher that opens the session.
struct StreamConfig {
  /// Points of look-ahead before a point's match is committed. Larger lag
  /// approaches offline Viterbi accuracy at the cost of decision delay;
  /// lag >= trajectory length reproduces the offline path exactly.
  int lag = 8;
};

/// Commit-latency accounting of one session, in points: a point's latency is
/// the number of later arrivals that were pushed before its match became
/// final (== lag in steady state, less at end of stream).
struct SessionStats {
  int64_t points_pushed = 0;
  int64_t points_committed = 0;
  int64_t latency_points_sum = 0;
  /// Committed HMM breaks (hmm::OnlineMatcher::breaks()): discontinuities the
  /// session stitched across because no connecting route existed.
  int64_t breaks = 0;

  double MeanCommitLatency() const {
    return points_committed > 0
               ? static_cast<double>(latency_points_sum) /
                     static_cast<double>(points_committed)
               : 0.0;
  }
};

/// The portable resumable state of one streaming session, produced by
/// StreamingSession::Checkpoint for graceful drain and consumed by Restore on
/// a freshly opened session (possibly in another process). A restored session
/// continues with output byte-identical to the uninterrupted one.
struct SessionSnapshot {
  hmm::OnlineCheckpoint online;
  int64_t latency_points_sum = 0;
};

/// One live fixed-lag matching session: points of a single trajectory stream
/// in via Push() and road segments stream out as their matches commit.
/// Sessions borrow their matcher's models (which hold per-trajectory state),
/// so at most one session per matcher may be active at a time and the
/// matcher's offline Match() must not be interleaved with session pushes.
/// StreamEngine gives every session its own matcher clone for this reason.
class StreamingSession {
 public:
  virtual ~StreamingSession() = default;

  /// Feeds the next point; returns segments newly committed by this update.
  virtual std::vector<network::SegmentId> Push(const traj::TrajPoint& point) = 0;

  /// Ends the stream: commits all pending points and returns their segments.
  virtual std::vector<network::SegmentId> Finish() = 0;

  /// Clears all state so the session can match a new trajectory.
  virtual void Reset() = 0;

  /// Total committed path so far (everything ever returned, concatenated).
  virtual const std::vector<network::SegmentId>& committed() const = 0;

  virtual SessionStats stats() const = 0;

  /// Drain/restore support. Checkpoint snapshots the resumable state into
  /// `out` and returns true; Restore replaces the session's state (call only
  /// before the first Push of a fresh session). Sessions without a resumable
  /// form return false from both and SupportsCheckpoint(); callers must treat
  /// that as "cannot be drained", not as an error.
  virtual bool SupportsCheckpoint() const { return false; }
  virtual bool Checkpoint(SessionSnapshot* out) const { return false; }
  virtual bool Restore(const SessionSnapshot& snapshot) { return false; }
};

/// The standard StreamingSession: an hmm::OnlineMatcher running the opening
/// matcher's observation/transition models against its (possibly shared)
/// CachedRouter. MatchOffline runs the OnlineMatcher's own shortcut-free
/// engine over a whole trajectory, so convergence (lag >= length => streamed
/// path == offline Viterbi path, shortcuts disabled) can be checked against
/// the exact reference.
class OnlineSession : public StreamingSession {
 public:
  /// All pointers must outlive the session.
  OnlineSession(const network::RoadNetwork* net, network::CachedRouter* router,
                hmm::ObservationModel* obs, hmm::TransitionModel* trans,
                const hmm::OnlineConfig& config);

  std::vector<network::SegmentId> Push(const traj::TrajPoint& point) override;
  std::vector<network::SegmentId> Finish() override;
  void Reset() override;
  const std::vector<network::SegmentId>& committed() const override {
    return online_.committed();
  }
  SessionStats stats() const override;

  bool SupportsCheckpoint() const override { return true; }
  bool Checkpoint(SessionSnapshot* out) const override;
  bool Restore(const SessionSnapshot& snapshot) override;

  /// Offline Viterbi over the same models/router (shortcuts off): the exact
  /// reference the fixed-lag output converges to. Only valid while the
  /// session is idle (no pending points) — the models are shared.
  hmm::EngineResult MatchOffline(const traj::Trajectory& t);

 private:
  /// Folds the points consumed since `consumed_before` into latency stats.
  void AccumulateLatency(int64_t consumed_before);

  hmm::OnlineMatcher online_;
  int64_t latency_points_sum_ = 0;
};

}  // namespace lhmm::matchers

#endif  // LHMM_MATCHERS_STREAMING_H_
