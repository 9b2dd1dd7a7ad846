#include "hmm/online.h"

#include "core/logging.h"

namespace lhmm::hmm {

namespace {

EngineConfig EngineConfigOf(const OnlineConfig& config) {
  EngineConfig ec;
  ec.k = config.k;
  ec.use_shortcuts = false;
  ec.route_bound_alpha = config.route_bound_alpha;
  ec.route_bound_beta = config.route_bound_beta;
  ec.max_route_bound = config.max_route_bound;
  return ec;
}

}  // namespace

OnlineMatcher::OnlineMatcher(const network::RoadNetwork* net,
                             network::CachedRouter* router, ObservationModel* obs,
                             TransitionModel* trans, const OnlineConfig& config)
    : engine_(net, router, obs, trans, EngineConfigOf(config)), lag_(config.lag) {
  CHECK_GE(config.lag, 0);
}

void OnlineMatcher::Reset() {
  window_.clear();
  has_anchor_ = false;
  committed_.clear();
  pushed_ = 0;
  consumed_ = 0;
  breaks_ = 0;
}

OnlineCheckpoint OnlineMatcher::Checkpoint() const {
  OnlineCheckpoint cp;
  cp.has_anchor = has_anchor_;
  cp.anchor = anchor_;
  cp.anchor_point = anchor_point_;
  cp.window.assign(window_.begin(), window_.end());
  cp.committed = committed_;
  cp.pushed = pushed_;
  cp.consumed = consumed_;
  cp.breaks = breaks_;
  return cp;
}

void OnlineMatcher::Restore(const OnlineCheckpoint& cp) {
  has_anchor_ = cp.has_anchor;
  anchor_ = cp.anchor;
  anchor_point_ = cp.anchor_point;
  window_.assign(cp.window.begin(), cp.window.end());
  committed_ = cp.committed;
  pushed_ = cp.pushed;
  consumed_ = cp.consumed;
  breaks_ = cp.breaks;
}

std::vector<network::SegmentId> OnlineMatcher::Push(const traj::TrajPoint& point) {
  window_.push_back(point);
  ++pushed_;
  std::vector<network::SegmentId> out;
  while (static_cast<int>(window_.size()) > lag_) {
    const size_t before = window_.size();
    const std::vector<network::SegmentId> emitted = Advance(/*flush=*/false);
    out.insert(out.end(), emitted.begin(), emitted.end());
    if (window_.size() >= before) break;  // Defensive: Advance made no progress.
  }
  return out;
}

std::vector<network::SegmentId> OnlineMatcher::Finish() {
  std::vector<network::SegmentId> out;
  while (!window_.empty()) {
    const size_t before = window_.size();
    const std::vector<network::SegmentId> emitted = Advance(/*flush=*/true);
    out.insert(out.end(), emitted.begin(), emitted.end());
    if (window_.size() >= before) {
      // Defensive: Advance consumes at least one point on every path, so this
      // is unreachable; keep termination unconditional regardless.
      window_.pop_front();
      ++consumed_;
    }
  }
  return out;
}

std::vector<network::SegmentId> OnlineMatcher::Advance(bool flush) {
  std::vector<network::SegmentId> emitted;
  if (window_.empty()) return emitted;

  // The windowed trajectory the models see. The committed anchor (if any) is
  // prepended as a pinned first point so transitions out of it are scored
  // with its real timestamp and position; it contributes its single pinned
  // candidate. Window points with no candidates in range are skipped,
  // exactly as the offline Engine drops them.
  traj::Trajectory t;
  const int base = has_anchor_ ? 1 : 0;
  if (has_anchor_) t.points.push_back(anchor_point_);
  t.points.insert(t.points.end(), window_.begin(), window_.end());
  std::vector<CandidateSet> cands;
  std::vector<int> point_index;
  if (has_anchor_) {
    cands.push_back(CandidateSet{anchor_});
    point_index.push_back(0);
  }
  engine_.PrepareCandidates(t, base, &cands, &point_index);
  const int m = static_cast<int>(cands.size());
  if (m == base) {
    // Nothing matchable in the window; drop the head to make progress.
    window_.pop_front();
    ++consumed_;
    return emitted;
  }

  // The window's breaks are not counted here: Advance decodes the window on
  // every push, so that would tally the same gap once per push. A committed
  // break is counted below, when a commit stitches a discontinuity.
  const Decoding d = engine_.Decode(t, point_index, &cands, has_anchor_);

  // Commit the head — or, on flush, the whole chain — expanding each hop
  // from the anchor with the engine's path expansion, deduplicated against
  // the committed path.
  const size_t before = committed_.size();
  const int last = flush ? m - 1 : base;
  for (int s = base; s <= last; ++s) {
    const Candidate& next = cands[s][d.chosen[s]];
    if (!has_anchor_) {
      if (committed_.empty() || committed_.back() != next.segment) {
        committed_.push_back(next.segment);
      }
    } else if (engine_.AppendLeg(anchor_, next, d.straight[s], &committed_)) {
      ++breaks_;  // Re-anchored across the gap with a discontinuity.
    }
    anchor_ = next;
    anchor_point_ = t[point_index[s]];
    has_anchor_ = true;
  }
  emitted.assign(committed_.begin() + before, committed_.end());

  if (flush) {
    consumed_ += static_cast<int64_t>(window_.size());
    window_.clear();
  } else {
    // Drop everything up to and including the committed head's window slot.
    const int drop = point_index[base] - base + 1;
    for (int i = 0; i < drop; ++i) window_.pop_front();
    consumed_ += drop;
  }
  return emitted;
}

}  // namespace lhmm::hmm
