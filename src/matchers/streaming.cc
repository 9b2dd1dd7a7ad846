#include "matchers/streaming.h"

namespace lhmm::matchers {

OnlineSession::OnlineSession(const network::RoadNetwork* net,
                             network::CachedRouter* router,
                             hmm::ObservationModel* obs,
                             hmm::TransitionModel* trans,
                             const hmm::OnlineConfig& config)
    : online_(net, router, obs, trans, config) {}

std::vector<network::SegmentId> OnlineSession::Push(const traj::TrajPoint& point) {
  const int64_t before = online_.consumed_points();
  std::vector<network::SegmentId> out = online_.Push(point);
  AccumulateLatency(before);
  return out;
}

std::vector<network::SegmentId> OnlineSession::Finish() {
  const int64_t before = online_.consumed_points();
  std::vector<network::SegmentId> out = online_.Finish();
  AccumulateLatency(before);
  return out;
}

void OnlineSession::Reset() {
  online_.Reset();
  latency_points_sum_ = 0;
}

SessionStats OnlineSession::stats() const {
  SessionStats s;
  s.points_pushed = online_.pushed_points();
  s.points_committed = online_.consumed_points();
  s.latency_points_sum = latency_points_sum_;
  s.breaks = online_.breaks();
  return s;
}

bool OnlineSession::Checkpoint(SessionSnapshot* out) const {
  out->online = online_.Checkpoint();
  out->latency_points_sum = latency_points_sum_;
  return true;
}

bool OnlineSession::Restore(const SessionSnapshot& snapshot) {
  online_.Restore(snapshot.online);
  latency_points_sum_ = snapshot.latency_points_sum;
  return true;
}

void OnlineSession::AccumulateLatency(int64_t consumed_before) {
  // Consumption is FIFO: the points finalized by the last call are exactly
  // the arrival ordinals [consumed_before, consumed_points()); each waited
  // until arrival pushed_points() - 1.
  const int64_t after = online_.consumed_points();
  const int64_t newest = online_.pushed_points() - 1;
  for (int64_t c = consumed_before; c < after; ++c) {
    latency_points_sum_ += newest - c;
  }
}

hmm::EngineResult OnlineSession::MatchOffline(const traj::Trajectory& t) {
  return online_.engine()->Match(t);
}

}  // namespace lhmm::matchers
