#include "lhmm/lhmm_matcher.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/logging.h"
#include "geo/polyline.h"

namespace lhmm::lhmm {

namespace {

/// Heading change of the trajectory around step i (mirrors the trainer).
double TrajectoryTurn(const traj::Trajectory& t, int i) {
  const int lo = std::max(0, i - 2);
  const int hi = std::min(t.size() - 1, i + 1);
  std::vector<geo::Point> pts;
  for (int j = lo; j <= hi; ++j) pts.push_back(t[j].pos);
  return geo::TotalTurnOfPoints(pts);
}

double RouteTurn(const network::RoadNetwork& net, const network::Route& route) {
  std::vector<geo::Point> pts;
  for (network::SegmentId sid : route.segments) {
    const geo::Polyline& geom = net.segment(sid).geometry;
    if (pts.empty()) pts.push_back(geom.front());
    pts.push_back(geom.back());
  }
  return geo::TotalTurnOfPoints(pts);
}

hmm::EngineConfig EngineConfigOf(const LhmmModel* model) {
  CHECK(model != nullptr);
  hmm::EngineConfig ec;
  ec.k = model->config.k;
  ec.use_shortcuts = model->config.use_shortcuts;
  ec.num_shortcuts = model->config.num_shortcuts;
  return ec;
}

}  // namespace

/// Learned observation model: pools candidates spatially and via the CO
/// relation, then ranks them by the fused P_O of Eq. (8).
class LhmmMatcher::ObsModel : public hmm::ObservationModel {
 public:
  ObsModel(const network::RoadNetwork* net, const network::GridIndex* index,
           LhmmModel* model, TrajectoryState* state)
      : net_(net), index_(index), model_(model), state_(state) {}

  void BeginTrajectory(const traj::Trajectory& t) override {
    state_->t = &t;
    state_->point_embeddings = model_->PointRows(t);
    state_->contexts = model_->config.use_implicit_observation
                           ? model_->obs->ContextAll(state_->point_embeddings)
                           : state_->point_embeddings;
    state_->trans_keys =
        model_->trans->attention().ProjectKeys(state_->point_embeddings);
    state_->membership.clear();
  }

  hmm::CandidateSet Candidates(const traj::Trajectory& t, int i, int k) override {
    // Pool: spatial neighborhood + the point's and its neighbors' CO roads
    // (history can place a high-error point far outside its neighborhood).
    std::vector<network::SegmentId> pool;
    std::unordered_set<network::SegmentId> seen;
    for (const network::SegmentHit& hit :
         index_->Nearest(t[i].pos, model_->config.pool_nearest)) {
      if (hit.dist > model_->config.pool_radius) break;
      if (seen.insert(hit.segment).second) pool.push_back(hit.segment);
    }
    if (model_->config.extend_pool_with_co) {
      for (int j = std::max(0, i - 1); j <= std::min(t.size() - 1, i + 1); ++j) {
        for (network::SegmentId sid : model_->graph->CoSegments(t[j].tower)) {
          if (seen.insert(sid).second) pool.push_back(sid);
        }
      }
    }
    if (pool.empty()) return {};

    const std::vector<double> probs = Score(t, i, pool);
    std::vector<int> order(pool.size());
    for (size_t j = 0; j < order.size(); ++j) order[j] = static_cast<int>(j);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return probs[a] > probs[b]; });
    hmm::CandidateSet out;
    out.reserve(std::min<size_t>(pool.size(), k));
    for (int j : order) {
      if (static_cast<int>(out.size()) >= k) break;
      out.push_back(Build(t, i, pool[j], probs[j]));
    }
    return out;
  }

  hmm::Candidate MakeCandidate(const traj::Trajectory& t, int i,
                               network::SegmentId segment) override {
    const std::vector<double> probs = Score(t, i, {segment});
    return Build(t, i, segment, probs[0]);
  }

 private:
  hmm::Candidate Build(const traj::Trajectory& t, int i, network::SegmentId sid,
                       double prob) const {
    const geo::PolylineProjection proj = net_->segment(sid).geometry.Project(t[i].pos);
    hmm::Candidate c;
    c.segment = sid;
    c.dist = proj.dist;
    c.closest = proj.point;
    c.observation = prob;
    return c;
  }

  /// Fused P_O for each pool segment (Eq. 8).
  std::vector<double> Score(const traj::Trajectory& t, int i,
                            const std::vector<network::SegmentId>& pool) const {
    const int n = static_cast<int>(pool.size());
    const int d = model_->embeddings.cols();
    std::vector<double> implicit(n, 0.0);
    if (model_->config.use_implicit_observation) {
      nn::Matrix roads(n, d);
      nn::Matrix ctxs(n, d);
      for (int j = 0; j < n; ++j) {
        const int node = model_->graph->NodeOfSegment(pool[j]);
        for (int c = 0; c < d; ++c) {
          roads(j, c) = model_->embeddings(node, c);
          ctxs(j, c) = state_->contexts(i, c);
        }
      }
      implicit = model_->obs->ImplicitProb(roads, ctxs);
    }
    const int cols = (model_->config.use_implicit_observation ? 1 : 0) +
                     ObservationLearner::kNumExplicit;
    nn::Matrix feats(n, cols);
    for (int j = 0; j < n; ++j) {
      int c = 0;
      if (model_->config.use_implicit_observation) {
        feats(j, c++) = static_cast<float>(implicit[j]);
      }
      const double dist = net_->segment(pool[j]).geometry.Project(t[i].pos).dist;
      feats(j, c++) = model_->obs_dist_norm.Apply(dist);
      feats(j, c++) = model_->obs_cofreq_norm.Apply(
          model_->graph->CoFrequency(t[i].tower, pool[j]));
    }
    return model_->obs->FusionProb(feats);
  }

  const network::RoadNetwork* net_;
  const network::GridIndex* index_;
  LhmmModel* model_;
  TrajectoryState* state_;
};

/// Learned transition model: Eq. (11) route relevance fused with explicit
/// features into P_T (Eq. 12).
class LhmmMatcher::TransModel : public hmm::TransitionModel {
 public:
  TransModel(const network::RoadNetwork* net, LhmmModel* model,
             TrajectoryState* state)
      : net_(net), model_(model), state_(state) {}

  double Transition(const traj::Trajectory& t, int prev_index, int cur_index,
                    const hmm::Candidate& prev, const hmm::Candidate& cur,
                    const network::Route* route, double straight_dist) override {
    if (route == nullptr || route->segments.empty()) return 0.0;
    // Physical velocity constraint: reject moves that cannot be driven in
    // the available time.
    if (model_->config.max_speed > 0.0) {
      const double dt = t[cur_index].t - t[prev_index].t;
      if (route->length > model_->config.max_speed * std::max(dt, 1.0) +
                              model_->config.speed_slack) {
        return 0.0;
      }
    }
    double implicit_mean = 0.0;
    if (model_->config.use_implicit_transition) {
      for (network::SegmentId sid : route->segments) {
        implicit_mean += Membership(sid);
      }
      implicit_mean /= static_cast<double>(route->segments.size());
    }
    const double len_mismatch = std::fabs(straight_dist - route->length);
    const double turn_mismatch =
        std::fabs(RouteTurn(*net_, *route) - TrajectoryTurn(t, cur_index));
    const int cols = (model_->config.use_implicit_transition ? 1 : 0) +
                     TransitionLearner::kNumExplicit;
    nn::Matrix feats(1, cols);
    int c = 0;
    if (model_->config.use_implicit_transition) {
      feats(0, c++) = static_cast<float>(implicit_mean);
    }
    feats(0, c++) = model_->trans_len_norm.Apply(len_mismatch);
    feats(0, c++) = model_->trans_turn_norm.Apply(turn_mismatch);
    return model_->trans->FusionProb(feats)[0];
  }

 private:
  /// Memoized P(e_l | X) (Eq. 10) for the current trajectory.
  double Membership(network::SegmentId sid) {
    const auto it = state_->membership.find(sid);
    if (it != state_->membership.end()) return it->second;
    const double p = model_->trans->MembershipProbProjected(
        model_->SegmentRow(sid), state_->trans_keys, state_->point_embeddings);
    state_->membership[sid] = p;
    return p;
  }

  const network::RoadNetwork* net_;
  LhmmModel* model_;
  TrajectoryState* state_;
};

LhmmMatcher::LhmmMatcher(const network::RoadNetwork* net,
                         const network::GridIndex* index,
                         std::shared_ptr<LhmmModel> model, std::string display_name)
    : HmmMatcherBase(net, index, EngineConfigOf(model.get())),
      model_(std::move(model)),
      display_name_(std::move(display_name)) {
  Init(std::make_unique<ObsModel>(net, index, model_.get(), &state_),
       std::make_unique<TransModel>(net, model_.get(), &state_));
}

LhmmMatcher::~LhmmMatcher() = default;

}  // namespace lhmm::lhmm
