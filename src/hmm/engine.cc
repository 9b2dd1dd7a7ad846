#include "hmm/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/logging.h"

namespace lhmm::hmm {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

Engine::Engine(const network::RoadNetwork* net, network::CachedRouter* router,
               ObservationModel* obs, TransitionModel* trans,
               const EngineConfig& config)
    : net_(net), router_(router), obs_(obs), trans_(trans), config_(config) {
  CHECK(net != nullptr);
  CHECK(router != nullptr);
  CHECK(obs != nullptr);
  CHECK(trans != nullptr);
}

double Engine::RouteBound(double straight_dist) const {
  return std::min(config_.max_route_bound,
                  config_.route_bound_alpha * straight_dist +
                      config_.route_bound_beta);
}

EngineResult Engine::Match(const traj::Trajectory& t) {
  EngineResult result;
  if (t.empty()) return result;

  // Step 1: candidate preparation. Points with no candidates in range are
  // dropped from the DP (they count as misses in the hitting ratio).
  std::vector<CandidateSet> cands;
  std::vector<int> point_index;
  PrepareCandidates(t, 0, &cands, &point_index);
  const int m = static_cast<int>(cands.size());
  if (m == 0) return result;

  // Steps 2+3: Viterbi with the shortcut pass (when enabled).
  Decoding d = Decode(t, point_index, &cands, /*pinned_start=*/false);
  for (const int s : d.breaks) {
    result.gap_seconds += t[point_index[s]].t - t[point_index[s - 1]].t;
  }

  // Path expansion: the chosen chain joined by its connecting routes.
  result.matched.resize(m);
  for (int s = 0; s < m; ++s) {
    const Candidate& c = cands[s][d.chosen[s]];
    result.matched[s] = c.segment;
    if (s == 0) {
      result.path.push_back(c.segment);
    } else {
      AppendLeg(cands[s - 1][d.chosen[s - 1]], c, d.straight[s], &result.path);
    }
  }

  const double span = t[point_index[m - 1]].t - t[point_index[0]].t;
  result.gap_coverage =
      span > 0.0 ? std::max(0.0, 1.0 - result.gap_seconds / span) : 1.0;
  result.candidates = std::move(cands);
  result.point_index = std::move(point_index);
  result.breaks = std::move(d.breaks);
  return result;
}

void Engine::PrepareCandidates(const traj::Trajectory& t, int first,
                               std::vector<CandidateSet>* cands,
                               std::vector<int>* point_index) {
  obs_->BeginTrajectory(t);
  trans_->BeginTrajectory(t);
  for (int i = first; i < t.size(); ++i) {
    CandidateSet cs = obs_->Candidates(t, i, config_.k);
    if (cs.empty()) continue;
    cands->push_back(std::move(cs));
    point_index->push_back(i);
  }
}

Decoding Engine::Decode(const traj::Trajectory& t,
                        const std::vector<int>& point_index,
                        std::vector<CandidateSet>* cands_ptr, bool pinned_start) {
  std::vector<CandidateSet>& cands = *cands_ptr;
  const int m = static_cast<int>(cands.size());
  CHECK_GT(m, 0);
  Decoding d;

  // Straight-line hop between consecutive retained points, for Eq. (3)-style
  // features and for the route search bound.
  d.straight.assign(m, 0.0);
  for (int s = 1; s < m; ++s) {
    d.straight[s] =
        geo::Distance(t[point_index[s - 1]].pos, t[point_index[s]].pos);
  }

  // Forward Viterbi (Algorithm 1) with the shortcut optimization
  // (Algorithm 2) interleaved: after filling f/pre for step s from C_{s-1},
  // shortcuts from C_{s-2} may improve f[s] before step s+1 reads it. This
  // strictly dominates the paper's run-Alg2-after-Alg1 formulation (no stale
  // f entries) while evaluating the same Eq. (20)-(21) scores. A pinned start
  // (the online anchor) scores 0: its observation is a constant offset that
  // cannot change the argmax.
  std::vector<std::vector<double>> f(m);
  std::vector<std::vector<int>> pre(m);
  f[0].resize(cands[0].size());
  pre[0].assign(cands[0].size(), -1);
  for (size_t j = 0; j < cands[0].size(); ++j) {
    f[0][j] = pinned_start ? 0.0 : cands[0][j].observation;  // Alg. 1 line 5.
  }

  // Transition weights W(c_{s-1}^j -> c_s^k2) over the *original*
  // (pre-shortcut) candidate sets; Eq. (20) consumes these. Algorithm 2 at
  // step s only ever reads the matrices of steps s-1 and s, so two flat
  // arenas rotate instead of keeping the whole per-step history: O(k^2)
  // resident weights instead of O(m * k^2), reused across columns.
  for (int s = 1; s < m; ++s) {
    const int cur_n = static_cast<int>(cands[s].size());
    f[s].assign(cur_n, kNegInf);
    pre[s].assign(cur_n, -1);
    std::swap(w_prev_, w_cur_);

    // Phase 1: fill the weight arena. Algorithm 2 ranks predecessors over the
    // full matrix, so with shortcuts every row is filled; without them the
    // rows that cannot win are skipped.
    ColumnWeights(t, point_index, cands, s, d.straight[s],
                  config_.use_shortcuts ? nullptr : f[s - 1].data(), &w_cur_);
    // Phase 2: the batched column update, Eq. (16)-(17) in one tight pass.
    ViterbiColumn(w_cur_, f[s - 1].data(), f[s].data(), pre[s].data());

    if (config_.use_shortcuts && s >= 2) {
      ShortcutPass(t, s, point_index, &cands, w_prev_, w_cur_, &f, &pre);
    }

    // HMM-break recovery (Newson–Krumm-style split): when no candidate of
    // step s is reachable from step s-1 — a gap too long for any transition,
    // or a routing hole/outage — the whole tail of the DP would stay at -inf
    // and the backward pass would emit garbage. Instead, restart Viterbi
    // here exactly as at step 0 (score = observation, no predecessor); the
    // backward pass treats pre = -1 as a restart, so the trajectory splits
    // into independently matched sub-paths stitched by the path expansion.
    // On break-free input no column is all -inf and nothing changes.
    bool reachable = false;
    for (const double v : f[s]) {
      if (v != kNegInf) {
        reachable = true;
        break;
      }
    }
    if (!reachable) {
      for (size_t k2 = 0; k2 < cands[s].size(); ++k2) {
        f[s][k2] = cands[s][k2].observation;
      }
      d.breaks.push_back(s);
    }
  }

  // Backward pass: Eq. (18)-(19).
  int best_last = 0;
  for (size_t j = 1; j < f[m - 1].size(); ++j) {
    if (f[m - 1][j] > f[m - 1][best_last]) best_last = static_cast<int>(j);
  }
  d.chosen.assign(m, -1);
  d.chosen[m - 1] = best_last;
  for (int s = m - 1; s > 0; --s) {
    int p = pre[s][d.chosen[s]];
    if (p < 0) {
      // Disconnected step: restart from this point's best candidate.
      p = 0;
      for (size_t j = 1; j < f[s - 1].size(); ++j) {
        if (f[s - 1][j] > f[s - 1][p]) p = static_cast<int>(j);
      }
    }
    d.chosen[s - 1] = p;
  }
  return d;
}

void Engine::ShortcutPass(const traj::Trajectory& t, int s,
                          const std::vector<int>& point_index,
                          std::vector<CandidateSet>* cands,
                          const WeightMatrix& w_prev, const WeightMatrix& w_cur,
                          std::vector<std::vector<double>>* f,
                          std::vector<std::vector<int>>* pre) {
  // Original candidate counts: w matrices were built over these.
  const int njj = w_prev.rows;  // |C_{s-2}| original.
  const int nl = w_prev.cols;   // |C_{s-1}| original.
  const int nk = w_cur.cols;
  if (njj == 0 || nl == 0 || nk == 0) return;

  const double straight_02 =
      geo::Distance(t[point_index[s - 2]].pos, t[point_index[s]].pos);
  const double straight_01 =
      geo::Distance(t[point_index[s - 2]].pos, t[point_index[s - 1]].pos);
  const double straight_12 =
      geo::Distance(t[point_index[s - 1]].pos, t[point_index[s]].pos);
  const double bound = RouteBound(straight_02);

  for (int k2 = 0; k2 < nk; ++k2) {
    const Candidate cur = (*cands)[s][k2];
    // Eq. (20): rank one-hop predecessors j by the best two-step move
    // max_l W(j->l) + W(l->k2). We additionally include the accumulated
    // score f[c_{s-2}^j]: Eq. (21) charges the shortcut against f of the
    // predecessor, so "best one-hop predecessor" (Algorithm 2 line 3) must
    // account for how good the path *to* j is — otherwise, at exactly the
    // noisy points shortcuts exist for (where every W is ~0), the argmax
    // degenerates to noise and the shortcut can never win.
    std::vector<std::pair<double, int>> scored;
    scored.reserve(njj);
    for (int j = 0; j < njj; ++j) {
      double best = kNegInf;
      for (int l = 0; l < nl; ++l) {
        best = std::max(best, w_prev.At(j, l) + w_cur.At(l, k2));
      }
      scored.push_back({(*f)[s - 2][j] + best, j});
    }
    const int take = std::min(config_.num_shortcuts, njj);
    std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                      [](const auto& a, const auto& b) { return a.first > b.first; });

    for (int rank = 0; rank < take; ++rank) {
      const int j = scored[rank].second;
      const Candidate& origin = (*cands)[s - 2][j];
      // Shortcut: shortest path c_{s-2}^j -> c_s^k2.
      const std::optional<network::Route> sp =
          router_->Route1(origin.segment, cur.segment, bound);
      if (!sp.has_value()) continue;
      // Project x_{s-1} onto the shortcut path: nearest segment in it.
      const geo::Point& mid_pos = t[point_index[s - 1]].pos;
      network::SegmentId u_seg = network::kInvalidSegment;
      double u_dist = std::numeric_limits<double>::infinity();
      for (network::SegmentId sid : sp->segments) {
        const double d = net_->segment(sid).geometry.Project(mid_pos).dist;
        if (d < u_dist) {
          u_dist = d;
          u_seg = sid;
        }
      }
      if (u_seg == network::kInvalidSegment) continue;
      Candidate u = obs_->MakeCandidate(t, point_index[s - 1], u_seg);
      u.from_shortcut = true;

      // Eq. (21): restore the skipped transition through the projected road.
      const std::optional<network::Route> leg1 =
          router_->Route1(origin.segment, u_seg, bound);
      const std::optional<network::Route> leg2 =
          router_->Route1(u_seg, cur.segment, bound);
      const network::Route* leg1p = leg1.has_value() ? &leg1.value() : nullptr;
      const network::Route* leg2p = leg2.has_value() ? &leg2.value() : nullptr;
      const double w1 = trans_->Transition(t, point_index[s - 2],
                                           point_index[s - 1], origin, u, leg1p,
                                           straight_01) *
                        u.observation;
      const double w2 = trans_->Transition(t, point_index[s - 1], point_index[s],
                                           u, cur, leg2p, straight_12) *
                        cur.observation;
      if (leg1p == nullptr || leg2p == nullptr) continue;
      const double f_prime = (*f)[s - 2][j] + w1 + w2;
      if (f_prime > (*f)[s][k2]) {
        // Append the projected candidate to C_{s-1} and relink the tables.
        (*cands)[s - 1].push_back(u);
        const int u_idx = static_cast<int>((*cands)[s - 1].size()) - 1;
        (*f)[s - 1].push_back((*f)[s - 2][j] + w1);
        (*pre)[s - 1].push_back(j);
        (*f)[s][k2] = f_prime;
        (*pre)[s][k2] = u_idx;
        ++shortcuts_applied_;
      }
    }
  }
}

void Engine::ColumnWeights(const traj::Trajectory& t,
                           const std::vector<int>& point_index,
                           const std::vector<CandidateSet>& cands, int s,
                           double straight, const double* f_prev,
                           WeightMatrix* w) {
  const int prev_n = static_cast<int>(cands[s - 1].size());
  const int cur_n = static_cast<int>(cands[s].size());
  const double bound = RouteBound(straight);
  cur_segments_.resize(cur_n);
  for (int k2 = 0; k2 < cur_n; ++k2) cur_segments_[k2] = cands[s][k2].segment;
  w->Reset(prev_n, cur_n);
  for (int j = 0; j < prev_n; ++j) {
    if (f_prev != nullptr && f_prev[j] == kNegInf) continue;
    const Candidate& prev = cands[s - 1][j];
    const std::vector<std::optional<network::Route>> routes =
        router_->RouteMany(prev.segment, cur_segments_, bound);
    for (int k2 = 0; k2 < cur_n; ++k2) {
      const Candidate& cur = cands[s][k2];
      const network::Route* route =
          routes[k2].has_value() ? &routes[k2].value() : nullptr;
      const double pt = trans_->Transition(t, point_index[s - 1], point_index[s],
                                           prev, cur, route, straight);
      w->Set(j, k2, pt * cur.observation, route != nullptr);  // Eq. (13).
    }
  }
}

bool Engine::AppendLeg(const Candidate& from, const Candidate& to,
                       double straight, std::vector<network::SegmentId>* path) {
  const std::optional<network::Route> route =
      router_->Route1(from.segment, to.segment,
                      std::max(RouteBound(straight), config_.route_bound_beta));
  if (route.has_value()) {
    for (network::SegmentId sid : route->segments) {
      if (path->empty() || path->back() != sid) path->push_back(sid);
    }
    return false;
  }
  if (!path->empty() && path->back() == to.segment) return false;
  path->push_back(to.segment);  // Discontinuity; keep going.
  return true;
}

}  // namespace lhmm::hmm
