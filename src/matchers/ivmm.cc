#include "matchers/ivmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

namespace lhmm::matchers {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

IvmmMatcher::IvmmMatcher(const network::RoadNetwork* net,
                         const network::GridIndex* index,
                         const hmm::ClassicModelConfig& models, int k)
    : HmmMatcherBase(net, index, hmm::EngineConfig{.k = k}) {
  Init(std::make_unique<hmm::GaussianObservationModel>(index, models),
       std::make_unique<hmm::ClassicTransitionModel>(models, net));
}

MatchResult IvmmMatcher::Match(const traj::Trajectory& t) {
  MatchResult result;
  if (t.empty()) return result;

  std::vector<hmm::CandidateSet> cands;
  std::vector<int> point_index;
  engine_->PrepareCandidates(t, 0, &cands, &point_index);
  const int m = static_cast<int>(cands.size());
  if (m == 0) return result;

  // Static score matrices, one per column: W = P_T * P_O per Eq. (3)/(2),
  // every row filled (a pin may make any predecessor the only live one).
  std::vector<double> straight(m, 0.0);
  std::vector<hmm::WeightMatrix> w(m);
  for (int s = 1; s < m; ++s) {
    straight[s] = geo::Distance(t[point_index[s - 1]].pos, t[point_index[s]].pos);
    engine_->ColumnWeights(t, point_index, cands, s, straight[s],
                           /*f_prev=*/nullptr, &w[s]);
  }

  // HMM breaks (same notion as hmm::Engine): a step whose whole transition
  // matrix is -inf — no candidate of step s is reachable from step s-1.
  // Every pinned DP below restarts at such columns (score = observation, no
  // predecessor) instead of aborting, so voting keeps working on both sides
  // of the gap and the result reports the break count. On healthy input no
  // column qualifies and the DP is unchanged.
  std::vector<char> break_col(m, 0);
  for (int s = 1; s < m; ++s) {
    bool any = false;
    for (size_t i = 0; i < w[s].w.size() && !any; ++i) {
      any = w[s].reach[i] && w[s].w[i] != kNegInf;
    }
    if (!any) {
      break_col[s] = 1;
      ++result.num_breaks;
      result.gap_seconds += t[point_index[s]].t - t[point_index[s - 1]].t;
      result.gap_coverage -=
          (t[point_index[s]].t - t[point_index[s - 1]].t) /
          std::max(1e-9, t[point_index[m - 1]].t - t[point_index[0]].t);
    }
  }
  result.gap_coverage = std::max(0.0, result.gap_coverage);

  // Interactive voting: for every (anchor point a, candidate ja), run the DP
  // with point a pinned to ja; every point's matched candidate on that path
  // gets a vote weighted by proximity to the anchor.
  std::vector<std::vector<double>> votes(m);
  std::vector<std::vector<double>> f(m);
  std::vector<std::vector<int>> pre(m);
  for (int s = 0; s < m; ++s) {
    votes[s].assign(cands[s].size(), 0.0);
    f[s].resize(cands[s].size());
    pre[s].resize(cands[s].size());
  }
  for (int a = 0; a < m; ++a) {
    for (size_t ja = 0; ja < cands[a].size(); ++ja) {
      // Forward DP with the pin: the engine's column kernel (first strict
      // maximizer over reachable pairs), a restart at break columns, and the
      // pin applied by masking every other candidate of point a.
      for (int s = 0; s < m; ++s) {
        const int n = static_cast<int>(cands[s].size());
        if (s == 0 || break_col[s]) {
          // Restart across a gap exactly like hmm::Engine (and as at s = 0).
          for (int k2 = 0; k2 < n; ++k2) {
            f[s][k2] = cands[s][k2].observation;
            pre[s][k2] = -1;
          }
        } else {
          hmm::ViterbiColumn(w[s], f[s - 1].data(), f[s].data(), pre[s].data());
        }
        if (s == a) {
          for (int k2 = 0; k2 < n; ++k2) {
            if (k2 == static_cast<int>(ja)) continue;
            f[s][k2] = kNegInf;
            pre[s][k2] = -1;
          }
        }
      }
      // Backtrack and vote.
      int best = -1;
      for (size_t j = 0; j < f[m - 1].size(); ++j) {
        if (f[m - 1][j] != kNegInf && (best < 0 || f[m - 1][j] > f[m - 1][best])) {
          best = static_cast<int>(j);
        }
      }
      if (best < 0) continue;
      std::vector<int> chain(m, -1);
      chain[m - 1] = best;
      bool ok = true;
      for (int s = m - 1; s > 0; --s) {
        int p = pre[s][chain[s]];
        if (p < 0) {
          if (!break_col[s]) {
            // Genuine dead end for this pin (not a break column).
            ok = false;
            break;
          }
          // Restart backtrack: pick the locally best predecessor, mirroring
          // the Engine's backward pass across a break.
          for (size_t j = 0; j < f[s - 1].size(); ++j) {
            if (f[s - 1][j] == kNegInf) continue;
            if (p < 0 || f[s - 1][j] > f[s - 1][p]) p = static_cast<int>(j);
          }
          if (p < 0) {
            ok = false;
            break;
          }
        }
        chain[s - 1] = p;
      }
      if (!ok) continue;
      for (int s = 0; s < m; ++s) {
        // Mutual-influence weight decays with distance between points.
        const double d = geo::Distance(t[point_index[a]].pos, t[point_index[s]].pos);
        votes[s][chain[s]] += std::exp(-d / 2000.0);
      }
    }
  }

  // Winners and path expansion.
  std::vector<hmm::Candidate> chain(m);
  for (int s = 0; s < m; ++s) {
    int best = 0;
    for (size_t j = 1; j < votes[s].size(); ++j) {
      if (votes[s][j] > votes[s][best]) best = static_cast<int>(j);
    }
    chain[s] = cands[s][best];
  }
  result.path.push_back(chain[0].segment);
  for (int s = 1; s < m; ++s) {
    engine_->AppendLeg(chain[s - 1], chain[s], straight[s], &result.path);
  }
  result.candidates = std::move(cands);
  result.point_index = std::move(point_index);
  return result;
}

}  // namespace lhmm::matchers
