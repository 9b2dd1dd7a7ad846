#ifndef LHMM_MATCHERS_IVMM_H_
#define LHMM_MATCHERS_IVMM_H_

#include <string>

#include "hmm/classic_models.h"
#include "matchers/hmm_matcher_base.h"

namespace lhmm::matchers {

/// IVMM [10]: interactive-voting map matching. Classical ST scores, but the
/// final assignment of each point is decided by voting: for every point i and
/// candidate j, a constrained DP is run that forces the path through (i, j);
/// each point's matched candidate on that path receives a distance-weighted
/// vote, and the candidate with most votes wins.
///
/// Candidates, column weights, the pinned DPs' column update and the path
/// expansion are the shared hmm::Engine's (k candidates, no shortcuts,
/// default route bounds). Streaming is inherited: voting needs the whole
/// trajectory, so the online session runs fixed-lag Viterbi over the same ST
/// scores (Gaussian P_O, classic P_T) — the DP that voting perturbs.
class IvmmMatcher : public HmmMatcherBase {
 public:
  IvmmMatcher(const network::RoadNetwork* net, const network::GridIndex* index,
              const hmm::ClassicModelConfig& models, int k = 45);

  std::string name() const override { return "IVMM"; }
  MatchResult Match(const traj::Trajectory& cellular) override;
};

}  // namespace lhmm::matchers

#endif  // LHMM_MATCHERS_IVMM_H_
