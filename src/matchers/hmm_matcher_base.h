#ifndef LHMM_MATCHERS_HMM_MATCHER_BASE_H_
#define LHMM_MATCHERS_HMM_MATCHER_BASE_H_

#include <memory>
#include <string>

#include "hmm/engine.h"
#include "matchers/matcher.h"
#include "network/grid_index.h"
#include "network/path_cache.h"

namespace lhmm::matchers {

/// Base for every HMM-family matcher (the classic baselines, IVMM and LHMM):
/// owns a route cache and runs the shared hmm::Engine with the models
/// supplied by the subclass. Subclasses construct their observation/transition
/// models and call Init().
class HmmMatcherBase : public MapMatcher {
 public:
  /// `net` and `index` must outlive the matcher.
  HmmMatcherBase(const network::RoadNetwork* net, const network::GridIndex* index,
                 const hmm::EngineConfig& config);

  MatchResult Match(const traj::Trajectory& cellular) override;
  bool ProvidesCandidates() const override { return true; }

  /// Rebuilds the engine on top of `shared`, keeping its live config; the
  /// private cache is no longer consulted (and, if never queried, never
  /// allocates Dijkstra scratch).
  void UseSharedRouter(network::CachedRouter* shared) override;

  /// Fixed-lag streaming with this matcher's models. Note: matchers with a
  /// Transform() hook (CLSTERS) stream the raw points — calibration needs the
  /// whole trajectory and does not apply online.
  bool SupportsStreaming() const override { return true; }
  std::unique_ptr<StreamingSession> OpenSession(const StreamConfig& config) override;

  hmm::Engine* engine() { return engine_.get(); }

 protected:
  /// Installs the models and builds the engine; call from subclass ctors.
  void Init(std::unique_ptr<hmm::ObservationModel> obs,
            std::unique_ptr<hmm::TransitionModel> trans);

  /// Hook for matchers that transform the trajectory before matching
  /// (CLSTERS calibration). Default: identity.
  virtual traj::Trajectory Transform(const traj::Trajectory& t) { return t; }

  const network::RoadNetwork* net_;
  const network::GridIndex* index_;
  hmm::EngineConfig config_;
  network::CachedRouter router_;  ///< Private; pools its own Dijkstra scratch.
  network::CachedRouter* active_router_ = &router_;  ///< router_ or shared.
  std::unique_ptr<hmm::ObservationModel> obs_;
  std::unique_ptr<hmm::TransitionModel> trans_;
  std::unique_ptr<hmm::Engine> engine_;
};

}  // namespace lhmm::matchers

#endif  // LHMM_MATCHERS_HMM_MATCHER_BASE_H_
