#include "matchers/hmm_matcher_base.h"

#include "core/logging.h"

namespace lhmm::matchers {

HmmMatcherBase::HmmMatcherBase(const network::RoadNetwork* net,
                               const network::GridIndex* index,
                               const hmm::EngineConfig& config)
    : net_(net), index_(index), config_(config), router_(net) {
  CHECK(index != nullptr);
}

void HmmMatcherBase::Init(std::unique_ptr<hmm::ObservationModel> obs,
                          std::unique_ptr<hmm::TransitionModel> trans) {
  obs_ = std::move(obs);
  trans_ = std::move(trans);
  engine_ = std::make_unique<hmm::Engine>(net_, active_router_, obs_.get(),
                                          trans_.get(), config_);
}

void HmmMatcherBase::UseSharedRouter(network::CachedRouter* shared) {
  CHECK(shared != nullptr);
  active_router_ = shared;
  if (engine_ != nullptr) {
    // The engine only holds pointers; rebuilding it swaps the router in. The
    // live config carries over, so mutable_config() edits survive.
    engine_ = std::make_unique<hmm::Engine>(net_, active_router_, obs_.get(),
                                            trans_.get(), engine_->config());
  }
}

std::unique_ptr<StreamingSession> HmmMatcherBase::OpenSession(
    const StreamConfig& config) {
  CHECK(engine_ != nullptr) << "subclass forgot to call Init()";
  const hmm::EngineConfig& ec = engine_->config();
  hmm::OnlineConfig oc;
  oc.k = ec.k;
  oc.lag = config.lag;
  oc.route_bound_alpha = ec.route_bound_alpha;
  oc.route_bound_beta = ec.route_bound_beta;
  oc.max_route_bound = ec.max_route_bound;
  return std::make_unique<OnlineSession>(net_, active_router_, obs_.get(),
                                         trans_.get(), oc);
}

MatchResult HmmMatcherBase::Match(const traj::Trajectory& cellular) {
  CHECK(engine_ != nullptr) << "subclass forgot to call Init()";
  const traj::Trajectory t = Transform(cellular);
  hmm::EngineResult er = engine_->Match(t);
  MatchResult out;
  out.path = std::move(er.path);
  out.candidates = std::move(er.candidates);
  out.point_index = std::move(er.point_index);
  out.num_breaks = er.num_breaks();
  out.gap_seconds = er.gap_seconds;
  out.gap_coverage = er.gap_coverage;
  return out;
}

}  // namespace lhmm::matchers
