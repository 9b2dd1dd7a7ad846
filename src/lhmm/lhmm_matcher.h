#ifndef LHMM_LHMM_LHMM_MATCHER_H_
#define LHMM_LHMM_LHMM_MATCHER_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "hmm/engine.h"
#include "lhmm/model.h"
#include "matchers/hmm_matcher_base.h"
#include "network/grid_index.h"

namespace lhmm::lhmm {

/// Per-trajectory inference state shared by the learned observation and
/// transition models: point embeddings, context-aware point representations
/// (Eq. 6), projected attention keys, and the P(e_l | X) memo (Eq. 10).
struct TrajectoryState {
  const traj::Trajectory* t = nullptr;
  nn::Matrix point_embeddings;  ///< n x d tower embeddings.
  nn::Matrix contexts;          ///< n x d context-aware representations.
  nn::Matrix trans_keys;        ///< Projected keys for the transition attention.
  std::unordered_map<network::SegmentId, double> membership;
};

/// The LHMM map matcher (the paper's contribution): learned P_O and P_T
/// plugged into the shared HMM engine with the shortcut-augmented candidate
/// graph. Construct via TrainLhmm() -> LhmmMatcher.
///
/// Streaming sessions (OpenSession) run the learned models without
/// shortcuts. The learned P_O context (Eq. 6) attends over the visible
/// window, so mid-stream scores see a prefix of the history; at lag >=
/// trajectory length the window is the whole trajectory and the streamed
/// path equals offline Viterbi (shortcuts disabled).
class LhmmMatcher : public matchers::HmmMatcherBase {
 public:
  /// `model` is shared so ablation sweeps can reuse a trained model with
  /// different engine settings; only per-trajectory state is private.
  /// `display_name` shows in benchmark tables ("LHMM", "LHMM-S", ...).
  LhmmMatcher(const network::RoadNetwork* net, const network::GridIndex* index,
              std::shared_ptr<LhmmModel> model, std::string display_name = "LHMM");
  ~LhmmMatcher() override;

  std::string name() const override { return display_name_; }

  const LhmmModel& model() const { return *model_; }

 private:
  class ObsModel;
  class TransModel;

  std::shared_ptr<LhmmModel> model_;
  std::string display_name_;
  TrajectoryState state_;
};

}  // namespace lhmm::lhmm

#endif  // LHMM_LHMM_LHMM_MATCHER_H_
