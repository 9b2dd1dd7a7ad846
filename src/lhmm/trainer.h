#ifndef LHMM_LHMM_TRAINER_H_
#define LHMM_LHMM_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "lhmm/model.h"
#include "network/grid_index.h"
#include "traj/filters.h"
#include "traj/trajectory.h"

namespace lhmm::lhmm {

/// Everything the trainer needs. Pointers must outlive the call.
struct TrainInputs {
  const network::RoadNetwork* net = nullptr;
  const network::GridIndex* index = nullptr;
  int num_towers = 0;
  const std::vector<traj::MatchedTrajectory>* train = nullptr;
  traj::FilterConfig filters;
};

/// Trains a full LHMM model per Section IV's "Training Process":
///
///  1. Multi-relational graph construction from the training split.
///  2. Encoder + implicit point-road correlation: classify (point, road)
///     pairs as interacted/not, negatives undersampled, label-smoothed
///     cross-entropy, Adam (end-to-end through the Het-Graph Encoder).
///  3. Implicit trajectory-road membership: classify roads as on/off the
///     traveled path against the frozen embeddings.
///  4. Fine-tune the two fusion heads: the observation head on the same
///     positive/negative pairs with explicit features, the transition head
///     on sampled moving paths against their traveled-road ratio.
///
/// Returns the trained model with cached final embeddings.
std::unique_ptr<LhmmModel> TrainLhmm(const TrainInputs& inputs,
                                     const LhmmConfig& config);

/// Loads a model written by LhmmModel::Save: a zero-step TrainLhmm run with
/// `architecture` rebuilds the (deterministic) graph and the parameter
/// shapes, the weights then come from `path`, and the loaded model carries
/// `config`.
core::Result<std::shared_ptr<LhmmModel>> LoadLhmm(
    const TrainInputs& inputs, const std::string& path,
    const LhmmConfig& architecture = {}, const LhmmConfig& config = {});

}  // namespace lhmm::lhmm

#endif  // LHMM_LHMM_TRAINER_H_
