#ifndef LHMM_MATCHERS_SEQ2SEQ_H_
#define LHMM_MATCHERS_SEQ2SEQ_H_

#include <memory>
#include <string>
#include <vector>

#include "matchers/matcher.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "network/shortest_path.h"
#include "core/status.h"
#include "nn/modules.h"
#include "traj/filters.h"
#include "traj/trajectory.h"

namespace lhmm::matchers {

/// GRU cell built from the autodiff primitives:
///   z = sigmoid(x Wxz + h Whz), r = sigmoid(x Wxr + h Whr),
///   n = tanh(x Wxn + (r*h) Whn), h' = (1-z)*h + z*n.
class GruCell : public nn::Module {
 public:
  GruCell(int input_dim, int hidden_dim, core::Rng* rng);

  /// One step on the tape; `x` is 1 x input, `h` is 1 x hidden.
  nn::Tensor Step(const nn::Tensor& x, const nn::Tensor& h) const;

  /// One step without the tape.
  nn::Matrix Step(const nn::Matrix& x, const nn::Matrix& h) const;

  void CollectParams(std::vector<nn::Tensor>* out) override;

  int hidden_dim() const { return hidden_dim_; }

 private:
  int hidden_dim_;
  nn::Linear xz_, hz_, xr_, hr_, xn_, hn_;
};

/// Architecture/training knobs shared by the seq2seq matchers.
struct Seq2SeqConfig {
  int embed_dim = 32;
  int hidden_dim = 56;
  bool use_attention = true;       ///< Attention over encoder states.
  bool transformer_encoder = false; ///< Self-attention encoder block (TransformerMM).
  /// Scheduled sampling [17]: probability of feeding the model's own argmax
  /// instead of the gold token grows toward this value (DMM's trick against
  /// exposure bias).
  float scheduled_sampling = 0.0f;
  int epochs = 3;
  float lr = 2e-3f;
  float weight_decay = 1e-5f;
  float label_smoothing = 0.05f;
  int decode_pool = 60;  ///< Roads near each point eligible at its step.
  int beam_width = 1;    ///< Greedy when 1; beam search otherwise.
  uint64_t seed = 77;
  bool verbose = false;
};

/// A recurrent sequence-to-sequence map matcher: tower-id sequence in,
/// road-segment-id sequence out. The base class powers three baselines —
/// DeepMM [37] (GRU + attention), TransformerMM [38] (self-attention
/// encoder), and DMM [15] (GRU + attention + scheduled sampling). The
/// decoder is aligned to the input: step i predicts the traveled road of
/// point i (restricted to roads near the point), and consecutive predictions
/// are connected by shortest paths — how these systems keep the output on
/// the road network. The previous prediction feeds the next step, which is
/// the error-propagation channel the paper analyzes in Fig. 11.
class Seq2SeqMatcher : public MapMatcher {
 public:
  Seq2SeqMatcher(const network::RoadNetwork* net, const network::GridIndex* index,
                 int num_towers, const Seq2SeqConfig& config, std::string name);
  ~Seq2SeqMatcher() override;

  /// Trains on (cellular trajectory, truth path) pairs with teacher forcing.
  void Train(const std::vector<traj::MatchedTrajectory>& train,
             const traj::FilterConfig& filters);

  /// Serializes / restores all parameters (architecture must match).
  core::Status Save(const std::string& path) const;
  core::Status Load(const std::string& path);

  /// A matcher that shares this one's weights. The Impl is refcounted and
  /// read-only on the inference path, so MatcherFactory clones built this way
  /// hold one physical copy of the parameters no matter the pool width
  /// (instead of re-reading a weight file per worker); router caches remain
  /// per-clone. The source matcher must not be Train()ed while clones match.
  std::unique_ptr<Seq2SeqMatcher> SharedClone() const;

  /// All parameter tensors, aliasing the live weights in Save()/Load() order
  /// (consumed by the store section encoders).
  std::vector<nn::Tensor> Params() const;

  std::string name() const override { return name_; }
  MatchResult Match(const traj::Trajectory& cellular) override;
  void UseSharedRouter(network::CachedRouter* shared) override;

  /// Seq2seq is the one family without a streaming form (the decoder is not
  /// windowed), so it inherits SupportsStreaming() == false and OpenSession()
  /// == nullptr — the documented unsupported-family contract. Streaming
  /// callers must gate on SupportsStreaming() or use StreamEngine::TryOpen,
  /// which maps this family to a typed kUnimplemented error.

 private:
  struct Impl;

  Seq2SeqMatcher() = default;  ///< Shell for SharedClone.

  const network::RoadNetwork* net_ = nullptr;
  const network::GridIndex* index_ = nullptr;
  Seq2SeqConfig config_;
  std::string name_;
  std::shared_ptr<Impl> impl_;
  std::unique_ptr<network::CachedRouter> router_;  ///< Built on first use.
  network::CachedRouter* shared_router_ = nullptr;
};

/// DeepMM [37]: LSTM-style (GRU) seq2seq with attention.
std::unique_ptr<Seq2SeqMatcher> MakeDeepMm(const network::RoadNetwork* net,
                                           const network::GridIndex* index,
                                           int num_towers, uint64_t seed = 77);

/// TransformerMM [38]: Transformer encoder instead of the recurrent one.
std::unique_ptr<Seq2SeqMatcher> MakeTransformerMm(const network::RoadNetwork* net,
                                                  const network::GridIndex* index,
                                                  int num_towers, uint64_t seed = 78);

/// DMM [15]: the strongest seq2seq CTMM baseline — attention + scheduled
/// sampling + an extra training epoch.
std::unique_ptr<Seq2SeqMatcher> MakeDmm(const network::RoadNetwork* net,
                                        const network::GridIndex* index,
                                        int num_towers, uint64_t seed = 79);

}  // namespace lhmm::matchers

#endif  // LHMM_MATCHERS_SEQ2SEQ_H_
