#include "matchers/seq2seq.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "network/path_cache.h"
#include "network/shortest_path.h"
#include "geo/polyline.h"

namespace lhmm::matchers {

namespace {

/// Sinusoidal positional encoding row for position `pos`.
nn::Matrix PositionalRow(int pos, int dim) {
  nn::Matrix row(1, dim);
  for (int j = 0; j < dim; ++j) {
    const double angle = pos / std::pow(10000.0, 2.0 * (j / 2) / dim);
    row(0, j) = static_cast<float>((j % 2 == 0) ? std::sin(angle) : std::cos(angle));
  }
  return row;
}

}  // namespace

GruCell::GruCell(int input_dim, int hidden_dim, core::Rng* rng)
    : hidden_dim_(hidden_dim),
      xz_(input_dim, hidden_dim, rng),
      hz_(hidden_dim, hidden_dim, rng),
      xr_(input_dim, hidden_dim, rng),
      hr_(hidden_dim, hidden_dim, rng),
      xn_(input_dim, hidden_dim, rng),
      hn_(hidden_dim, hidden_dim, rng) {}

nn::Tensor GruCell::Step(const nn::Tensor& x, const nn::Tensor& h) const {
  const nn::Tensor z = nn::SigmoidT(nn::AddT(xz_.Forward(x), hz_.Forward(h)));
  const nn::Tensor r = nn::SigmoidT(nn::AddT(xr_.Forward(x), hr_.Forward(h)));
  const nn::Tensor n =
      nn::TanhT(nn::AddT(xn_.Forward(x), hn_.Forward(nn::MulT(r, h))));
  const nn::Tensor ones(nn::Matrix::Full(1, hidden_dim_, 1.0f));
  return nn::AddT(nn::MulT(nn::SubT(ones, z), h), nn::MulT(z, n));
}

nn::Matrix GruCell::Step(const nn::Matrix& x, const nn::Matrix& h) const {
  auto sigmoid = [](nn::Matrix m) {
    for (int i = 0; i < m.size(); ++i) {
      m.data()[i] = 1.0f / (1.0f + std::exp(-m.data()[i]));
    }
    return m;
  };
  auto tanh_m = [](nn::Matrix m) {
    for (int i = 0; i < m.size(); ++i) m.data()[i] = std::tanh(m.data()[i]);
    return m;
  };
  const nn::Matrix z = sigmoid(nn::AddMat(xz_.Forward(x), hz_.Forward(h)));
  const nn::Matrix r = sigmoid(nn::AddMat(xr_.Forward(x), hr_.Forward(h)));
  const nn::Matrix n =
      tanh_m(nn::AddMat(xn_.Forward(x), hn_.Forward(nn::MulMat(r, h))));
  nn::Matrix out(1, hidden_dim_);
  for (int j = 0; j < hidden_dim_; ++j) {
    out(0, j) = (1.0f - z(0, j)) * h(0, j) + z(0, j) * n(0, j);
  }
  return out;
}

void GruCell::CollectParams(std::vector<nn::Tensor>* out) {
  xz_.CollectParams(out);
  hz_.CollectParams(out);
  xr_.CollectParams(out);
  hr_.CollectParams(out);
  xn_.CollectParams(out);
  hn_.CollectParams(out);
}

struct Seq2SeqMatcher::Impl : public nn::Module {
  Impl(int num_towers, int num_segments, const Seq2SeqConfig& cfg, core::Rng* rng)
      : config(cfg),
        num_segments(num_segments),
        tower_embed(num_towers + 1, cfg.embed_dim, rng),
        seg_embed(num_segments + 1, cfg.embed_dim, rng),  // Last row = BOS.
        encoder(cfg.embed_dim, cfg.hidden_dim, rng),
        in_proj(cfg.embed_dim, cfg.hidden_dim, rng),
        wq(cfg.hidden_dim, cfg.hidden_dim, rng),
        wk(cfg.hidden_dim, cfg.hidden_dim, rng),
        wv(cfg.hidden_dim, cfg.hidden_dim, rng),
        ffn(cfg.hidden_dim, cfg.hidden_dim, rng),
        decoder(cfg.embed_dim + (cfg.use_attention ? cfg.hidden_dim : 0),
                cfg.hidden_dim, rng),
        attn(cfg.hidden_dim, cfg.hidden_dim, cfg.hidden_dim, rng),
        out(cfg.hidden_dim, num_segments + 1, rng) {}  // Class S = EOS.

  void CollectParams(std::vector<nn::Tensor>* p) override {
    tower_embed.CollectParams(p);
    seg_embed.CollectParams(p);
    if (config.transformer_encoder) {
      in_proj.CollectParams(p);
      wq.CollectParams(p);
      wk.CollectParams(p);
      wv.CollectParams(p);
      ffn.CollectParams(p);
    } else {
      encoder.CollectParams(p);
    }
    decoder.CollectParams(p);
    if (config.use_attention) attn.CollectParams(p);
    out.CollectParams(p);
  }

  int TowerIndex(traj::TowerId tower) const {
    return (tower >= 0 && tower < tower_embed.count() - 1)
               ? tower
               : tower_embed.count() - 1;
  }
  int Bos() const { return num_segments; }
  int Eos() const { return num_segments; }

  /// Encoder states on the tape (n x hidden).
  nn::Tensor EncodeT(const traj::Trajectory& t) const {
    std::vector<int> idx;
    idx.reserve(t.size());
    for (int i = 0; i < t.size(); ++i) idx.push_back(TowerIndex(t[i].tower));
    nn::Tensor x = tower_embed.Forward(idx);  // n x d
    if (config.transformer_encoder) {
      // Positional encoding + one self-attention block with residual + FFN.
      nn::Matrix pos(t.size(), config.embed_dim);
      for (int i = 0; i < t.size(); ++i) {
        const nn::Matrix row = PositionalRow(i, config.embed_dim);
        for (int j = 0; j < config.embed_dim; ++j) pos(i, j) = row(0, j);
      }
      x = nn::AddT(x, nn::Tensor(pos));
      const nn::Tensor h0 = in_proj.Forward(x);  // n x hidden
      const nn::Tensor q = wq.Forward(h0);
      const nn::Tensor k = wk.Forward(h0);
      const nn::Tensor v = wv.Forward(h0);
      const float scale = 1.0f / std::sqrt(static_cast<float>(config.hidden_dim));
      const nn::Tensor scores =
          nn::ScaleT(nn::MatMulT(q, nn::TransposeT(k)), scale);
      const nn::Tensor z = nn::MatMulT(nn::SoftmaxRowsT(scores), v);
      const nn::Tensor res = nn::AddT(h0, z);
      return nn::AddT(res, nn::ReluT(ffn.Forward(res)));
    }
    std::vector<nn::Tensor> states;
    nn::Tensor h(nn::Matrix::Zeros(1, config.hidden_dim));
    for (int i = 0; i < t.size(); ++i) {
      h = encoder.Step(nn::RowsT(x, {i}), h);
      states.push_back(h);
    }
    return nn::ConcatRowsT(states);
  }

  /// Encoder states without the tape.
  nn::Matrix EncodeM(const traj::Trajectory& t) const {
    if (config.transformer_encoder) {
      nn::Matrix x(t.size(), config.embed_dim);
      for (int i = 0; i < t.size(); ++i) {
        const int idx = TowerIndex(t[i].tower);
        const nn::Matrix pos = PositionalRow(i, config.embed_dim);
        for (int j = 0; j < config.embed_dim; ++j) {
          x(i, j) = tower_embed.table().value()(idx, j) + pos(0, j);
        }
      }
      const nn::Matrix h0 = in_proj.Forward(x);
      const nn::Matrix q = wq.Forward(h0);
      const nn::Matrix k = wk.Forward(h0);
      const nn::Matrix v = wv.Forward(h0);
      nn::Matrix scores = nn::MatMulTransB(q, k);
      scores.Scale(1.0f / std::sqrt(static_cast<float>(config.hidden_dim)));
      const nn::Matrix z = nn::MatMul(nn::SoftmaxRows(scores), v);
      nn::Matrix res = nn::AddMat(h0, z);
      nn::Matrix f = ffn.Forward(res);
      for (int i = 0; i < f.size(); ++i) {
        if (f.data()[i] < 0.0f) f.data()[i] = 0.0f;
      }
      return nn::AddMat(res, f);
    }
    nn::Matrix states(t.size(), config.hidden_dim);
    nn::Matrix h(1, config.hidden_dim);
    nn::Matrix x(1, config.embed_dim);
    for (int i = 0; i < t.size(); ++i) {
      const int idx = TowerIndex(t[i].tower);
      for (int j = 0; j < config.embed_dim; ++j) {
        x(0, j) = tower_embed.table().value()(idx, j);
      }
      h = encoder.Step(x, h);
      for (int j = 0; j < config.hidden_dim; ++j) states(i, j) = h(0, j);
    }
    return states;
  }

  Seq2SeqConfig config;
  int num_segments;
  nn::Embedding tower_embed;
  nn::Embedding seg_embed;
  GruCell encoder;
  nn::Linear in_proj;
  nn::Linear wq, wk, wv, ffn;
  GruCell decoder;
  nn::AdditiveAttention attn;
  nn::Linear out;
};

Seq2SeqMatcher::Seq2SeqMatcher(const network::RoadNetwork* net,
                               const network::GridIndex* index, int num_towers,
                               const Seq2SeqConfig& config, std::string name)
    : net_(net), index_(index), config_(config), name_(std::move(name)) {
  CHECK(net != nullptr);
  CHECK(index != nullptr);
  core::Rng rng(config.seed);
  impl_ = std::make_shared<Impl>(num_towers, net->num_segments(), config, &rng);
}

Seq2SeqMatcher::~Seq2SeqMatcher() = default;

void Seq2SeqMatcher::UseSharedRouter(network::CachedRouter* shared) {
  shared_router_ = shared;
}

void Seq2SeqMatcher::Train(const std::vector<traj::MatchedTrajectory>& train,
                           const traj::FilterConfig& filters) {
  core::Rng rng(config_.seed + 1);
  nn::AdamConfig adam_cfg;
  adam_cfg.lr = config_.lr;
  adam_cfg.weight_decay = config_.weight_decay;
  nn::Adam adam(impl_->Params(), adam_cfg);

  std::vector<int> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    const float ss_prob = config_.scheduled_sampling *
                          static_cast<float>(epoch) /
                          std::max(1, config_.epochs - 1);
    double epoch_loss = 0.0;
    int epoch_n = 0;
    for (int ti : order) {
      const traj::MatchedTrajectory& mt = train[ti];
      const traj::Trajectory t = traj::DeduplicateTowers(
          traj::PreprocessCellular(mt.cellular, filters));
      if (t.size() < 3 || mt.truth_path.empty()) continue;
      // Aligned labels: the traveled road at each point's timestamp (from the
      // co-recorded GPS ground truth, like the paper's training pipeline).
      std::vector<int> gold(t.size());
      for (int i = 0; i < t.size(); ++i) {
        gold[i] = traj::TruthSegmentAtTime(mt, *net_, t[i].t);
      }

      const nn::Tensor states = impl_->EncodeT(t);
      nn::Tensor h = nn::RowsT(states, {t.size() - 1});
      int prev_token = impl_->Bos();
      std::vector<nn::Tensor> step_logits;
      std::vector<int> labels;
      for (int i = 0; i < t.size(); ++i) {
        nn::Tensor x = impl_->seg_embed.Forward({prev_token});
        if (config_.use_attention) {
          const nn::Tensor ctx = impl_->attn.Forward(h, states, states);
          x = nn::ConcatColsT(x, ctx);
        }
        h = impl_->decoder.Step(x, h);
        const nn::Tensor logits = impl_->out.Forward(h);
        step_logits.push_back(logits);
        labels.push_back(gold[i]);
        // Scheduled sampling: sometimes feed the model's own prediction.
        if (ss_prob > 0.0f && rng.Bernoulli(ss_prob)) {
          int argmax = 0;
          const nn::Matrix& lv = logits.value();
          for (int j = 1; j < lv.cols(); ++j) {
            if (lv(0, j) > lv(0, argmax)) argmax = j;
          }
          prev_token = argmax;
        } else {
          prev_token = gold[i];
        }
      }
      const nn::Tensor all_logits = nn::ConcatRowsT(step_logits);
      const nn::Tensor loss =
          nn::SmoothedCrossEntropy(all_logits, labels, config_.label_smoothing);
      adam.ZeroGrad();
      nn::Backward(loss);
      adam.Step();
      epoch_loss += loss.value()(0, 0);
      ++epoch_n;
    }
    if (config_.verbose) {
      LOG_INFO << name_ << " epoch " << epoch << " loss "
               << (epoch_n > 0 ? epoch_loss / epoch_n : 0.0);
    }
  }
}

core::Status Seq2SeqMatcher::Save(const std::string& path) const {
  return nn::SaveParams(path, impl_->Params());
}

core::Status Seq2SeqMatcher::Load(const std::string& path) {
  std::vector<nn::Tensor> params = impl_->Params();
  return nn::LoadParams(path, &params);
}

std::unique_ptr<Seq2SeqMatcher> Seq2SeqMatcher::SharedClone() const {
  auto clone = std::unique_ptr<Seq2SeqMatcher>(new Seq2SeqMatcher());
  clone->net_ = net_;
  clone->index_ = index_;
  clone->config_ = config_;
  clone->name_ = name_;
  clone->impl_ = impl_;
  return clone;
}

std::vector<nn::Tensor> Seq2SeqMatcher::Params() const {
  return impl_->Params();
}

MatchResult Seq2SeqMatcher::Match(const traj::Trajectory& cellular) {
  MatchResult result;
  if (cellular.size() < 2) return result;
  const traj::Trajectory& t = cellular;
  const nn::Matrix states = impl_->EncodeM(t);
  nn::Matrix h(1, config_.hidden_dim);
  for (int j = 0; j < config_.hidden_dim; ++j) {
    h(0, j) = states(t.size() - 1, j);
  }
  const nn::Matrix keys = impl_->attn.ProjectKeys(states);

  // Aligned decode: step i predicts the traveled road of point i from the
  // roads near that point; the previous prediction feeds the next step (the
  // seq2seq error-propagation channel). Beam search keeps the `beam_width`
  // best hypotheses (greedy when 1).
  struct Hypothesis {
    double score = 0.0;
    nn::Matrix h;
    int prev_token = 0;
    std::vector<network::SegmentId> roads;
  };
  std::vector<Hypothesis> beam(1);
  beam[0].h = h;
  beam[0].prev_token = impl_->Bos();
  const int width = std::max(1, config_.beam_width);

  for (int i = 0; i < t.size(); ++i) {
    const auto hits = index_->Nearest(t[i].pos, config_.decode_pool);
    if (hits.empty()) continue;
    std::vector<Hypothesis> expanded;
    for (const Hypothesis& hyp : beam) {
      nn::Matrix x(1, config_.embed_dim + (config_.use_attention
                                               ? config_.hidden_dim
                                               : 0));
      for (int j = 0; j < config_.embed_dim; ++j) {
        x(0, j) = impl_->seg_embed.table().value()(hyp.prev_token, j);
      }
      if (config_.use_attention) {
        const nn::Matrix ctx = impl_->attn.ForwardProjected(hyp.h, keys, states);
        for (int j = 0; j < config_.hidden_dim; ++j) {
          x(0, config_.embed_dim + j) = ctx(0, j);
        }
      }
      const nn::Matrix nh = impl_->decoder.Step(x, hyp.h);
      nn::Matrix logits = impl_->out.Forward(nh);
      // Log-softmax over the eligible pool only.
      double max_logit = -1e18;
      for (const network::SegmentHit& hit : hits) {
        max_logit = std::max(max_logit, (double)logits(0, hit.segment));
      }
      double z = 0.0;
      for (const network::SegmentHit& hit : hits) {
        z += std::exp(logits(0, hit.segment) - max_logit);
      }
      // Top `width` continuations of this hypothesis.
      std::vector<std::pair<double, network::SegmentId>> scored;
      scored.reserve(hits.size());
      for (const network::SegmentHit& hit : hits) {
        const double logp = logits(0, hit.segment) - max_logit - std::log(z);
        scored.push_back({hyp.score + logp, hit.segment});
      }
      const int take = std::min<int>(width, static_cast<int>(scored.size()));
      std::partial_sort(
          scored.begin(), scored.begin() + take, scored.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      for (int c = 0; c < take; ++c) {
        Hypothesis next;
        next.score = scored[c].first;
        next.h = nh;
        next.prev_token = scored[c].second;
        next.roads = hyp.roads;
        next.roads.push_back(scored[c].second);
        expanded.push_back(std::move(next));
      }
    }
    if (expanded.empty()) continue;
    std::sort(expanded.begin(), expanded.end(),
              [](const Hypothesis& a, const Hypothesis& b) {
                return a.score > b.score;
              });
    if (static_cast<int>(expanded.size()) > width) expanded.resize(width);
    beam = std::move(expanded);
  }
  const std::vector<network::SegmentId>& roads = beam[0].roads;
  if (roads.empty()) return result;

  // Connect consecutive predictions with shortest paths.
  network::CachedRouter* routing = shared_router_;
  if (routing == nullptr) {
    if (router_ == nullptr) router_ = std::make_unique<network::CachedRouter>(net_);
    routing = router_.get();
  }
  result.path.push_back(roads[0]);
  for (size_t i = 1; i < roads.size(); ++i) {
    const double straight =
        geo::Distance(t[static_cast<int>(i) - 1].pos, t[static_cast<int>(i)].pos);
    const auto route = routing->Route1(
        roads[i - 1], roads[i], std::min(12000.0, 4.0 * straight + 1500.0));
    if (route.has_value()) {
      for (network::SegmentId sid : route->segments) {
        if (result.path.back() != sid) result.path.push_back(sid);
      }
    } else if (result.path.back() != roads[i]) {
      result.path.push_back(roads[i]);
    }
  }
  return result;
}

std::unique_ptr<Seq2SeqMatcher> MakeDeepMm(const network::RoadNetwork* net,
                                           const network::GridIndex* index,
                                           int num_towers, uint64_t seed) {
  Seq2SeqConfig cfg;
  cfg.use_attention = true;
  cfg.epochs = 3;
  cfg.seed = seed;
  return std::make_unique<Seq2SeqMatcher>(net, index, num_towers, cfg, "DeepMM");
}

std::unique_ptr<Seq2SeqMatcher> MakeTransformerMm(const network::RoadNetwork* net,
                                                  const network::GridIndex* index,
                                                  int num_towers, uint64_t seed) {
  Seq2SeqConfig cfg;
  cfg.use_attention = true;
  cfg.transformer_encoder = true;
  cfg.epochs = 3;
  cfg.seed = seed;
  return std::make_unique<Seq2SeqMatcher>(net, index, num_towers, cfg,
                                          "TransformerMM");
}

std::unique_ptr<Seq2SeqMatcher> MakeDmm(const network::RoadNetwork* net,
                                        const network::GridIndex* index,
                                        int num_towers, uint64_t seed) {
  Seq2SeqConfig cfg;
  cfg.use_attention = true;
  cfg.scheduled_sampling = 0.35f;
  cfg.hidden_dim = 72;
  cfg.epochs = 5;
  cfg.beam_width = 3;
  cfg.seed = seed;
  return std::make_unique<Seq2SeqMatcher>(net, index, num_towers, cfg, "DMM");
}

}  // namespace lhmm::matchers
