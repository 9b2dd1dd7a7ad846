#include "lhmm/trainer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.h"
#include "geo/polyline.h"
#include "network/shortest_path.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "traj/filters.h"

namespace lhmm::lhmm {

namespace {

using network::SegmentId;

/// Per-trajectory training material derived once up front.
struct TrajSamples {
  traj::Trajectory cleaned;
  std::vector<SegmentId> truth;
  std::unordered_set<SegmentId> truth_set;
  /// For each point: the truth roads it co-occurs with (positives) and a
  /// pool of nearby non-truth roads (negatives).
  struct PointSamples {
    int point = 0;
    std::vector<SegmentId> positives;
    std::vector<SegmentId> negative_pool;
  };
  std::vector<PointSamples> points;
  /// Union of negative pools, for transition membership negatives.
  std::vector<SegmentId> trans_negative_pool;
};

std::vector<TrajSamples> BuildSamples(const TrainInputs& in,
                                      const MultiRelationalGraph& graph,
                                      core::Rng* rng) {
  std::vector<TrajSamples> out;
  out.reserve(in.train->size());
  for (const traj::MatchedTrajectory& mt : *in.train) {
    TrajSamples ts;
    ts.cleaned = traj::DeduplicateTowers(
        traj::PreprocessCellular(mt.cellular, in.filters));
    ts.truth = mt.truth_path;
    ts.truth_set.insert(mt.truth_path.begin(), mt.truth_path.end());
    if (ts.cleaned.size() < 3) continue;

    // Positives: the traveled road at the sample's timestamp, taken from the
    // co-recorded GPS ground truth. Every point gets a positive — crucially
    // including high-error (outlier) points, whose true road is far from
    // their tower and can only be recovered through context; those are
    // exactly the samples that teach the implicit correlation something the
    // explicit distance/co-occurrence features cannot express.
    std::unordered_map<int, std::vector<SegmentId>> pos_by_point;
    for (int i = 0; i < ts.cleaned.size(); ++i) {
      const SegmentId sid =
          traj::TruthSegmentAtTime(mt, *in.net, ts.cleaned[i].t);
      if (sid != network::kInvalidSegment) pos_by_point[i].push_back(sid);
    }
    std::unordered_set<SegmentId> trans_pool_set;
    for (int i = 0; i < ts.cleaned.size(); ++i) {
      const auto it = pos_by_point.find(i);
      if (it == pos_by_point.end()) continue;
      TrajSamples::PointSamples ps;
      ps.point = i;
      ps.positives = it->second;
      // Negatives mirror the inference-time candidate pool (Section IV-D's
      // "surrounding road segments"): nearby roads, a sprinkle of farther
      // ones, and the tower's (and neighbors') co-occurrence roads — so the
      // learned P_O sees at training time exactly the kinds of distractors
      // it must rank at matching time.
      const auto near_hits = in.index->Nearest(ts.cleaned[i].pos, 100);
      for (size_t h = 0; h < near_hits.size(); ++h) {
        const bool near = h < 36;
        if (!near && !rng->Bernoulli(0.25)) continue;  // Subsample the tail.
        if (ts.truth_set.count(near_hits[h].segment)) continue;
        ps.negative_pool.push_back(near_hits[h].segment);
        trans_pool_set.insert(near_hits[h].segment);
      }
      for (int j = std::max(0, i - 1);
           j <= std::min(ts.cleaned.size() - 1, i + 1); ++j) {
        for (network::SegmentId sid :
             graph.CoSegments(ts.cleaned[j].tower)) {
          if (ts.truth_set.count(sid)) continue;
          ps.negative_pool.push_back(sid);
        }
      }
      if (!ps.negative_pool.empty()) ts.points.push_back(std::move(ps));
    }
    ts.trans_negative_pool.assign(trans_pool_set.begin(), trans_pool_set.end());
    if (!ts.points.empty()) out.push_back(std::move(ts));
  }
  CHECK(!out.empty()) << "no usable training trajectories";
  return out;
}

/// Tower node index per point (-1 when the tower is unknown).
std::vector<int> PointNodes(const MultiRelationalGraph& g,
                            const traj::Trajectory& t) {
  std::vector<int> out(t.size(), -1);
  for (int i = 0; i < t.size(); ++i) {
    if (t[i].tower >= 0 && t[i].tower < g.num_towers()) {
      out[i] = g.NodeOfTower(t[i].tower);
    }
  }
  return out;
}

/// Heading change of the trajectory around step i (points i-2..i+1 clamped),
/// the trajectory-side turn feature of Eq. (12).
double TrajectoryTurn(const traj::Trajectory& t, int i) {
  const int lo = std::max(0, i - 2);
  const int hi = std::min(t.size() - 1, i + 1);
  std::vector<geo::Point> pts;
  for (int j = lo; j <= hi; ++j) pts.push_back(t[j].pos);
  return geo::TotalTurnOfPoints(pts);
}

/// Heading change along a route's segment chain.
double RouteTurn(const network::RoadNetwork& net, const network::Route& route) {
  std::vector<geo::Point> pts;
  for (SegmentId sid : route.segments) {
    const geo::Polyline& geom = net.segment(sid).geometry;
    if (pts.empty()) pts.push_back(geom.front());
    pts.push_back(geom.back());
  }
  return geo::TotalTurnOfPoints(pts);
}

}  // namespace

std::unique_ptr<LhmmModel> TrainLhmm(const TrainInputs& in,
                                     const LhmmConfig& config) {
  CHECK(in.net != nullptr);
  CHECK(in.index != nullptr);
  CHECK(in.train != nullptr);
  CHECK_GT(in.num_towers, 0);

  core::Rng rng(config.seed);
  auto model = std::make_unique<LhmmModel>();
  model->config = config;

  // ---- Stage 0: multi-relational graph, then training samples. ----
  {
    std::vector<traj::Trajectory> cleaned;
    cleaned.reserve(in.train->size());
    for (const traj::MatchedTrajectory& mt : *in.train) {
      cleaned.push_back(traj::DeduplicateTowers(
          traj::PreprocessCellular(mt.cellular, in.filters)));
    }
    model->graph = std::make_unique<MultiRelationalGraph>(
        BuildGraph(*in.net, in.num_towers, *in.train, cleaned));
  }
  core::Rng sample_rng = rng.Fork();
  std::vector<TrajSamples> samples = BuildSamples(in, *model->graph, &sample_rng);
  core::Rng init_rng = rng.Fork();
  model->encoder = std::make_unique<HetGraphEncoder>(model->graph.get(),
                                                     config.encoder, &init_rng);
  model->obs = std::make_unique<ObservationLearner>(
      config.encoder.dim, config.use_implicit_observation, &init_rng);
  model->trans = std::make_unique<TransitionLearner>(
      config.encoder.dim, config.use_implicit_transition, &init_rng);

  nn::AdamConfig adam_cfg;
  adam_cfg.lr = config.lr;
  adam_cfg.weight_decay = config.weight_decay;

  // ---- Stage 1: encoder + implicit point-road correlation (Eq. 6-7). ----
  if (config.use_implicit_observation || config.use_implicit_transition) {
    // The encoder is trained end-to-end through the point-road classification
    // task; the observation learner's implicit stack joins even for the
    // LHMM-O ablation (where it is simply unused at inference) so the encoder
    // sees the same training signal across variants.
    std::vector<nn::Tensor> params = model->encoder->Params();
    for (nn::Tensor& p : model->obs->ImplicitParams()) params.push_back(p);
    nn::Adam adam(params, adam_cfg);
    for (int step = 0; step < config.obs_steps; ++step) {
      const nn::Tensor h = model->encoder->Forward();
      std::vector<nn::Tensor> losses;
      for (int b = 0; b < config.batch_trajectories; ++b) {
        const TrajSamples& ts =
            samples[rng.UniformInt(static_cast<int>(samples.size()))];
        const std::vector<int> nodes = PointNodes(*model->graph, ts.cleaned);
        std::vector<int> point_nodes;
        std::vector<int> row_of_point(ts.cleaned.size(), -1);
        for (int i = 0; i < ts.cleaned.size(); ++i) {
          if (nodes[i] < 0) continue;
          row_of_point[i] = static_cast<int>(point_nodes.size());
          point_nodes.push_back(nodes[i]);
        }
        if (point_nodes.size() < 3) continue;
        const nn::Tensor points = nn::RowsT(h, point_nodes);
        const nn::Tensor contexts =
            config.use_implicit_observation ? model->obs->ContextAll(points)
                                            : points;

        std::vector<int> road_nodes;
        std::vector<int> ctx_rows;
        std::vector<int> labels;
        for (const auto& ps : ts.points) {
          if (row_of_point[ps.point] < 0) continue;
          for (SegmentId pos : ps.positives) {
            road_nodes.push_back(model->graph->NodeOfSegment(pos));
            ctx_rows.push_back(row_of_point[ps.point]);
            labels.push_back(1);
            for (int n = 0; n < config.negatives_per_positive; ++n) {
              const SegmentId neg = ps.negative_pool[rng.UniformInt(
                  static_cast<int>(ps.negative_pool.size()))];
              road_nodes.push_back(model->graph->NodeOfSegment(neg));
              ctx_rows.push_back(row_of_point[ps.point]);
              labels.push_back(0);
            }
          }
        }
        if (labels.empty()) continue;
        const nn::Tensor roads = nn::RowsT(h, road_nodes);
        const nn::Tensor ctxs = nn::RowsT(contexts, ctx_rows);
        const nn::Tensor logits = model->obs->ImplicitLogits(roads, ctxs);
        losses.push_back(nn::SmoothedCrossEntropy(logits, labels,
                                                  config.label_smoothing));
      }
      if (losses.empty()) continue;
      nn::Tensor total = losses[0];
      for (size_t i = 1; i < losses.size(); ++i) total = nn::AddT(total, losses[i]);
      total = nn::ScaleT(total, 1.0f / static_cast<float>(losses.size()));
      adam.ZeroGrad();
      nn::Backward(total);
      adam.Step();
      if (config.verbose && step % 20 == 0) {
        LOG_INFO << "obs stage step " << step << " loss " << total.value()(0, 0);
      }
    }
  }

  // Cache frozen embeddings for all later stages and for inference.
  model->embeddings = model->encoder->ForwardNoGrad();
  const nn::Tensor frozen(model->embeddings, /*requires_grad=*/false);

  // ---- Stage 2: implicit trajectory-road membership (Eq. 9-10). ----
  if (config.use_implicit_transition) {
    nn::Adam adam(model->trans->MembershipParams(), adam_cfg);
    for (int step = 0; step < config.trans_steps; ++step) {
      std::vector<nn::Tensor> losses;
      for (int b = 0; b < config.batch_trajectories; ++b) {
        const TrajSamples& ts =
            samples[rng.UniformInt(static_cast<int>(samples.size()))];
        const std::vector<int> nodes = PointNodes(*model->graph, ts.cleaned);
        std::vector<int> point_nodes;
        for (int n : nodes) {
          if (n >= 0) point_nodes.push_back(n);
        }
        if (point_nodes.size() < 3 || ts.trans_negative_pool.empty()) continue;
        const nn::Tensor points = nn::RowsT(frozen, point_nodes);
        std::vector<int> road_nodes;
        std::vector<int> labels;
        const int num_pos = std::min<int>(8, static_cast<int>(ts.truth.size()));
        for (int p = 0; p < num_pos; ++p) {
          const SegmentId pos =
              ts.truth[rng.UniformInt(static_cast<int>(ts.truth.size()))];
          road_nodes.push_back(model->graph->NodeOfSegment(pos));
          labels.push_back(1);
          for (int n = 0; n < config.negatives_per_positive; ++n) {
            const SegmentId neg = ts.trans_negative_pool[rng.UniformInt(
                static_cast<int>(ts.trans_negative_pool.size()))];
            road_nodes.push_back(model->graph->NodeOfSegment(neg));
            labels.push_back(0);
          }
        }
        const nn::Tensor roads = nn::RowsT(frozen, road_nodes);
        const nn::Tensor contexts = model->trans->RoadContexts(roads, points);
        const nn::Tensor logits = model->trans->MembershipLogits(roads, contexts);
        losses.push_back(nn::SmoothedCrossEntropy(logits, labels,
                                                  config.label_smoothing));
      }
      if (losses.empty()) continue;
      nn::Tensor total = losses[0];
      for (size_t i = 1; i < losses.size(); ++i) total = nn::AddT(total, losses[i]);
      total = nn::ScaleT(total, 1.0f / static_cast<float>(losses.size()));
      adam.ZeroGrad();
      nn::Backward(total);
      adam.Step();
      if (config.verbose && step % 20 == 0) {
        LOG_INFO << "trans stage step " << step << " loss " << total.value()(0, 0);
      }
    }
  }

  // ---- Stage 3a: observation fusion head (Eq. 8). ----
  if (config.fusion_steps > 0) {
    // Collect feature rows over a subsample of trajectories.
    std::vector<std::vector<float>> feats;
    std::vector<int> labels;
    std::vector<double> raw_dist;
    std::vector<double> raw_cofreq;
    const int max_traj = std::min<int>(250, static_cast<int>(samples.size()));
    for (int tix = 0; tix < max_traj; ++tix) {
      const TrajSamples& ts = samples[tix];
      nn::Matrix points = model->PointRows(ts.cleaned);
      nn::Matrix contexts = config.use_implicit_observation
                                ? model->obs->ContextAll(points)
                                : points;
      for (const auto& ps : ts.points) {
        auto add_sample = [&](SegmentId sid, int label) {
          const geo::PolylineProjection proj =
              in.net->segment(sid).geometry.Project(ts.cleaned[ps.point].pos);
          const double cofreq = model->graph->CoFrequency(
              ts.cleaned[ps.point].tower, sid);
          std::vector<float> row;
          if (config.use_implicit_observation) {
            nn::Matrix road = model->SegmentRow(sid);
            nn::Matrix ctx(1, contexts.cols());
            for (int j = 0; j < contexts.cols(); ++j) {
              ctx(0, j) = contexts(ps.point, j);
            }
            row.push_back(
                static_cast<float>(model->obs->ImplicitProb(road, ctx)[0]));
          }
          row.push_back(static_cast<float>(proj.dist));    // Normalized later.
          row.push_back(static_cast<float>(cofreq));
          raw_dist.push_back(proj.dist);
          raw_cofreq.push_back(cofreq);
          feats.push_back(std::move(row));
          labels.push_back(label);
        };
        for (SegmentId pos : ps.positives) {
          add_sample(pos, 1);
          for (int n = 0; n < config.negatives_per_positive; ++n) {
            add_sample(ps.negative_pool[rng.UniformInt(
                           static_cast<int>(ps.negative_pool.size()))],
                       0);
          }
        }
      }
    }
    model->obs_dist_norm = FitFeatureNorm(raw_dist);
    model->obs_cofreq_norm = FitFeatureNorm(raw_cofreq);
    nn::AdamConfig fusion_cfg = adam_cfg;
    fusion_cfg.lr = config.fusion_lr;
    const int dist_col = config.use_implicit_observation ? 1 : 0;
    for (auto& row : feats) {
      row[dist_col] = model->obs_dist_norm.Apply(row[dist_col]);
      row[dist_col + 1] = model->obs_cofreq_norm.Apply(row[dist_col + 1]);
    }

    nn::Adam adam(model->obs->FusionParams(), fusion_cfg);
    const int batch = 256;
    for (int step = 0; step < config.fusion_steps; ++step) {
      nn::Matrix x(batch, static_cast<int>(feats[0].size()));
      std::vector<int> y(batch);
      for (int i = 0; i < batch; ++i) {
        const int pick = rng.UniformInt(static_cast<int>(feats.size()));
        for (size_t j = 0; j < feats[pick].size(); ++j) {
          x(i, static_cast<int>(j)) = feats[pick][j];
        }
        y[i] = labels[pick];
      }
      const nn::Tensor logits = model->obs->FusionLogits(nn::Tensor(x));
      const nn::Tensor loss =
          nn::SmoothedCrossEntropy(logits, y, config.label_smoothing);
      adam.ZeroGrad();
      nn::Backward(loss);
      adam.Step();
    }
  }

  // ---- Stage 3b: transition fusion head (Eq. 11-12). ----
  if (config.fusion_steps > 0) {
    network::SegmentRouter router(in.net);
    std::vector<std::vector<float>> feats;
    std::vector<float> targets;
    std::vector<double> raw_len;
    std::vector<double> raw_turn;

    const int num_samples = 3000;
    int guard = 0;
    while (static_cast<int>(feats.size()) < num_samples && ++guard < 20000) {
      const TrajSamples& ts =
          samples[rng.UniformInt(static_cast<int>(samples.size()))];
      if (ts.cleaned.size() < 3) continue;
      const int i = rng.UniformInt(1, ts.cleaned.size() - 1);
      const double straight =
          geo::Distance(ts.cleaned[i - 1].pos, ts.cleaned[i].pos);
      // Endpoint pairs mimic the inference distribution: candidates of two
      // *consecutive* points — sometimes the truth road nearest the point
      // (the pair Viterbi should prefer), otherwise a random nearby road
      // (the detours it must reject).
      auto pick_segment = [&](const geo::Point& pos) -> SegmentId {
        if (rng.Bernoulli(0.4) && !ts.truth.empty()) {
          SegmentId best = network::kInvalidSegment;
          double best_d = 1e18;
          for (SegmentId sid : ts.truth) {
            const double d = in.net->segment(sid).geometry.Project(pos).dist;
            if (d < best_d) {
              best_d = d;
              best = sid;
            }
          }
          return best;
        }
        const auto hits = in.index->Nearest(pos, 40);
        if (hits.empty()) return network::kInvalidSegment;
        return hits[rng.UniformInt(static_cast<int>(hits.size()))].segment;
      };
      const SegmentId from = pick_segment(ts.cleaned[i - 1].pos);
      const SegmentId to = pick_segment(ts.cleaned[i].pos);
      if (from == network::kInvalidSegment || to == network::kInvalidSegment) {
        continue;
      }
      const auto route = router.Route1(from, to, 4.0 * straight + 1500.0);
      if (!route.has_value()) continue;

      double implicit_mean = 0.0;
      if (config.use_implicit_transition) {
        nn::Matrix points = model->PointRows(ts.cleaned);
        const nn::Matrix keys = model->trans->attention().ProjectKeys(points);
        for (SegmentId sid : route->segments) {
          implicit_mean += model->trans->MembershipProbProjected(
              model->SegmentRow(sid), keys, points);
        }
        implicit_mean /= static_cast<double>(route->segments.size());
      }
      const double len_mismatch = std::fabs(straight - route->length);
      const double turn_mismatch =
          std::fabs(RouteTurn(*in.net, *route) - TrajectoryTurn(ts.cleaned, i));
      int on_path = 0;
      for (SegmentId sid : route->segments) {
        if (ts.truth_set.count(sid)) ++on_path;
      }
      const float target =
          static_cast<float>(on_path) / static_cast<float>(route->segments.size());

      std::vector<float> row;
      if (config.use_implicit_transition) {
        row.push_back(static_cast<float>(implicit_mean));
      }
      row.push_back(static_cast<float>(len_mismatch));
      row.push_back(static_cast<float>(turn_mismatch));
      raw_len.push_back(len_mismatch);
      raw_turn.push_back(turn_mismatch);
      feats.push_back(std::move(row));
      targets.push_back(target);
    }
    CHECK(!feats.empty()) << "no transition fusion samples";
    if (config.verbose) {
      // Feature-target correlations over the collected sample set.
      const int ncol = static_cast<int>(feats[0].size());
      for (int c = 0; c < ncol; ++c) {
        double mx = 0.0;
        double my = 0.0;
        for (size_t i = 0; i < feats.size(); ++i) {
          mx += feats[i][c];
          my += targets[i];
        }
        mx /= feats.size();
        my /= feats.size();
        double sxy = 0.0;
        double sxx = 0.0;
        double syy = 0.0;
        for (size_t i = 0; i < feats.size(); ++i) {
          sxy += (feats[i][c] - mx) * (targets[i] - my);
          sxx += (feats[i][c] - mx) * (feats[i][c] - mx);
          syy += (targets[i] - my) * (targets[i] - my);
        }
        LOG_INFO << "trans fusion feature " << c << " corr "
                 << sxy / std::sqrt(sxx * syy + 1e-12) << " target mean " << my;
      }
    }
    model->trans_len_norm = FitFeatureNorm(raw_len);
    model->trans_turn_norm = FitFeatureNorm(raw_turn);
    nn::AdamConfig fusion_cfg = adam_cfg;
    fusion_cfg.lr = config.fusion_lr;
    const int len_col = config.use_implicit_transition ? 1 : 0;
    for (auto& row : feats) {
      row[len_col] = model->trans_len_norm.Apply(row[len_col]);
      row[len_col + 1] = model->trans_turn_norm.Apply(row[len_col + 1]);
    }

    nn::Adam adam(model->trans->FusionParams(), fusion_cfg);
    const int batch = 256;
    for (int step = 0; step < config.fusion_steps; ++step) {
      nn::Matrix x(batch, static_cast<int>(feats[0].size()));
      std::vector<float> y(batch);
      for (int i = 0; i < batch; ++i) {
        const int pick = rng.UniformInt(static_cast<int>(feats.size()));
        for (size_t j = 0; j < feats[pick].size(); ++j) {
          x(i, static_cast<int>(j)) = feats[pick][j];
        }
        y[i] = targets[pick];
      }
      const nn::Tensor logits = model->trans->FusionLogits(nn::Tensor(x));
      const nn::Tensor loss =
          nn::BinaryCrossEntropyWithLogits(logits, y, config.label_smoothing);
      adam.ZeroGrad();
      nn::Backward(loss);
      adam.Step();
    }
  }

  return model;
}

core::Result<std::shared_ptr<LhmmModel>> LoadLhmm(const TrainInputs& inputs,
                                                  const std::string& path,
                                                  const LhmmConfig& architecture,
                                                  const LhmmConfig& config) {
  LhmmConfig shell = architecture;
  shell.obs_steps = 0;
  shell.trans_steps = 0;
  shell.fusion_steps = 0;
  std::shared_ptr<LhmmModel> model = TrainLhmm(inputs, shell);
  model->config = config;
  LHMM_RETURN_IF_ERROR(model->Load(path));
  return model;
}

}  // namespace lhmm::lhmm
