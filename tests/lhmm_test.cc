#include <cmath>
#include <filesystem>

#include "gtest/gtest.h"
#include "lhmm/het_encoder.h"
#include "lhmm/lhmm_matcher.h"
#include "lhmm/mr_graph.h"
#include "lhmm/trainer.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "sim/dataset.h"

namespace lhmm::lhmm {
namespace {

TEST(MrGraphTest, NodeNumbering) {
  MultiRelationalGraph g(10, 20);
  EXPECT_EQ(g.num_nodes(), 30);
  EXPECT_EQ(g.NodeOfTower(3), 3);
  EXPECT_EQ(g.NodeOfSegment(5), 15);
}

TEST(MrGraphTest, CoFrequencyNormalizes) {
  MultiRelationalGraph g(4, 8);
  g.AddCoOccurrence(1, 2, 3.0);
  g.AddCoOccurrence(1, 5, 1.0);
  EXPECT_DOUBLE_EQ(g.CoFrequency(1, 2), 0.75);
  EXPECT_DOUBLE_EQ(g.CoFrequency(1, 5), 0.25);
  EXPECT_DOUBLE_EQ(g.CoFrequency(1, 7), 0.0);
  EXPECT_DOUBLE_EQ(g.CoFrequency(2, 2), 0.0);  // No mass for tower 2.
  EXPECT_DOUBLE_EQ(g.CoFrequency(-1, 2), 0.0);
  const auto segs = g.CoSegments(1);
  EXPECT_EQ(segs.size(), 2u);
}

TEST(MrGraphTest, MessageMatrixRowNormalized) {
  MultiRelationalGraph g(3, 3);
  g.AddCoOccurrence(0, 0);
  g.AddCoOccurrence(0, 1);
  g.AddSequentiality(0, 1);
  g.AddTopology(0, 1);
  const auto co = g.MessageMatrix(Relation::kCoOccurrence);
  // Tower 0 has two CO neighbors, each weighted 1/2.
  ASSERT_EQ(co->rows[g.NodeOfTower(0)].size(), 2u);
  for (const auto& [src, w] : co->rows[g.NodeOfTower(0)]) {
    EXPECT_FLOAT_EQ(w, 0.5f);
  }
  // Symmetry: segment 0 sees tower 0.
  ASSERT_EQ(co->rows[g.NodeOfSegment(0)].size(), 1u);
  EXPECT_EQ(co->rows[g.NodeOfSegment(0)][0].first, g.NodeOfTower(0));
  // Union graph merges all relations.
  const auto u = g.UnionMessageMatrix();
  EXPECT_GE(u->rows[g.NodeOfTower(0)].size(), 3u);
}

TEST(HetEncoderTest, ShapesAndVariantsAgreeOnDims) {
  MultiRelationalGraph g(5, 7);
  g.AddCoOccurrence(0, 1);
  g.AddSequentiality(0, 1);
  g.AddTopology(1, 2);
  core::Rng rng(1);
  for (EncoderKind kind : {EncoderKind::kHeterogeneous, EncoderKind::kHomogeneous,
                           EncoderKind::kMlpOnly}) {
    EncoderConfig cfg;
    cfg.dim = 12;
    cfg.kind = kind;
    HetGraphEncoder enc(&g, cfg, &rng);
    const nn::Matrix h = enc.ForwardNoGrad();
    EXPECT_EQ(h.rows(), g.num_nodes());
    EXPECT_EQ(h.cols(), 12);
    // Tape forward agrees with no-grad forward.
    const nn::Tensor ht = enc.Forward();
    for (int i = 0; i < h.size(); ++i) {
      EXPECT_NEAR(h.data()[i], ht.value().data()[i], 1e-5);
    }
  }
}

TEST(HetEncoderTest, MessagePassingPropagatesNeighborInfo) {
  // Two towers, one connected to a segment, one isolated: after one layer,
  // the connected tower's embedding must differ from what the isolated
  // tower computes from self-transform alone with identical initial rows.
  MultiRelationalGraph g(2, 1);
  g.AddCoOccurrence(0, 0);
  core::Rng rng(2);
  EncoderConfig cfg;
  cfg.dim = 8;
  cfg.layers = 1;
  HetGraphEncoder enc(&g, cfg, &rng);
  const nn::Matrix h = enc.ForwardNoGrad();
  double diff = 0.0;
  for (int j = 0; j < 8; ++j) {
    diff += std::fabs(h(g.NodeOfTower(0), j) - h(g.NodeOfTower(1), j));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(LearnersTest, FeatureNorm) {
  const FeatureNorm norm = FitFeatureNorm({1.0, 2.0, 3.0, 4.0});
  EXPECT_FLOAT_EQ(norm.mean, 2.5f);
  EXPECT_NEAR(norm.Apply(2.5), 0.0f, 1e-6);
  EXPECT_GT(norm.Apply(4.0), 0.0f);
  // Degenerate input keeps std floored.
  const FeatureNorm flat = FitFeatureNorm({5.0, 5.0, 5.0});
  EXPECT_GE(flat.std, 1e-3f);
}

TEST(LearnersTest, PositiveProbsMatchSoftmax) {
  nn::Matrix logits(2, 2);
  logits(0, 0) = 0.0f;
  logits(0, 1) = 0.0f;
  logits(1, 0) = -1.0f;
  logits(1, 1) = 1.0f;
  const std::vector<double> p = PositiveProbs(logits);
  EXPECT_NEAR(p[0], 0.5, 1e-9);
  EXPECT_NEAR(p[1], 1.0 / (1.0 + std::exp(-2.0)), 1e-6);
}

/// Full end-to-end micro-training fixture: small dataset, tiny training run.
class TrainedModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetConfig cfg = sim::XiamenSPreset();
    cfg.num_train = 40;
    cfg.num_val = 4;
    cfg.num_test = 8;
    ds_ = new sim::Dataset(sim::BuildDataset(cfg));
    index_ = new network::GridIndex(&ds_->network, 300.0);
    LhmmConfig lhmm_cfg;
    lhmm_cfg.obs_steps = 25;
    lhmm_cfg.trans_steps = 20;
    lhmm_cfg.fusion_steps = 60;
    lhmm_cfg.encoder.dim = 24;
    TrainInputs inputs;
    inputs.net = &ds_->network;
    inputs.index = index_;
    inputs.num_towers = static_cast<int>(ds_->towers.size());
    inputs.train = &ds_->train;
    model_ = new std::shared_ptr<LhmmModel>(TrainLhmm(inputs, lhmm_cfg));
  }

  static void TearDownTestSuite() {
    delete model_;
    delete index_;
    delete ds_;
    model_ = nullptr;
    index_ = nullptr;
    ds_ = nullptr;
  }

  static sim::Dataset* ds_;
  static network::GridIndex* index_;
  static std::shared_ptr<LhmmModel>* model_;
};

sim::Dataset* TrainedModelTest::ds_ = nullptr;
network::GridIndex* TrainedModelTest::index_ = nullptr;
std::shared_ptr<LhmmModel>* TrainedModelTest::model_ = nullptr;

TEST_F(TrainedModelTest, EmbeddingsAndNormsPopulated) {
  const LhmmModel& m = **model_;
  EXPECT_EQ(m.embeddings.rows(), m.graph->num_nodes());
  EXPECT_GT(m.embeddings.SquaredNorm(), 0.0f);
  EXPECT_GT(m.obs_dist_norm.std, 1e-3f);
  EXPECT_GT(m.trans_len_norm.std, 1e-3f);
}

TEST_F(TrainedModelTest, MatcherProducesConnectedPaths) {
  LhmmMatcher matcher(&ds_->network, index_, *model_);
  traj::FilterConfig filters;
  int matched = 0;
  for (const auto& mt : ds_->test) {
    const traj::Trajectory t = traj::DeduplicateTowers(
        traj::PreprocessCellular(mt.cellular, filters));
    const matchers::MatchResult r = matcher.Match(t);
    if (r.path.empty()) continue;
    ++matched;
    // Expanded paths may contain rare discontinuities (unreachable within
    // the bound); count them.
    int breaks = 0;
    for (size_t i = 1; i < r.path.size(); ++i) {
      if (!ds_->network.AreConsecutive(r.path[i - 1], r.path[i])) ++breaks;
    }
    EXPECT_LE(breaks, 2);
  }
  EXPECT_EQ(matched, static_cast<int>(ds_->test.size()));
}

TEST_F(TrainedModelTest, ObservationProbabilitiesAreProbabilities) {
  LhmmMatcher matcher(&ds_->network, index_, *model_);
  traj::FilterConfig filters;
  const traj::Trajectory t = traj::DeduplicateTowers(
      traj::PreprocessCellular(ds_->test[0].cellular, filters));
  const matchers::MatchResult r = matcher.Match(t);
  for (const auto& cs : r.candidates) {
    for (const auto& c : cs) {
      EXPECT_GE(c.observation, 0.0);
      EXPECT_LE(c.observation, 1.0);
    }
    // Candidate sets respect k (plus possible shortcut additions).
    EXPECT_LE(static_cast<int>(cs.size()),
              (*model_)->config.k + 8);
  }
}

TEST_F(TrainedModelTest, SaveLoadRoundTrip) {
  const LhmmModel& m = **model_;
  const std::string path = "/tmp/lhmm_test_model.bin";
  ASSERT_TRUE(m.Save(path).ok());

  // Rebuild the same architecture untrained, load, compare embeddings.
  TrainInputs inputs;
  inputs.net = &ds_->network;
  inputs.index = index_;
  inputs.num_towers = static_cast<int>(ds_->towers.size());
  inputs.train = &ds_->train;
  auto loaded = LoadLhmm(inputs, path, m.config, m.config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::shared_ptr<LhmmModel>& fresh = *loaded;
  EXPECT_EQ(fresh->config.obs_steps, m.config.obs_steps);
  ASSERT_EQ(fresh->embeddings.rows(), m.embeddings.rows());
  for (int i = 0; i < m.embeddings.size(); ++i) {
    ASSERT_FLOAT_EQ(fresh->embeddings.data()[i], m.embeddings.data()[i]);
  }
  EXPECT_FLOAT_EQ(fresh->obs_dist_norm.mean, m.obs_dist_norm.mean);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".aux");
}

TEST_F(TrainedModelTest, EmbeddingNeighborsAreWellFormed) {
  const LhmmModel& m = **model_;
  const auto towers = m.NearestTowers(0, 5);
  ASSERT_EQ(towers.size(), 5u);
  for (const auto& [id, sim] : towers) {
    EXPECT_NE(id, 0);
    EXPECT_GE(sim, -1.0 - 1e-6);
    EXPECT_LE(sim, 1.0 + 1e-6);
  }
  // Similarities are returned in descending order.
  for (size_t i = 1; i < towers.size(); ++i) {
    EXPECT_GE(towers[i - 1].second, towers[i].second);
  }
  const auto segs = m.NearestSegments(0, 5);
  ASSERT_EQ(segs.size(), 5u);
  for (const auto& [id, sim] : segs) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, ds_->network.num_segments());
  }
  // Out-of-range tower returns empty.
  EXPECT_TRUE(m.NearestTowers(-1, 3).empty());
}

TEST_F(TrainedModelTest, AblationFlagsChangeArchitecture) {
  LhmmConfig cfg;
  cfg.use_implicit_observation = false;
  cfg.obs_steps = 2;
  cfg.trans_steps = 2;
  cfg.fusion_steps = 5;
  cfg.encoder.dim = 16;
  TrainInputs inputs;
  inputs.net = &ds_->network;
  inputs.index = index_;
  inputs.num_towers = static_cast<int>(ds_->towers.size());
  inputs.train = &ds_->train;
  std::shared_ptr<LhmmModel> ablated = TrainLhmm(inputs, cfg);
  EXPECT_FALSE(ablated->obs->use_implicit());
  LhmmMatcher matcher(&ds_->network, index_, ablated, "LHMM-O");
  EXPECT_EQ(matcher.name(), "LHMM-O");
  traj::FilterConfig filters;
  const traj::Trajectory t = traj::DeduplicateTowers(
      traj::PreprocessCellular(ds_->test[0].cellular, filters));
  EXPECT_FALSE(matcher.Match(t).path.empty());
}

}  // namespace
}  // namespace lhmm::lhmm
