#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "matchers/seq2seq.h"
#include "network/faulty_router.h"
#include "network/grid_index.h"
#include "sim/dataset.h"
#include "traj/filters.h"

namespace lhmm::matchers {
namespace {

/// Shared tiny dataset for matcher smoke tests.
class MatchersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetConfig cfg = sim::XiamenSPreset();
    cfg.num_train = 25;
    cfg.num_val = 3;
    cfg.num_test = 6;
    ds_ = new sim::Dataset(sim::BuildDataset(cfg));
    index_ = new network::GridIndex(&ds_->network, 300.0);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete ds_;
    index_ = nullptr;
    ds_ = nullptr;
  }

  static traj::Trajectory Cleaned(int i) {
    traj::FilterConfig filters;
    return traj::DeduplicateTowers(
        traj::PreprocessCellular(ds_->test[i].cellular, filters));
  }

  static sim::Dataset* ds_;
  static network::GridIndex* index_;
};

sim::Dataset* MatchersTest::ds_ = nullptr;
network::GridIndex* MatchersTest::index_ = nullptr;

TEST_F(MatchersTest, AllClassicMatchersProduceValidPaths) {
  hmm::ClassicModelConfig models;
  hmm::EngineConfig engine;
  engine.k = 20;
  std::vector<std::unique_ptr<MapMatcher>> all;
  all.push_back(std::make_unique<StmMatcher>(&ds_->network, index_, models, engine));
  all.push_back(std::make_unique<IfmMatcher>(&ds_->network, index_, models, engine));
  all.push_back(std::make_unique<McmMatcher>(&ds_->network, index_, models, engine));
  all.push_back(std::make_unique<SnetMatcher>(&ds_->network, index_, models, engine));
  all.push_back(std::make_unique<ThmmMatcher>(&ds_->network, index_, models, engine));
  all.push_back(
      std::make_unique<ClstersMatcher>(&ds_->network, index_, models, engine));
  for (auto& matcher : all) {
    const traj::Trajectory t = Cleaned(0);
    const MatchResult r = matcher->Match(t);
    EXPECT_FALSE(r.path.empty()) << matcher->name();
    EXPECT_TRUE(matcher->ProvidesCandidates()) << matcher->name();
    EXPECT_FALSE(r.candidates.empty()) << matcher->name();
    for (network::SegmentId sid : r.path) {
      ASSERT_GE(sid, 0);
      ASSERT_LT(sid, ds_->network.num_segments());
    }
  }
}

TEST_F(MatchersTest, StmShortcutVariantName) {
  hmm::ClassicModelConfig models;
  hmm::EngineConfig engine;
  StmMatcher plain(&ds_->network, index_, models, engine);
  EXPECT_EQ(plain.name(), "STM");
  engine.use_shortcuts = true;
  StmMatcher with_s(&ds_->network, index_, models, engine);
  EXPECT_EQ(with_s.name(), "STM+S");
}

TEST_F(MatchersTest, IvmmVotesAndMatches) {
  hmm::ClassicModelConfig models;
  IvmmMatcher ivmm(&ds_->network, index_, models, 15);
  const MatchResult r = ivmm.Match(Cleaned(1));
  EXPECT_FALSE(r.path.empty());
  EXPECT_EQ(r.candidates.size(), r.point_index.size());
}

// ---------------------------------------------------------------------------
// IVMM oracle: IvmmMatcher::Match as it was before IVMM ran on hmm::Engine —
// its own candidate loop, nested weight matrices, pinned DPs and path
// expansion — kept verbatim with the matcher's members turned into
// parameters. The engine-based matcher must reproduce it bit for bit.
// ---------------------------------------------------------------------------

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

MatchResult ReferenceIvmmMatch(const traj::Trajectory& t,
                               hmm::GaussianObservationModel* obs_,
                               hmm::ClassicTransitionModel* trans_,
                               network::CachedRouter* active_router_, int k_) {
  MatchResult result;
  if (t.empty()) return result;

  // Candidate preparation (same as the HMM engine).
  std::vector<hmm::CandidateSet> cands;
  std::vector<int> point_index;
  for (int i = 0; i < t.size(); ++i) {
    hmm::CandidateSet cs = obs_->Candidates(t, i, k_);
    if (cs.empty()) continue;
    cands.push_back(std::move(cs));
    point_index.push_back(i);
  }
  const int m = static_cast<int>(cands.size());
  if (m == 0) return result;

  // Static score matrices: W[s][j][k2] = P_T * P_O per Eq. (3)/(2). The
  // classic ST transition (Eq. 3 with the velocity heuristic) is the same
  // model the streaming session runs.
  trans_->BeginTrajectory(t);
  std::vector<double> straight(m, 0.0);
  std::vector<std::vector<std::vector<double>>> w(m);
  for (int s = 1; s < m; ++s) {
    straight[s] = geo::Distance(t[point_index[s - 1]].pos, t[point_index[s]].pos);
    const double bound = std::min(12000.0, 4.0 * straight[s] + 1500.0);
    const int prev_n = static_cast<int>(cands[s - 1].size());
    const int cur_n = static_cast<int>(cands[s].size());
    w[s].assign(prev_n, std::vector<double>(cur_n, kNegInf));
    std::vector<network::SegmentId> targets(cur_n);
    for (int k2 = 0; k2 < cur_n; ++k2) targets[k2] = cands[s][k2].segment;
    for (int j = 0; j < prev_n; ++j) {
      const auto routes = active_router_->RouteMany(cands[s - 1][j].segment,
                                                    targets, bound);
      for (int k2 = 0; k2 < cur_n; ++k2) {
        if (!routes[k2].has_value()) continue;
        const double pt = trans_->Transition(t, point_index[s - 1],
                                             point_index[s], cands[s - 1][j],
                                             cands[s][k2], &routes[k2].value(),
                                             straight[s]);
        w[s][j][k2] = pt * cands[s][k2].observation;
      }
    }
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
    for (const auto& row : w[s]) {
      for (const double v : row) {
        if (v != kNegInf) {
          any = true;
          break;
        }
      }
      if (any) break;
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
  for (int s = 0; s < m; ++s) votes[s].assign(cands[s].size(), 0.0);

  std::vector<std::vector<double>> f(m);
  std::vector<std::vector<int>> pre(m);
  for (int a = 0; a < m; ++a) {
    for (size_t ja = 0; ja < cands[a].size(); ++ja) {
      // Forward DP with the pin.
      for (int s = 0; s < m; ++s) {
        const int n = static_cast<int>(cands[s].size());
        f[s].assign(n, kNegInf);
        pre[s].assign(n, -1);
        if (s == 0) {
          for (int j = 0; j < n; ++j) {
            if (a == 0 && j != static_cast<int>(ja)) continue;
            f[s][j] = cands[s][j].observation;
          }
          continue;
        }
        for (int k2 = 0; k2 < n; ++k2) {
          if (s == a && k2 != static_cast<int>(ja)) continue;
          if (break_col[s]) {
            // Restart across the gap, exactly like hmm::Engine.
            f[s][k2] = cands[s][k2].observation;
            continue;
          }
          for (size_t j = 0; j < cands[s - 1].size(); ++j) {
            if (f[s - 1][j] == kNegInf || w[s][j][k2] == kNegInf) continue;
            const double score = f[s - 1][j] + w[s][j][k2];
            if (score > f[s][k2]) {
              f[s][k2] = score;
              pre[s][k2] = static_cast<int>(j);
            }
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
    const double bound = std::min(12000.0, 4.0 * straight[s] + 1500.0);
    const auto route =
        active_router_->Route1(chain[s - 1].segment, chain[s].segment, bound);
    if (route.has_value()) {
      for (network::SegmentId sid : route->segments) {
        if (result.path.back() != sid) result.path.push_back(sid);
      }
    } else if (result.path.back() != chain[s].segment) {
      result.path.push_back(chain[s].segment);
    }
  }
  result.candidates = std::move(cands);
  result.point_index = std::move(point_index);
  return result;
}


/// Bit patterns, so -0.0 vs 0.0 or differently rounded doubles cannot pass.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectBitIdentical(const MatchResult& got, const MatchResult& want) {
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.point_index, want.point_index);
  EXPECT_EQ(got.num_breaks, want.num_breaks);
  EXPECT_EQ(Bits(got.gap_seconds), Bits(want.gap_seconds));
  EXPECT_EQ(Bits(got.gap_coverage), Bits(want.gap_coverage));
  ASSERT_EQ(got.candidates.size(), want.candidates.size());
  for (size_t s = 0; s < want.candidates.size(); ++s) {
    ASSERT_EQ(got.candidates[s].size(), want.candidates[s].size()) << "step " << s;
    for (size_t j = 0; j < want.candidates[s].size(); ++j) {
      const hmm::Candidate& a = got.candidates[s][j];
      const hmm::Candidate& b = want.candidates[s][j];
      EXPECT_EQ(a.segment, b.segment);
      EXPECT_EQ(Bits(a.dist), Bits(b.dist));
      EXPECT_EQ(Bits(a.closest.x), Bits(b.closest.x));
      EXPECT_EQ(Bits(a.closest.y), Bits(b.closest.y));
      EXPECT_EQ(Bits(a.observation), Bits(b.observation));
      EXPECT_EQ(a.from_shortcut, b.from_shortcut);
    }
  }
}

/// Runs IvmmMatcher and the reference over `trajectories`, each on its own
/// private CachedRouter, and then both on one `shared` router.
void ExpectIvmmMatchesReference(const network::RoadNetwork* net,
                                const network::GridIndex* index,
                                const hmm::ClassicModelConfig& models, int k,
                                const std::vector<traj::Trajectory>& trajectories,
                                network::CachedRouter* shared) {
  hmm::GaussianObservationModel obs(index, models);
  hmm::ClassicTransitionModel trans(models, net);
  network::CachedRouter private_router(net);
  IvmmMatcher ivmm(net, index, models, k);
  for (size_t i = 0; i < trajectories.size(); ++i) {
    SCOPED_TRACE("private router, k=" + std::to_string(k) + ", trajectory " +
                 std::to_string(i));
    ExpectBitIdentical(ivmm.Match(trajectories[i]),
                       ReferenceIvmmMatch(trajectories[i], &obs, &trans,
                                          &private_router, k));
  }
  ivmm.UseSharedRouter(shared);
  for (size_t i = 0; i < trajectories.size(); ++i) {
    SCOPED_TRACE("shared router, k=" + std::to_string(k) + ", trajectory " +
                 std::to_string(i));
    ExpectBitIdentical(ivmm.Match(trajectories[i]),
                       ReferenceIvmmMatch(trajectories[i], &obs, &trans, shared, k));
  }
}

std::vector<traj::Trajectory> CleanedTestSplit(const sim::Dataset& ds) {
  traj::FilterConfig filters;
  std::vector<traj::Trajectory> out;
  for (const traj::MatchedTrajectory& mt : ds.test) {
    out.push_back(traj::DeduplicateTowers(traj::PreprocessCellular(mt.cellular, filters)));
  }
  return out;
}

TEST_F(MatchersTest, IvmmEqualsItsReferenceOnTheTestSplit) {
  const hmm::ClassicModelConfig models;
  const std::vector<traj::Trajectory> test = CleanedTestSplit(*ds_);
  for (const int k : {10, 45}) {
    network::CachedRouter shared(&ds_->network);
    ExpectIvmmMatchesReference(&ds_->network, index_, models, k, test, &shared);
  }
}

TEST_F(MatchersTest, IvmmEqualsItsReferenceBehindFailingRoutes) {
  // A sparse outage perturbs the weights; a dense one also breaks columns.
  const hmm::ClassicModelConfig models;
  const std::vector<traj::Trajectory> test = CleanedTestSplit(*ds_);
  for (const double rate : {0.3, 0.97}) {
    network::FaultConfig faults;
    faults.route_failure_rate = rate;
    faults.seed = 5;
    network::FaultyRouter faulty(&ds_->network, faults);
    ExpectIvmmMatchesReference(&ds_->network, index_, models, 10, test, &faulty);
    EXPECT_GT(faulty.injected_failures(), 0);
    IvmmMatcher ivmm(&ds_->network, index_, models, 10);
    ivmm.UseSharedRouter(&faulty);
    int breaks = 0;
    for (const traj::Trajectory& t : test) breaks += ivmm.Match(t).num_breaks;
    if (rate > 0.5) {
      EXPECT_GT(breaks, 0);
    }
  }
}

TEST(IvmmOracleTest, EqualsItsReferenceAcrossDisconnectedIslands) {
  // Two road islands 10 km apart (the BreakRecoveryTest network): every
  // crossing is unroutable, so the voting DPs restart at a break column.
  constexpr double kIslandOffset = 10000.0;
  network::RoadNetwork net;
  for (int island = 0; island < 2; ++island) {
    std::vector<network::NodeId> nodes;
    for (int i = 0; i < 5; ++i) {
      nodes.push_back(net.AddNode({island * kIslandOffset + i * 200.0, 0.0}));
    }
    for (int i = 0; i + 1 < 5; ++i) {
      net.AddTwoWay(nodes[i], nodes[i + 1], 13.9, network::RoadLevel::kLocal);
    }
  }
  const network::GridIndex index(&net, 150.0);
  hmm::ClassicModelConfig models;
  models.obs_sigma = 120.0;
  models.search_radius = 500.0;
  // Three points along island A, then three along island B, driven east and
  // driven west: each point's two nearest candidates are the two directions
  // of one road, so only the votes (which need the restart) pick the right one.
  std::vector<traj::Trajectory> crossings(2);
  for (int dir = 0; dir < 2; ++dir) {
    int i = 0;
    for (const double x0 : {0.0, kIslandOffset}) {
      for (const double x : {100.0, 300.0, 500.0}) {
        traj::TrajPoint p;
        p.pos = {x0 + (dir == 0 ? x : 600.0 - x), 10.0};
        p.t = 30.0 * i++;
        crossings[dir].points.push_back(p);
      }
    }
  }
  network::CachedRouter shared(&net);
  ExpectIvmmMatchesReference(&net, &index, models, 6, crossings, &shared);
  IvmmMatcher ivmm(&net, &index, models, 6);
  for (const traj::Trajectory& t : crossings) EXPECT_EQ(ivmm.Match(t).num_breaks, 1);
}

TEST_F(MatchersTest, GruCellStepShapesAndPathsAgree) {
  core::Rng rng(3);
  GruCell cell(6, 10, &rng);
  const nn::Matrix x = nn::Matrix::Gaussian(1, 6, 1.0f, &rng);
  const nn::Matrix h = nn::Matrix::Gaussian(1, 10, 1.0f, &rng);
  const nn::Matrix out_m = cell.Step(x, h);
  const nn::Tensor out_t = cell.Step(nn::Tensor(x), nn::Tensor(h));
  ASSERT_EQ(out_m.cols(), 10);
  for (int j = 0; j < 10; ++j) {
    EXPECT_NEAR(out_m(0, j), out_t.value()(0, j), 1e-5);
    EXPECT_GE(out_m(0, j), -1.5f);  // GRU output stays bounded-ish.
    EXPECT_LE(out_m(0, j), 1.5f);
  }
}

TEST_F(MatchersTest, Seq2SeqTrainsMatchesAndRoundTrips) {
  Seq2SeqConfig cfg;
  cfg.epochs = 1;
  cfg.embed_dim = 12;
  cfg.hidden_dim = 16;
  Seq2SeqMatcher matcher(&ds_->network, index_,
                         static_cast<int>(ds_->towers.size()), cfg, "S2S");
  traj::FilterConfig filters;
  matcher.Train(ds_->train, filters);
  const traj::Trajectory t = Cleaned(2);
  const MatchResult r = matcher.Match(t);
  EXPECT_FALSE(r.path.empty());
  EXPECT_FALSE(matcher.ProvidesCandidates());

  const std::string path = "/tmp/s2s_test_model.bin";
  ASSERT_TRUE(matcher.Save(path).ok());
  Seq2SeqMatcher fresh(&ds_->network, index_,
                       static_cast<int>(ds_->towers.size()), cfg, "S2S");
  ASSERT_TRUE(fresh.Load(path).ok());
  const MatchResult r2 = fresh.Match(t);
  EXPECT_EQ(r.path, r2.path);  // Loaded weights reproduce the decode.
  std::filesystem::remove(path);
}

TEST_F(MatchersTest, BeamSearchDecodesDeterministically) {
  Seq2SeqConfig cfg;
  cfg.epochs = 1;
  cfg.embed_dim = 10;
  cfg.hidden_dim = 12;
  cfg.beam_width = 3;
  Seq2SeqMatcher matcher(&ds_->network, index_,
                         static_cast<int>(ds_->towers.size()), cfg, "BEAM");
  traj::FilterConfig filters;
  matcher.Train(ds_->train, filters);
  const traj::Trajectory t = Cleaned(3);
  const MatchResult a = matcher.Match(t);
  const MatchResult b = matcher.Match(t);
  EXPECT_FALSE(a.path.empty());
  EXPECT_EQ(a.path, b.path);  // Decoding is deterministic.
  for (size_t i = 1; i < a.path.size(); ++i) {
    // Path expansion keeps the output on the network.
    ASSERT_GE(a.path[i], 0);
    ASSERT_LT(a.path[i], ds_->network.num_segments());
  }
}

TEST_F(MatchersTest, Seq2SeqFactoriesDiffer) {
  auto deepmm = MakeDeepMm(&ds_->network, index_,
                           static_cast<int>(ds_->towers.size()));
  auto tmm = MakeTransformerMm(&ds_->network, index_,
                               static_cast<int>(ds_->towers.size()));
  auto dmm = MakeDmm(&ds_->network, index_, static_cast<int>(ds_->towers.size()));
  EXPECT_EQ(deepmm->name(), "DeepMM");
  EXPECT_EQ(tmm->name(), "TransformerMM");
  EXPECT_EQ(dmm->name(), "DMM");
}

}  // namespace
}  // namespace lhmm::matchers
