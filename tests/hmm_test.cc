#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

#include "gtest/gtest.h"
#include "hmm/classic_models.h"
#include "hmm/engine.h"
#include "hmm/online.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "network/path_cache.h"

namespace lhmm::hmm {
namespace {

/// A small harness: grid network, classic models, shared router.
struct Harness {
  network::RoadNetwork net;
  std::unique_ptr<network::GridIndex> index;
  std::unique_ptr<network::SegmentRouter> router;
  std::unique_ptr<network::CachedRouter> cached;
  ClassicModelConfig models;
  std::unique_ptr<GaussianObservationModel> obs;
  std::unique_ptr<ClassicTransitionModel> trans;

  explicit Harness(double obs_sigma = 120.0) {
    net = network::GenerateGridNetwork(8, 8, 200.0);
    index = std::make_unique<network::GridIndex>(&net, 150.0);
    router = std::make_unique<network::SegmentRouter>(&net);
    cached = std::make_unique<network::CachedRouter>(router.get());
    models.obs_sigma = obs_sigma;
    models.search_radius = 500.0;
    obs = std::make_unique<GaussianObservationModel>(index.get(), models);
    trans = std::make_unique<ClassicTransitionModel>(models, &net);
  }

  Engine MakeEngine(const EngineConfig& config) {
    return Engine(&net, cached.get(), obs.get(), trans.get(), config);
  }
};

/// Walks along the bottom row of the grid (y=0) left to right.
traj::Trajectory BottomRowTrajectory(int points, double spacing, double dt) {
  traj::Trajectory t;
  for (int i = 0; i < points; ++i) {
    t.points.push_back({{100.0 + i * spacing, 10.0}, i * dt, i});
  }
  return t;
}

TEST(GaussianObservationTest, ScoresDecreaseWithDistance) {
  Harness h;
  EXPECT_GT(h.obs->Score(10.0), h.obs->Score(100.0));
  EXPECT_GT(h.obs->Score(100.0), h.obs->Score(400.0));
  EXPECT_NEAR(h.obs->Score(0.0), 1.0, 1e-12);
}

TEST(GaussianObservationTest, CandidatesSortedAndCapped) {
  Harness h;
  const traj::Trajectory t = BottomRowTrajectory(3, 200.0, 15.0);
  const CandidateSet cs = h.obs->Candidates(t, 0, 5);
  ASSERT_LE(cs.size(), 5u);
  ASSERT_GE(cs.size(), 2u);
  for (size_t i = 1; i < cs.size(); ++i) {
    EXPECT_GE(cs[i - 1].observation, cs[i].observation);
  }
}

TEST(GaussianObservationTest, MakeCandidateMatchesCandidates) {
  Harness h;
  const traj::Trajectory t = BottomRowTrajectory(2, 200.0, 15.0);
  const CandidateSet cs = h.obs->Candidates(t, 0, 3);
  ASSERT_FALSE(cs.empty());
  const Candidate rebuilt = h.obs->MakeCandidate(t, 0, cs[0].segment);
  EXPECT_DOUBLE_EQ(rebuilt.observation, cs[0].observation);
  EXPECT_DOUBLE_EQ(rebuilt.dist, cs[0].dist);
}

TEST(EngineTest, MatchesStraightLine) {
  Harness h;
  EngineConfig config;
  config.k = 8;
  Engine engine = h.MakeEngine(config);
  const traj::Trajectory t = BottomRowTrajectory(6, 250.0, 20.0);
  const EngineResult r = engine.Match(t);
  ASSERT_FALSE(r.path.empty());
  EXPECT_TRUE(network::IsConnectedPath(h.net, r.path));
  // The matched path must hug the bottom row: every segment within 150 m.
  for (network::SegmentId sid : r.path) {
    const geo::Polyline& geom = h.net.segment(sid).geometry;
    EXPECT_LT(std::min(geom.front().y, geom.back().y), 150.0);
  }
  EXPECT_EQ(r.candidates.size(), r.point_index.size());
  EXPECT_EQ(r.matched.size(), r.candidates.size());
}

TEST(EngineTest, EmptyAndSingletonTrajectories) {
  Harness h;
  EngineConfig config;
  Engine engine = h.MakeEngine(config);
  EXPECT_TRUE(engine.Match(traj::Trajectory{}).path.empty());
  traj::Trajectory one;
  one.points.push_back({{100, 10}, 0.0, 0});
  const EngineResult r = engine.Match(one);
  EXPECT_EQ(r.path.size(), 1u);
}

TEST(EngineTest, PointOutOfRangeIsDropped) {
  Harness h;
  EngineConfig config;
  config.k = 6;
  Engine engine = h.MakeEngine(config);
  traj::Trajectory t = BottomRowTrajectory(5, 250.0, 20.0);
  t.points[2].pos = {9000.0, 9000.0};  // Far outside any search radius.
  const EngineResult r = engine.Match(t);
  EXPECT_EQ(r.point_index.size(), 4u);  // One point dropped.
  for (int idx : r.point_index) EXPECT_NE(idx, 2);
  EXPECT_FALSE(r.path.empty());
}

TEST(EngineTest, ShortcutRescuesOutlierPoint) {
  Harness h(100.0);
  EngineConfig config;
  config.k = 4;  // Small candidate sets so the outlier's set is unqualified.
  config.use_shortcuts = true;
  Engine engine = h.MakeEngine(config);

  traj::Trajectory t = BottomRowTrajectory(7, 250.0, 20.0);
  // Point 3 jumps 600 m north: its 4 nearest segments are all off-path, and
  // driving there and back within 20 s is impossible.
  t.points[3].pos.y = 610.0;

  const EngineResult with_shortcut = engine.Match(t);
  EXPECT_GT(engine.shortcuts_applied(), 0);

  EngineConfig no_shortcut = config;
  no_shortcut.use_shortcuts = false;
  Engine plain = h.MakeEngine(no_shortcut);
  const EngineResult without = plain.Match(t);

  // With the shortcut the path must stay near the bottom row.
  auto max_y = [&](const std::vector<network::SegmentId>& path) {
    double best = 0.0;
    for (network::SegmentId sid : path) {
      const geo::Polyline& geom = h.net.segment(sid).geometry;
      best = std::max(best, std::max(geom.front().y, geom.back().y));
    }
    return best;
  };
  EXPECT_LE(max_y(with_shortcut.path), max_y(without.path));
  // The shortcut-added candidate is recorded for the skipped point.
  bool any_shortcut_candidate = false;
  for (const CandidateSet& cs : with_shortcut.candidates) {
    for (const Candidate& c : cs) any_shortcut_candidate |= c.from_shortcut;
  }
  EXPECT_TRUE(any_shortcut_candidate);
}

TEST(EngineTest, LargerKNeverShrinksCandidateSets) {
  Harness h;
  const traj::Trajectory t = BottomRowTrajectory(4, 250.0, 20.0);
  EngineConfig small;
  small.k = 3;
  EngineConfig big;
  big.k = 10;
  Engine a = h.MakeEngine(small);
  Engine b = h.MakeEngine(big);
  const EngineResult ra = a.Match(t);
  const EngineResult rb = b.Match(t);
  ASSERT_EQ(ra.candidates.size(), rb.candidates.size());
  for (size_t i = 0; i < ra.candidates.size(); ++i) {
    EXPECT_LE(ra.candidates[i].size(), rb.candidates[i].size());
    EXPECT_LE(ra.candidates[i].size(), 3u);
  }
}

TEST(OnlineMatcherTest, StreamsAndMatchesStraightLine) {
  Harness h;
  OnlineConfig config;
  config.k = 6;
  config.lag = 3;
  OnlineMatcher online(&h.net, h.cached.get(), h.obs.get(), h.trans.get(), config);
  const traj::Trajectory t = BottomRowTrajectory(10, 250.0, 20.0);
  std::vector<network::SegmentId> streamed;
  for (const auto& p : t.points) {
    const auto emitted = online.Push(p);
    streamed.insert(streamed.end(), emitted.begin(), emitted.end());
  }
  const auto tail = online.Finish();
  streamed.insert(streamed.end(), tail.begin(), tail.end());
  ASSERT_FALSE(streamed.empty());
  EXPECT_EQ(streamed, online.committed());
  // The committed path hugs the bottom row and is (near-)connected.
  int breaks = 0;
  for (size_t i = 1; i < streamed.size(); ++i) {
    if (!h.net.AreConsecutive(streamed[i - 1], streamed[i])) ++breaks;
  }
  EXPECT_LE(breaks, 1);
  for (network::SegmentId sid : streamed) {
    const geo::Polyline& geom = h.net.segment(sid).geometry;
    EXPECT_LT(std::min(geom.front().y, geom.back().y), 150.0);
  }
}

TEST(OnlineMatcherTest, CommitsLagBehindInput) {
  Harness h;
  OnlineConfig config;
  config.lag = 4;
  OnlineMatcher online(&h.net, h.cached.get(), h.obs.get(), h.trans.get(), config);
  const traj::Trajectory t = BottomRowTrajectory(5, 250.0, 20.0);
  int pushes_before_first_commit = 0;
  for (const auto& p : t.points) {
    ++pushes_before_first_commit;
    if (!online.Push(p).empty()) break;
  }
  // Nothing commits until lag+1 points are buffered.
  EXPECT_GT(pushes_before_first_commit, config.lag);
}

TEST(OnlineMatcherTest, ResetClearsState) {
  Harness h;
  OnlineConfig config;
  config.lag = 2;
  OnlineMatcher online(&h.net, h.cached.get(), h.obs.get(), h.trans.get(), config);
  const traj::Trajectory t = BottomRowTrajectory(6, 250.0, 20.0);
  for (const auto& p : t.points) online.Push(p);
  online.Finish();
  EXPECT_FALSE(online.committed().empty());
  online.Reset();
  EXPECT_TRUE(online.committed().empty());
  for (const auto& p : t.points) online.Push(p);
  const auto tail = online.Finish();
  EXPECT_FALSE(online.committed().empty());
}

TEST(OnlineMatcherTest, ApproachesOfflineAccuracyWithLag) {
  Harness h;
  // Offline reference.
  EngineConfig engine_config;
  engine_config.k = 6;
  Engine engine = h.MakeEngine(engine_config);
  core::Rng rng(3);
  traj::Trajectory t;
  double x = 150.0;
  for (int i = 0; i < 12; ++i) {
    t.points.push_back({{x + rng.Normal(0, 60.0), 10.0 + rng.Normal(0, 60.0)},
                        i * 18.0, i});
    x += 160.0;
  }
  const EngineResult offline = engine.Match(t);

  OnlineConfig config;
  config.k = 6;
  config.lag = 6;
  OnlineMatcher online(&h.net, h.cached.get(), h.obs.get(), h.trans.get(), config);
  for (const auto& p : t.points) online.Push(p);
  online.Finish();
  // Large-lag online should overlap the offline path substantially.
  std::set<network::SegmentId> off(offline.path.begin(), offline.path.end());
  int overlap = 0;
  for (network::SegmentId sid : online.committed()) {
    if (off.count(sid)) ++overlap;
  }
  EXPECT_GT(overlap * 2, static_cast<int>(online.committed().size()));
}

TEST(OnlineMatcherTest, LagZeroIsGreedyButStillTracks) {
  Harness h;
  OnlineConfig config;
  config.lag = 0;
  OnlineMatcher online(&h.net, h.cached.get(), h.obs.get(), h.trans.get(), config);
  const traj::Trajectory t = BottomRowTrajectory(8, 250.0, 20.0);
  for (const auto& p : t.points) online.Push(p);
  online.Finish();
  ASSERT_FALSE(online.committed().empty());
  // Greedy (no lookahead) may stray, but not more than one block off the
  // bottom row.
  for (network::SegmentId sid : online.committed()) {
    const geo::Polyline& geom = h.net.segment(sid).geometry;
    EXPECT_LE(std::min(geom.front().y, geom.back().y), 200.0);
  }
}

/// Brute-force reference: enumerates every candidate chain and scores it
/// with Eq. (14); the engine's Viterbi must find the same optimum.
class ViterbiEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ViterbiEquivalenceTest, MatchesBruteForceOptimum) {
  Harness h;
  EngineConfig config;
  config.k = 3;  // Keep the chain space enumerable: 3^m paths.
  config.use_shortcuts = false;
  Engine engine = h.MakeEngine(config);

  core::Rng rng(100 + GetParam());
  traj::Trajectory t;
  double x = 200.0;
  double y = 200.0;
  for (int i = 0; i < 5; ++i) {
    t.points.push_back({{x + rng.Normal(0, 70.0), y + rng.Normal(0, 70.0)},
                        i * 20.0, i});
    x += 200.0;
    if (i % 2 == 1) y += 150.0;
  }
  const EngineResult r = engine.Match(t);
  ASSERT_EQ(r.candidates.size(), 5u);

  // Re-derive all pairwise weights exactly as the engine does.
  network::SegmentRouter router(&h.net);
  const int m = static_cast<int>(r.candidates.size());
  std::vector<double> straight(m, 0.0);
  for (int s = 1; s < m; ++s) {
    straight[s] =
        geo::Distance(t[r.point_index[s - 1]].pos, t[r.point_index[s]].pos);
  }
  auto weight = [&](int s, const Candidate& a, const Candidate& b) {
    const double bound = std::min(12000.0, 4.0 * straight[s] + 1500.0);
    const auto route = router.Route1(a.segment, b.segment, bound);
    const network::Route* rp = route.has_value() ? &route.value() : nullptr;
    if (rp == nullptr) return -1e18;
    return h.trans->Transition(t, r.point_index[s - 1], r.point_index[s], a, b,
                               rp, straight[s]) *
           b.observation;
  };

  // Enumerate all chains.
  double best_score = -1e18;
  std::vector<int> idx(m, 0);
  std::vector<int> best_chain;
  while (true) {
    double score = r.candidates[0][idx[0]].observation;
    for (int s = 1; s < m; ++s) {
      score += weight(s, r.candidates[s - 1][idx[s - 1]], r.candidates[s][idx[s]]);
    }
    if (score > best_score) {
      best_score = score;
      best_chain = idx;
    }
    int carry = m - 1;
    while (carry >= 0) {
      if (++idx[carry] < static_cast<int>(r.candidates[carry].size())) break;
      idx[carry] = 0;
      --carry;
    }
    if (carry < 0) break;
  }

  // The engine's chosen chain must achieve the brute-force optimum score.
  double engine_score = 0.0;
  {
    std::vector<int> chosen(m);
    for (int s = 0; s < m; ++s) {
      for (size_t j = 0; j < r.candidates[s].size(); ++j) {
        if (r.candidates[s][j].segment == r.matched[s]) {
          chosen[s] = static_cast<int>(j);
          break;
        }
      }
    }
    engine_score = r.candidates[0][chosen[0]].observation;
    for (int s = 1; s < m; ++s) {
      engine_score += weight(s, r.candidates[s - 1][chosen[s - 1]],
                             r.candidates[s][chosen[s]]);
    }
  }
  EXPECT_NEAR(engine_score, best_score, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViterbiEquivalenceTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Viterbi DP property test on random small candidate graphs. Mock models
// assign deterministic pseudo-random weights (hash-based, no shared RNG
// state), candidates are arbitrary segments scattered over the network, and
// the property is one-sided: the engine's chosen chain must score at least as
// high as EVERY brute-force-enumerated chain.
// ---------------------------------------------------------------------------

/// splitmix64-style deterministic hash -> weight in (0, 1].
double HashWeight(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b * 0xBF58476D1CE4E5B9ull +
               c * 0x94D049BB133111EBull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return 0.05 + 0.95 * static_cast<double>(x % 100000) / 100000.0;
}

class MockObservationModel : public ObservationModel {
 public:
  MockObservationModel(const network::RoadNetwork* net, uint64_t seed)
      : net_(net), seed_(seed) {}

  CandidateSet Candidates(const traj::Trajectory& t, int i, int k) override {
    CandidateSet cs;
    std::unordered_set<network::SegmentId> used;
    for (uint64_t j = 0; static_cast<int>(cs.size()) < k && j < 64; ++j) {
      const auto sid = static_cast<network::SegmentId>(
          HashWeight(seed_ + 1, static_cast<uint64_t>(i), j) * 1e5);
      const network::SegmentId seg = sid % net_->num_segments();
      if (!used.insert(seg).second) continue;
      cs.push_back(MakeCandidate(t, i, seg));
    }
    std::sort(cs.begin(), cs.end(), [](const Candidate& a, const Candidate& b) {
      return a.observation > b.observation;
    });
    return cs;
  }

  Candidate MakeCandidate(const traj::Trajectory& t, int i,
                          network::SegmentId segment) override {
    (void)t;
    Candidate c;
    c.segment = segment;
    c.dist = 0.0;
    c.closest = net_->segment(segment).geometry.front();
    c.observation =
        HashWeight(seed_, static_cast<uint64_t>(i), static_cast<uint64_t>(segment));
    return c;
  }

 private:
  const network::RoadNetwork* net_;
  uint64_t seed_;
};

class MockTransitionModel : public TransitionModel {
 public:
  explicit MockTransitionModel(uint64_t seed) : seed_(seed) {}

  double Transition(const traj::Trajectory& t, int prev_index, int cur_index,
                    const Candidate& prev, const Candidate& cur,
                    const network::Route* route, double straight_dist) override {
    (void)t;
    (void)prev_index;
    (void)straight_dist;
    if (route == nullptr) return 0.0;
    return HashWeight(seed_ ^ 0xC0FFEEull,
                      static_cast<uint64_t>(prev.segment) * 131071ull +
                          static_cast<uint64_t>(cur.segment),
                      static_cast<uint64_t>(cur_index));
  }

 private:
  uint64_t seed_;
};

class ViterbiPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ViterbiPropertyTest, EngineChainDominatesEveryBruteForceChain) {
  const uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  // A small dense grid: every candidate pair is reachable well within the
  // route bound (>= 1500 m), so no chain is pruned by unreachability.
  network::RoadNetwork net = network::GenerateGridNetwork(4, 4, 100.0);
  network::CachedRouter cached(&net);
  MockObservationModel obs(&net, seed);
  MockTransitionModel trans(seed);
  EngineConfig config;
  config.k = 3;
  config.use_shortcuts = false;
  Engine engine(&net, &cached, &obs, &trans, config);

  traj::Trajectory t;
  constexpr int kPoints = 5;
  for (int i = 0; i < kPoints; ++i) {
    t.points.push_back({{50.0 + i * 60.0, 50.0}, i * 15.0, i});
  }
  const EngineResult r = engine.Match(t);
  ASSERT_EQ(r.candidates.size(), static_cast<size_t>(kPoints));

  // Score chains exactly as the engine does: additive P_O(c_0) + sum of
  // P_T * P_O, routes bounded by min(12000, 4 * straight + 1500).
  network::SegmentRouter router(&net);
  const int m = static_cast<int>(r.candidates.size());
  std::vector<double> straight(m, 0.0);
  for (int s = 1; s < m; ++s) {
    straight[s] =
        geo::Distance(t[r.point_index[s - 1]].pos, t[r.point_index[s]].pos);
  }
  auto weight = [&](int s, const Candidate& a, const Candidate& b) {
    const double bound = std::min(12000.0, 4.0 * straight[s] + 1500.0);
    const auto route = router.Route1(a.segment, b.segment, bound);
    const network::Route* rp = route.has_value() ? &route.value() : nullptr;
    if (rp == nullptr) return -1e18;
    return trans.Transition(t, r.point_index[s - 1], r.point_index[s], a, b, rp,
                            straight[s]) *
           b.observation;
  };

  // The engine's chosen chain, re-scored from r.matched / r.candidates.
  std::vector<int> chosen(m, -1);
  for (int s = 0; s < m; ++s) {
    for (size_t j = 0; j < r.candidates[s].size(); ++j) {
      if (r.candidates[s][j].segment == r.matched[s]) {
        chosen[s] = static_cast<int>(j);
        break;
      }
    }
    ASSERT_GE(chosen[s], 0) << "matched segment missing from candidate set";
  }
  double engine_score = r.candidates[0][chosen[0]].observation;
  for (int s = 1; s < m; ++s) {
    engine_score +=
        weight(s, r.candidates[s - 1][chosen[s - 1]], r.candidates[s][chosen[s]]);
  }

  // Enumerate all chains; the engine must dominate each one.
  std::vector<int> idx(m, 0);
  int64_t chains = 0;
  while (true) {
    double score = r.candidates[0][idx[0]].observation;
    for (int s = 1; s < m; ++s) {
      score += weight(s, r.candidates[s - 1][idx[s - 1]], r.candidates[s][idx[s]]);
    }
    EXPECT_GE(engine_score, score - 1e-9);
    ++chains;
    int carry = m - 1;
    while (carry >= 0) {
      if (++idx[carry] < static_cast<int>(r.candidates[carry].size())) break;
      idx[carry] = 0;
      --carry;
    }
    if (carry < 0) break;
  }
  EXPECT_GT(chains, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViterbiPropertyTest, ::testing::Range(0, 10));

class EngineKSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineKSweepTest, MatchedPathConnectedForAnyK) {
  Harness h;
  EngineConfig config;
  config.k = GetParam();
  config.use_shortcuts = true;
  Engine engine = h.MakeEngine(config);
  core::Rng rng(GetParam());
  traj::Trajectory t;
  double x = 150.0;
  double y = 50.0;
  for (int i = 0; i < 8; ++i) {
    t.points.push_back({{x + rng.Normal(0, 80.0), y + rng.Normal(0, 80.0)},
                        i * 18.0, i});
    x += 180.0;
    if (i % 3 == 2) y += 160.0;
  }
  const EngineResult r = engine.Match(t);
  ASSERT_FALSE(r.path.empty());
  EXPECT_TRUE(network::IsConnectedPath(h.net, r.path));
}

INSTANTIATE_TEST_SUITE_P(Ks, EngineKSweepTest, ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------------
// SoA Viterbi column kernel vs the scalar reference.
// ---------------------------------------------------------------------------

constexpr double kKernelNegInf = -std::numeric_limits<double>::infinity();

/// The pre-SoA scalar formulation, kept verbatim as the semantics anchor the
/// SoA kernel is pinned to on random matrices, including all--inf break
/// columns.
void ViterbiColumnReference(const WeightMatrix& w, const double* f_prev,
                            double* f_cur, int* pre_cur) {
  for (int k = 0; k < w.cols; ++k) {
    f_cur[k] = kKernelNegInf;
    pre_cur[k] = -1;
  }
  for (int j = 0; j < w.rows; ++j) {
    for (int k = 0; k < w.cols; ++k) {
      if (!w.Reachable(j, k)) continue;  // Unreachable move.
      const double score = f_prev[j] + w.At(j, k);  // Eq. (16).
      if (score > f_cur[k]) {
        f_cur[k] = score;
        pre_cur[k] = j;  // Eq. (17).
      }
    }
  }
}

/// Checks the SoA kernel against the reference on one matrix + f_prev,
/// requiring exact equality of scores *and* predecessors (the kernels must be
/// bit-compatible, not merely numerically close).
void ExpectKernelsAgree(const WeightMatrix& w, const std::vector<double>& f_prev) {
  std::vector<double> f_soa(w.cols, 123.0), f_ref(w.cols, 456.0);
  std::vector<int> pre_soa(w.cols, 7), pre_ref(w.cols, 9);
  ViterbiColumn(w, f_prev.data(), f_soa.data(), pre_soa.data());
  ViterbiColumnReference(w, f_prev.data(), f_ref.data(), pre_ref.data());
  for (int k = 0; k < w.cols; ++k) {
    // Exact comparison on purpose: identical evaluation order must yield
    // identical doubles. (EXPECT_EQ on -inf == -inf is fine.)
    EXPECT_EQ(f_soa[k], f_ref[k]) << "k=" << k;
    EXPECT_EQ(pre_soa[k], pre_ref[k]) << "k=" << k;
  }
}

class SoAKernelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SoAKernelPropertyTest, MatchesScalarReferenceOnRandomColumns) {
  core::Rng rng(9000 + GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    const int rows = rng.UniformInt(1, 24);
    const int cols = rng.UniformInt(1, 24);
    WeightMatrix w;
    w.Reset(rows, cols);
    for (int j = 0; j < rows; ++j) {
      for (int k = 0; k < cols; ++k) {
        // Mix of reachable / unreachable pairs; weights include zeros,
        // negatives, and exact duplicates (Set still records a weight for
        // unreachable pairs, as the engine does for the shortcut pass).
        const bool reachable = rng.Uniform() < 0.7;
        double weight = rng.Uniform(-5.0, 5.0);
        if (rng.Uniform() < 0.2) weight = 0.0;
        if (rng.Uniform() < 0.1) weight = 1.25;  // Force score ties.
        w.Set(j, k, weight, reachable);
      }
    }
    std::vector<double> f_prev(rows);
    for (int j = 0; j < rows; ++j) {
      // -inf rows exercise the SoA kernel's row-skip fast path.
      f_prev[j] = rng.Uniform() < 0.25 ? kKernelNegInf : rng.Uniform(-10.0, 10.0);
    }
    ExpectKernelsAgree(w, f_prev);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoAKernelPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(SoAKernelTest, AllNegInfPreviousColumnYieldsBreakColumn) {
  // The PR-3 break-recovery path feeds the kernel a fully -inf f_prev (no
  // candidate at s-1 was reachable). Every output must be -inf / -1 so the
  // engine's break detection fires.
  WeightMatrix w;
  w.Reset(4, 6);
  core::Rng rng(77);
  for (int j = 0; j < 4; ++j) {
    for (int k = 0; k < 6; ++k) w.Set(j, k, rng.Uniform(-2.0, 2.0), true);
  }
  const std::vector<double> f_prev(4, kKernelNegInf);
  std::vector<double> f_cur(6, 0.0);
  std::vector<int> pre(6, 0);
  ViterbiColumn(w, f_prev.data(), f_cur.data(), pre.data());
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(f_cur[k], kKernelNegInf);
    EXPECT_EQ(pre[k], -1);
  }
  ExpectKernelsAgree(w, f_prev);
}

TEST(SoAKernelTest, AllUnreachableMatrixYieldsBreakColumn) {
  // A column where no (j, k) pair has a route: the engine's break recovery
  // must see -inf everywhere even though finite weights are stored.
  WeightMatrix w;
  w.Reset(3, 5);
  for (int j = 0; j < 3; ++j) {
    for (int k = 0; k < 5; ++k) w.Set(j, k, 1.0 + j + k, false);
  }
  const std::vector<double> f_prev = {0.5, kKernelNegInf, 2.0};
  std::vector<double> f_cur(5, 9.0);
  std::vector<int> pre(5, 9);
  ViterbiColumn(w, f_prev.data(), f_cur.data(), pre.data());
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(f_cur[k], kKernelNegInf);
    EXPECT_EQ(pre[k], -1);
  }
  ExpectKernelsAgree(w, f_prev);
}

TEST(SoAKernelTest, TiesKeepFirstMaximizer) {
  // Two rows produce the exact same score for every column; the strict `>`
  // must keep the lower row index, in both kernels.
  WeightMatrix w;
  w.Reset(3, 4);
  for (int k = 0; k < 4; ++k) {
    w.Set(0, k, 1.0, true);
    w.Set(1, k, 1.0, true);
    w.Set(2, k, 0.5, true);
  }
  const std::vector<double> f_prev = {2.0, 2.0, 2.5};
  std::vector<double> f_cur(4);
  std::vector<int> pre(4);
  ViterbiColumn(w, f_prev.data(), f_cur.data(), pre.data());
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(f_cur[k], 3.0);
    EXPECT_EQ(pre[k], 0) << "tie must resolve to the first maximizer";
  }
  ExpectKernelsAgree(w, f_prev);
}

TEST(SoAKernelTest, SingleRowSingleColumn) {
  WeightMatrix w;
  w.Reset(1, 1);
  w.Set(0, 0, -3.5, true);
  ExpectKernelsAgree(w, {1.5});
  w.Set(0, 0, -3.5, false);
  ExpectKernelsAgree(w, {1.5});
  ExpectKernelsAgree(w, {kKernelNegInf});
}

}  // namespace
}  // namespace lhmm::hmm
