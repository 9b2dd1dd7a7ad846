// Robustness suite for the hardened matching pipeline: traj::Sanitize
// policies, deterministic fault injection (network::FaultyRouter), HMM-break
// recovery (offline engine, online matcher, STM/IVMM/LHMM), and the
// StreamEngine serving contract — bounded inboxes with backpressure,
// logical-clock eviction that is deterministic across thread counts, and
// per-session error quarantine. Ends with the end-to-end crash test: corrupted points +
// sanitize + a 10%-faulted router through STM/IVMM/LHMM, byte-identical for
// 1 and 8 threads.

#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "hmm/classic_models.h"
#include "hmm/engine.h"
#include "hmm/online.h"
#include "lhmm/lhmm_matcher.h"
#include "lhmm/trainer.h"
#include "matchers/batch_matcher.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "matchers/stream_engine.h"
#include "matchers/streaming.h"
#include "network/faulty_router.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "sim/corrupt.h"
#include "sim/dataset.h"
#include "traj/filters.h"
#include "traj/sanitize.h"

namespace lhmm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

traj::TrajPoint P(double x, double y, double t,
                  traj::TowerId tower = traj::kInvalidTower) {
  return {{x, y}, t, tower};
}

// ---------------------------------------------------------------------------
// traj::Sanitize — per-policy behavior.
// ---------------------------------------------------------------------------

TEST(SanitizeTest, CleanInputPassesThroughUntouched) {
  traj::Trajectory t;
  t.points = {P(0, 0, 0, 1), P(50, 0, 10, 2), P(100, 0, 20, 1)};
  traj::SanitizeConfig config;
  config.policy = traj::SanitizePolicy::kReject;
  config.num_towers = 4;
  traj::SanitizeReport report;
  const auto out = traj::Sanitize(t, config, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.input_points, 3);
  EXPECT_EQ(report.output_points, 3);
  ASSERT_EQ(out->size(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*out)[i].t, t[i].t);
    EXPECT_EQ((*out)[i].tower, t[i].tower);
  }
}

TEST(SanitizeTest, RejectNamesTheFirstOffendingPoint) {
  traj::Trajectory t;
  t.points = {P(0, 0, 0), P(50, 0, 10), P(kNaN, 0, 20), P(150, 0, 30)};
  traj::SanitizeConfig config;
  config.policy = traj::SanitizePolicy::kReject;
  const auto out = traj::Sanitize(t, config);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("point 2"), std::string::npos)
      << out.status().message();
}

TEST(SanitizeTest, DropPointRemovesEveryDefectClass) {
  traj::Trajectory t;
  t.points = {
      P(0, 0, 0, 1),     // Kept.
      P(10, 0, 10, 42),  // Unknown tower: dropped.
      P(20, kNaN, 20),   // Non-finite: dropped.
      P(30, 0, 30, 2),   // Kept.
      P(40, 0, 20, 3),   // Moves time backwards: dropped.
      P(50, 0, 30, 0),   // Duplicates the kept t=30: dropped.
  };
  traj::SanitizeConfig config;
  config.policy = traj::SanitizePolicy::kDropPoint;
  config.num_towers = 5;
  traj::SanitizeReport report;
  const auto out = traj::Sanitize(t, config, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(report.nonfinite, 1);
  EXPECT_EQ(report.unknown_tower, 1);
  EXPECT_EQ(report.out_of_order, 1);
  EXPECT_EQ(report.duplicate_time, 1);
  EXPECT_EQ(report.dropped, 4);
  EXPECT_EQ(report.repaired, 0);
  ASSERT_EQ(out->size(), 2);
  EXPECT_EQ((*out)[0].t, 0.0);
  EXPECT_EQ((*out)[1].t, 30.0);
  for (int i = 1; i < out->size(); ++i) {
    EXPECT_GT((*out)[i].t, (*out)[i - 1].t);
  }
}

TEST(SanitizeTest, RepairReordersTimeAndClearsUnknownTowers) {
  traj::Trajectory t;
  t.points = {P(0, 0, 0, 1), P(20, 0, 20, 42), P(10, 0, 10, 2)};
  traj::SanitizeConfig config;
  config.policy = traj::SanitizePolicy::kRepair;
  config.num_towers = 5;
  traj::SanitizeReport report;
  const auto out = traj::Sanitize(t, config, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(report.unknown_tower, 1);
  EXPECT_EQ(report.out_of_order, 1);
  EXPECT_EQ(report.repaired, 2);
  EXPECT_EQ(report.dropped, 0);
  ASSERT_EQ(out->size(), 3);
  EXPECT_EQ((*out)[0].t, 0.0);
  EXPECT_EQ((*out)[1].t, 10.0);
  EXPECT_EQ((*out)[2].t, 20.0);
  EXPECT_EQ((*out)[1].tower, 2);
  EXPECT_EQ((*out)[2].tower, traj::kInvalidTower);  // Cleared, not dropped.
}

TEST(SanitizeTest, OffNetworkPointsClampUnderRepairDropOtherwise) {
  geo::BBox bounds;
  bounds.Extend({0.0, 0.0});
  bounds.Extend({1000.0, 1000.0});
  traj::Trajectory t;
  t.points = {P(100, 100, 0), P(9000, 500, 10), P(200, 200, 20)};
  traj::SanitizeConfig config;
  config.network_bounds = bounds;
  config.off_network_margin = 100.0;

  config.policy = traj::SanitizePolicy::kRepair;
  traj::SanitizeReport report;
  auto out = traj::Sanitize(t, config, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(report.off_network, 1);
  EXPECT_EQ(report.repaired, 1);
  ASSERT_EQ(out->size(), 3);
  EXPECT_DOUBLE_EQ((*out)[1].pos.x, 1100.0);  // Clamped to inflated bounds.

  config.policy = traj::SanitizePolicy::kDropPoint;
  out = traj::Sanitize(t, config, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(report.off_network, 1);
  EXPECT_EQ(report.dropped, 1);
  EXPECT_EQ(out->size(), 2);
}

// ---------------------------------------------------------------------------
// network::FaultyRouter — deterministic fault injection.
// ---------------------------------------------------------------------------

TEST(FaultyRouterTest, FaultDecisionsArePureFunctionsOfThePair) {
  const network::RoadNetwork net = network::GenerateGridNetwork(8, 8, 200.0);
  network::FaultConfig fc;
  fc.route_failure_rate = 0.3;
  fc.seed = 42;
  network::FaultyRouter a(&net, fc);
  network::FaultyRouter b(&net, fc);
  int faulted = 0;
  int checked = 0;
  for (network::SegmentId f = 0; f < net.num_segments(); f += 5) {
    for (network::SegmentId t = 1; t < net.num_segments(); t += 13) {
      EXPECT_EQ(a.IsFaulted(f, t), b.IsFaulted(f, t));
      faulted += a.IsFaulted(f, t) ? 1 : 0;
      ++checked;
    }
  }
  // The empirical failure rate tracks the configured one.
  const double rate = static_cast<double>(faulted) / checked;
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.45);
  // A faulted pair fails on every query, cached or not.
  for (network::SegmentId t = 1; t < net.num_segments(); ++t) {
    if (!a.IsFaulted(0, t)) continue;
    EXPECT_FALSE(a.Route1(0, t, 1.0e5).has_value());
    EXPECT_FALSE(a.Route1(0, t, 1.0e5).has_value());
    EXPECT_GE(a.injected_failures(), 2);
    break;
  }
}

TEST(FaultyRouterTest, ZeroRateIsByteTransparent) {
  const network::RoadNetwork net = network::GenerateGridNetwork(8, 8, 200.0);
  network::CachedRouter plain(&net);
  network::FaultyRouter faulty(&net, network::FaultConfig{});
  for (network::SegmentId f = 0; f < net.num_segments(); f += 17) {
    for (network::SegmentId t = 0; t < net.num_segments(); t += 11) {
      const auto want = plain.Route1(f, t, 3000.0);
      const auto got = faulty.Route1(f, t, 3000.0);
      ASSERT_EQ(want.has_value(), got.has_value()) << f << " -> " << t;
      if (want.has_value()) {
        EXPECT_EQ(want->segments, got->segments) << f << " -> " << t;
        EXPECT_DOUBLE_EQ(want->length, got->length) << f << " -> " << t;
      }
    }
  }
  EXPECT_EQ(faulty.injected_failures(), 0);
}

TEST(FaultyRouterTest, RouteManyInjectsExactlyTheFaultedTargets) {
  const network::RoadNetwork net = network::GenerateGridNetwork(8, 8, 200.0);
  network::FaultConfig fc;
  fc.route_failure_rate = 0.5;
  fc.seed = 9;
  network::CachedRouter plain(&net);
  network::FaultyRouter faulty(&net, fc);
  std::vector<network::SegmentId> targets;
  for (network::SegmentId t = 0; t < 40; ++t) targets.push_back(t);
  const auto want = plain.RouteMany(3, targets, 1.0e5);
  const auto got = faulty.RouteMany(3, targets, 1.0e5);
  ASSERT_EQ(got.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    if (faulty.IsFaulted(3, targets[i])) {
      EXPECT_FALSE(got[i].has_value()) << "target " << targets[i];
    } else {
      ASSERT_EQ(want[i].has_value(), got[i].has_value());
      if (want[i].has_value()) {
        EXPECT_EQ(want[i]->segments, got[i]->segments);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HMM-break recovery on a physically disconnected network: two road islands
// 10 km apart guarantee that no route between them exists, so every matcher
// family must split, restart, and stitch instead of failing the trajectory.
// ---------------------------------------------------------------------------

struct IslandHarness {
  static constexpr double kIslandOffset = 10000.0;

  network::RoadNetwork net;
  std::unique_ptr<network::GridIndex> index;
  std::unique_ptr<network::CachedRouter> cached;
  hmm::ClassicModelConfig models;
  std::unique_ptr<hmm::GaussianObservationModel> obs;
  std::unique_ptr<hmm::ClassicTransitionModel> trans;

  IslandHarness() {
    for (int island = 0; island < 2; ++island) {
      const double x0 = island * kIslandOffset;
      std::vector<network::NodeId> nodes;
      for (int i = 0; i < 5; ++i) {
        nodes.push_back(net.AddNode({x0 + i * 200.0, 0.0}));
      }
      for (int i = 0; i + 1 < 5; ++i) {
        net.AddTwoWay(nodes[i], nodes[i + 1], 13.9, network::RoadLevel::kLocal);
      }
    }
    index = std::make_unique<network::GridIndex>(&net, 150.0);
    cached = std::make_unique<network::CachedRouter>(&net);
    models.obs_sigma = 120.0;
    models.search_radius = 500.0;
    obs = std::make_unique<hmm::GaussianObservationModel>(index.get(), models);
    trans = std::make_unique<hmm::ClassicTransitionModel>(models, &net);
  }

  hmm::Engine MakeEngine(int k = 6) {
    hmm::EngineConfig config;
    config.k = k;
    return hmm::Engine(&net, cached.get(), obs.get(), trans.get(), config);
  }

  hmm::OnlineMatcher MakeOnline(int lag, int k = 6) {
    hmm::OnlineConfig config;
    config.k = k;
    config.lag = lag;
    return hmm::OnlineMatcher(&net, cached.get(), obs.get(), trans.get(), config);
  }

  /// 3 points along island A then 3 along island B; crossing is unroutable.
  static traj::Trajectory CrossIslands() {
    traj::Trajectory t;
    int i = 0;
    for (double x : {100.0, 300.0, 500.0}) {
      t.points.push_back(P(x, 10.0, 30.0 * i++));
    }
    for (double x : {100.0, 300.0, 500.0}) {
      t.points.push_back(P(kIslandOffset + x, 10.0, 30.0 * i++));
    }
    return t;
  }

  bool PathTouchesBothIslands(const std::vector<network::SegmentId>& path) const {
    bool a = false;
    bool b = false;
    for (network::SegmentId sid : path) {
      const double x = net.node(net.segment(sid).from).pos.x;
      (x < kIslandOffset / 2 ? a : b) = true;
    }
    return a && b;
  }
};

TEST(BreakRecoveryTest, EngineRestartsAcrossTheDisconnectedGap) {
  IslandHarness h;
  hmm::Engine engine = h.MakeEngine();
  const hmm::EngineResult r = engine.Match(IslandHarness::CrossIslands());
  ASSERT_EQ(r.num_breaks(), 1);
  EXPECT_EQ(r.breaks[0], 3);  // First point of island B.
  EXPECT_FALSE(r.path.empty());
  EXPECT_TRUE(h.PathTouchesBothIslands(r.path));
  // The gap spans t=60..90 of a 150 s trajectory.
  EXPECT_DOUBLE_EQ(r.gap_seconds, 30.0);
  EXPECT_NEAR(r.gap_coverage, 1.0 - 30.0 / 150.0, 1e-12);
}

TEST(BreakRecoveryTest, CleanTrajectoryReportsNoBreaks) {
  IslandHarness h;
  traj::Trajectory t;
  int i = 0;
  for (double x : {100.0, 300.0, 500.0, 700.0}) {
    t.points.push_back(P(x, 10.0, 30.0 * i++));
  }
  hmm::Engine engine = h.MakeEngine();
  const hmm::EngineResult r = engine.Match(t);
  EXPECT_EQ(r.num_breaks(), 0);
  EXPECT_DOUBLE_EQ(r.gap_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.gap_coverage, 1.0);
  EXPECT_FALSE(r.path.empty());
}

TEST(BreakRecoveryTest, StitchedPathEqualsTheIslandHalvesConcatenated) {
  IslandHarness h;
  hmm::Engine engine = h.MakeEngine();
  const traj::Trajectory full = IslandHarness::CrossIslands();
  traj::Trajectory a;
  a.points.assign(full.points.begin(), full.points.begin() + 3);
  traj::Trajectory b;
  b.points.assign(full.points.begin() + 3, full.points.end());

  const hmm::EngineResult rf = engine.Match(full);
  const hmm::EngineResult ra = engine.Match(a);
  const hmm::EngineResult rb = engine.Match(b);
  EXPECT_EQ(ra.num_breaks(), 0);
  EXPECT_EQ(rb.num_breaks(), 0);
  std::vector<network::SegmentId> expected = ra.path;
  expected.insert(expected.end(), rb.path.begin(), rb.path.end());
  EXPECT_EQ(rf.path, expected);
}

TEST(BreakRecoveryTest, OnlineMatcherStitchesAndCountsBreaks) {
  IslandHarness h;
  const traj::Trajectory t = IslandHarness::CrossIslands();
  hmm::OnlineMatcher online = h.MakeOnline(/*lag=*/16);
  for (int i = 0; i < t.size(); ++i) online.Push(t[i]);
  online.Finish();
  EXPECT_EQ(online.breaks(), 1);
  EXPECT_TRUE(h.PathTouchesBothIslands(online.committed()));
  // Full look-ahead still reproduces the offline stitched path exactly.
  hmm::Engine engine = h.MakeEngine();
  EXPECT_EQ(online.committed(), engine.Match(t).path);
  // Small lags must stitch too, without look-ahead to soften the gap.
  hmm::OnlineMatcher greedy = h.MakeOnline(/*lag=*/1);
  for (int i = 0; i < t.size(); ++i) greedy.Push(t[i]);
  greedy.Finish();
  EXPECT_GE(greedy.breaks(), 1);
  EXPECT_TRUE(h.PathTouchesBothIslands(greedy.committed()));
}

TEST(BreakRecoveryTest, StmAndIvmmSurviveTheGap) {
  IslandHarness h;
  const traj::Trajectory t = IslandHarness::CrossIslands();

  hmm::EngineConfig ec;
  ec.k = 6;
  matchers::StmMatcher stm(&h.net, h.index.get(), h.models, ec);
  const matchers::MatchResult rs = stm.Match(t);
  EXPECT_EQ(rs.num_breaks, 1);
  EXPECT_NEAR(rs.gap_coverage, 1.0 - 30.0 / 150.0, 1e-12);
  EXPECT_TRUE(h.PathTouchesBothIslands(rs.path));

  matchers::IvmmMatcher ivmm(&h.net, h.index.get(), h.models, 6);
  const matchers::MatchResult ri = ivmm.Match(t);
  EXPECT_EQ(ri.num_breaks, 1);
  EXPECT_NEAR(ri.gap_coverage, 1.0 - 30.0 / 150.0, 1e-12);
  EXPECT_TRUE(h.PathTouchesBothIslands(ri.path));
}

TEST(BreakRecoveryTest, LhmmReportsTheEngineBreaks) {
  IslandHarness h;
  // A tiny LHMM trained on the island network itself: eastbound drives along
  // each island, two towers per island alternating point by point.
  auto island_of = [&](network::NodeId n) {
    return h.net.node(n).pos.x < IslandHarness::kIslandOffset / 2 ? 0 : 1;
  };
  std::vector<traj::MatchedTrajectory> train;
  for (int island = 0; island < 2; ++island) {
    std::vector<network::SegmentId> east;  // West to east (added in order).
    for (network::SegmentId sid = 0; sid < h.net.num_segments(); ++sid) {
      const network::RoadSegment& seg = h.net.segment(sid);
      if (island_of(seg.from) == island &&
          h.net.node(seg.from).pos.x < h.net.node(seg.to).pos.x) {
        east.push_back(sid);
      }
    }
    for (int rep = 0; rep < 4; ++rep) {
      traj::MatchedTrajectory mt;
      mt.truth_path = east;
      for (int i = 0; i < 5; ++i) {
        const double x = island * IslandHarness::kIslandOffset + 50.0 + 175.0 * i;
        const double t = 30.0 * i;
        const auto tower = static_cast<traj::TowerId>(2 * island + (i + rep) % 2);
        mt.cellular.points.push_back(P(x + 20.0 * rep, 40.0, t, tower));
        mt.gps.points.push_back(P(x, 0.0, t));
      }
      train.push_back(std::move(mt));
    }
  }
  lhmm::LhmmConfig cfg;
  cfg.obs_steps = 2;
  cfg.trans_steps = 2;
  cfg.fusion_steps = 3;
  cfg.encoder.dim = 8;
  cfg.k = 6;
  lhmm::TrainInputs inputs;
  inputs.net = &h.net;
  inputs.index = h.index.get();
  inputs.num_towers = 4;
  inputs.train = &train;
  std::shared_ptr<lhmm::LhmmModel> model = lhmm::TrainLhmm(inputs, cfg);

  traj::Trajectory t = IslandHarness::CrossIslands();
  for (int i = 0; i < t.size(); ++i) {
    t.points[i].tower = static_cast<traj::TowerId>(2 * (i / 3) + i % 2);
  }
  lhmm::LhmmMatcher matcher(&h.net, h.index.get(), model);
  const matchers::MatchResult r = matcher.Match(t);
  const hmm::EngineResult er = matcher.engine()->Match(t);
  EXPECT_GE(er.num_breaks(), 1);
  EXPECT_EQ(r.num_breaks, er.num_breaks());
  EXPECT_EQ(r.gap_seconds, er.gap_seconds);
  EXPECT_EQ(r.gap_coverage, er.gap_coverage);
  EXPECT_LT(r.gap_coverage, 1.0);
  EXPECT_EQ(r.path, er.path);
  EXPECT_TRUE(h.PathTouchesBothIslands(r.path));
}

TEST(BreakRecoveryTest, StreamSessionStatsCarryTheBreakCount) {
  IslandHarness h;
  hmm::ClassicModelConfig models = h.models;
  hmm::EngineConfig ec;
  ec.k = 6;
  const network::RoadNetwork* net = &h.net;
  const network::GridIndex* index = h.index.get();
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 1;
  cfg.lag = 2;
  matchers::StreamEngine engine(
      [net, index, models, ec] {
        return std::make_unique<matchers::StmMatcher>(net, index, models, ec);
      },
      cfg);
  const matchers::SessionId id = engine.Open();
  const traj::Trajectory t = IslandHarness::CrossIslands();
  for (int i = 0; i < t.size(); ++i) EXPECT_TRUE(engine.Push(id, t[i]).ok());
  EXPECT_TRUE(engine.Finish(id).ok());
  engine.Barrier();
  EXPECT_GE(engine.Stats(id).breaks, 1);
  EXPECT_GE(engine.TotalStats().breaks, 1);
  EXPECT_TRUE(h.PathTouchesBothIslands(engine.Committed(id)));
}

// ---------------------------------------------------------------------------
// StreamEngine hardening: validation, eviction, backpressure, quarantine.
// ---------------------------------------------------------------------------

class StreamHardeningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new network::RoadNetwork(network::GenerateGridNetwork(8, 8, 200.0));
    index_ = new network::GridIndex(net_, 150.0);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete net_;
    index_ = nullptr;
    net_ = nullptr;
  }

  static matchers::MatcherFactory StmFactory() {
    const network::RoadNetwork* net = net_;
    const network::GridIndex* index = index_;
    hmm::ClassicModelConfig models;
    models.obs_sigma = 120.0;
    models.search_radius = 500.0;
    hmm::EngineConfig engine;
    engine.k = 8;
    return [net, index, models, engine] {
      return std::make_unique<matchers::StmMatcher>(net, index, models, engine);
    };
  }

  /// Walks left-to-right along grid row `row` (rows are 200 m apart).
  static traj::Trajectory Walk(int points, int row = 0, double t0 = 0.0) {
    traj::Trajectory t;
    for (int i = 0; i < points; ++i) {
      t.points.push_back(P(100.0 + i * 250.0, 10.0 + row * 200.0, t0 + i * 20.0));
    }
    return t;
  }

  static network::RoadNetwork* net_;
  static network::GridIndex* index_;
};

network::RoadNetwork* StreamHardeningTest::net_ = nullptr;
network::GridIndex* StreamHardeningTest::index_ = nullptr;

TEST_F(StreamHardeningTest, PushValidationRejectsMalformedPoints) {
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 1;
  cfg.lag = 2;
  matchers::StreamEngine engine(StmFactory(), cfg);
  const matchers::SessionId id = engine.Open();
  const traj::Trajectory t = Walk(5);
  EXPECT_TRUE(engine.Push(id, t[0]).ok());
  EXPECT_TRUE(engine.Push(id, t[1]).ok());

  const core::Status nan = engine.Push(id, P(kNaN, 10.0, 100.0));
  EXPECT_EQ(nan.code(), core::StatusCode::kInvalidArgument);
  const core::Status backwards = engine.Push(id, P(600.0, 10.0, t[1].t - 5.0));
  EXPECT_EQ(backwards.code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.rejected_pushes(), 2);

  for (int i = 2; i < t.size(); ++i) EXPECT_TRUE(engine.Push(id, t[i]).ok());
  EXPECT_TRUE(engine.Finish(id).ok());
  engine.Barrier();
  EXPECT_TRUE(engine.finished(id));
  EXPECT_EQ(engine.state(id), matchers::SessionState::kFinished);
  EXPECT_EQ(engine.Stats(id).points_pushed, t.size());
  EXPECT_FALSE(engine.Committed(id).empty());

  // Closed sessions refuse further traffic instead of crashing.
  EXPECT_EQ(engine.Finish(id).code(), core::StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Push(id, t[0]).code(),
            core::StatusCode::kFailedPrecondition);
}

TEST_F(StreamHardeningTest, LiveSessionCapEvictsLeastRecentlyActive) {
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 1;
  cfg.lag = 1;
  cfg.max_live_sessions = 2;
  matchers::StreamEngine engine(StmFactory(), cfg);
  const matchers::SessionId s0 = engine.Open();
  const matchers::SessionId s1 = engine.Open();
  EXPECT_EQ(engine.live_sessions(), 2);

  // All activity stamps tie at clock 0; the id order breaks the tie, so s0
  // is the victim — deterministically.
  const matchers::SessionId s2 = engine.Open();
  EXPECT_EQ(engine.live_sessions(), 2);
  EXPECT_EQ(engine.evicted_sessions(), 1);
  EXPECT_EQ(engine.state(s0), matchers::SessionState::kEvicted);
  EXPECT_EQ(engine.Push(s0, P(100, 10, 0)).code(),
            core::StatusCode::kFailedPrecondition);

  // A Push refreshes last_activity, so the idle session loses instead.
  engine.AdvanceClock(5);
  EXPECT_TRUE(engine.Push(s1, P(100, 10, 0)).ok());
  const matchers::SessionId s3 = engine.Open();
  EXPECT_EQ(engine.state(s2), matchers::SessionState::kEvicted);
  EXPECT_EQ(engine.state(s1), matchers::SessionState::kLive);
  EXPECT_EQ(engine.evicted_sessions(), 2);
  EXPECT_TRUE(engine.Finish(s1).ok());
  EXPECT_TRUE(engine.Finish(s3).ok());
}

TEST_F(StreamHardeningTest, IdleTtlEvictionFollowsTheLogicalClock) {
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 1;
  cfg.lag = 1;
  cfg.session_ttl = 10;
  matchers::StreamEngine engine(StmFactory(), cfg);
  const matchers::SessionId s0 = engine.Open();  // Active at clock 0.
  engine.AdvanceClock(9);
  EXPECT_EQ(engine.state(s0), matchers::SessionState::kLive);
  const matchers::SessionId s1 = engine.Open();  // Active at clock 9.
  engine.AdvanceClock(10);                       // s0 idle 10 >= ttl.
  EXPECT_EQ(engine.state(s0), matchers::SessionState::kEvicted);
  EXPECT_EQ(engine.state(s1), matchers::SessionState::kLive);
  EXPECT_EQ(engine.evicted_sessions(), 1);
  EXPECT_EQ(engine.clock(), 10);
  // The clock never moves backwards.
  engine.AdvanceClock(4);
  EXPECT_EQ(engine.clock(), 10);
  EXPECT_TRUE(engine.Finish(s1).ok());
}

TEST_F(StreamHardeningTest, EvictionSequenceIsDeterministicAcrossThreadCounts) {
  struct Outcome {
    std::vector<matchers::SessionState> states;
    std::vector<std::vector<network::SegmentId>> committed;
    std::vector<int64_t> pushed;
    int64_t evicted = 0;
    int64_t rejected = 0;
  };
  // A scripted producer: opens outrun the cap, pushes refresh some sessions,
  // the clock ticks TTL over others, and pushes to evicted sessions bounce.
  // Everything that decides an eviction lives on the producer side, so the
  // whole outcome must be identical for 1 worker and 8.
  const auto run = [](int threads) {
    matchers::StreamEngineConfig cfg;
    cfg.num_threads = threads;
    cfg.lag = 2;
    cfg.max_live_sessions = 3;
    cfg.session_ttl = 20;
    matchers::StreamEngine engine(StreamHardeningTest::StmFactory(), cfg);
    std::vector<matchers::SessionId> ids;
    std::vector<traj::Trajectory> trajs;
    Outcome out;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(engine.Open());
      trajs.push_back(Walk(8, i % 7));
      for (int p = 0; p < 3; ++p) {
        engine.Push(ids[i], trajs[i][p]);
      }
      engine.AdvanceClock(i * 7);
    }
    for (int i = 0; i < 6; ++i) {
      for (int p = 3; p < trajs[i].size(); ++p) {
        if (!engine.Push(ids[i], trajs[i][p]).ok()) ++out.rejected;
      }
      if (i % 2 == 0) engine.Finish(ids[i]);
    }
    engine.AdvanceClock(100);  // TTL-evict whatever is still live.
    engine.Barrier();
    for (int i = 0; i < 6; ++i) {
      out.states.push_back(engine.state(ids[i]));
      out.committed.push_back(engine.Committed(ids[i]));
      out.pushed.push_back(engine.Stats(ids[i]).points_pushed);
    }
    out.evicted = engine.evicted_sessions();
    return out;
  };

  const Outcome serial = run(1);
  EXPECT_GT(serial.evicted, 0);  // The script actually forces evictions.
  const Outcome parallel = run(8);
  EXPECT_EQ(parallel.states, serial.states);
  EXPECT_EQ(parallel.committed, serial.committed);
  EXPECT_EQ(parallel.pushed, serial.pushed);
  EXPECT_EQ(parallel.evicted, serial.evicted);
  EXPECT_EQ(parallel.rejected, serial.rejected);
}

// A StreamingSession that blocks inside Push until released, so tests can
// deterministically fill a session's inbox while its pump is busy.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;

  void Enter() {
    {
      std::lock_guard<std::mutex> lock(mu);
      entered = true;
    }
    cv.notify_all();
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

class GateSession : public matchers::StreamingSession {
 public:
  explicit GateSession(Gate* gate) : gate_(gate) {}
  std::vector<network::SegmentId> Push(const traj::TrajPoint& point) override {
    gate_->Enter();
    gate_->WaitOpen();
    committed_.push_back(static_cast<network::SegmentId>(point.tower));
    ++stats_.points_pushed;
    ++stats_.points_committed;
    return {committed_.back()};
  }
  std::vector<network::SegmentId> Finish() override { return {}; }
  void Reset() override {
    committed_.clear();
    stats_ = {};
  }
  const std::vector<network::SegmentId>& committed() const override {
    return committed_;
  }
  matchers::SessionStats stats() const override { return stats_; }

 private:
  Gate* gate_;
  std::vector<network::SegmentId> committed_;
  matchers::SessionStats stats_;
};

class GateMatcher : public matchers::MapMatcher {
 public:
  explicit GateMatcher(Gate* gate) : gate_(gate) {}
  std::string name() const override { return "gate"; }
  matchers::MatchResult Match(const traj::Trajectory&) override { return {}; }
  bool SupportsStreaming() const override { return true; }
  std::unique_ptr<matchers::StreamingSession> OpenSession(
      const matchers::StreamConfig&) override {
    return std::make_unique<GateSession>(gate_);
  }

 private:
  Gate* gate_;
};

TEST(StreamBackpressureTest, DropOldestBoundsTheInboxAndKeepsTheSentinel) {
  Gate gate;
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 2;
  cfg.max_inbox = 3;
  cfg.backpressure = matchers::BackpressurePolicy::kDropOldest;
  matchers::StreamEngine engine(
      [&gate] { return std::make_unique<GateMatcher>(&gate); }, cfg);
  const matchers::SessionId id = engine.Open();
  // Point 0 is swapped out of the inbox by the pump, which then blocks on the
  // gate; every later push queues behind it.
  ASSERT_TRUE(engine.Push(id, P(0, 0, 0, 0)).ok());
  gate.WaitEntered();
  for (int k = 1; k <= 10; ++k) {
    EXPECT_TRUE(engine.Push(id, P(0, 0, k, k)).ok()) << "push " << k;
  }
  // Capacity 3: pushes 1..3 fill the inbox, 4..10 each displace the oldest.
  EXPECT_EQ(engine.dropped_points(), 7);
  EXPECT_EQ(engine.rejected_pushes(), 0);
  // The end-of-stream sentinel is exempt from the bound — never dropped.
  EXPECT_TRUE(engine.Finish(id).ok());
  EXPECT_EQ(engine.dropped_points(), 7);
  gate.Release();
  engine.Barrier();
  EXPECT_TRUE(engine.finished(id));
  const std::vector<network::SegmentId> want = {0, 8, 9, 10};
  EXPECT_EQ(engine.Committed(id), want);
  EXPECT_EQ(engine.Stats(id).points_pushed, 4);
}

TEST(StreamBackpressureTest, RejectPolicyRefusesPushesOnAFullInbox) {
  Gate gate;
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 2;
  cfg.max_inbox = 3;
  cfg.backpressure = matchers::BackpressurePolicy::kReject;
  matchers::StreamEngine engine(
      [&gate] { return std::make_unique<GateMatcher>(&gate); }, cfg);
  const matchers::SessionId id = engine.Open();
  ASSERT_TRUE(engine.Push(id, P(0, 0, 0, 0)).ok());
  gate.WaitEntered();
  for (int k = 1; k <= 3; ++k) {
    EXPECT_TRUE(engine.Push(id, P(0, 0, k, k)).ok()) << "push " << k;
  }
  for (int k = 4; k <= 6; ++k) {
    const core::Status full = engine.Push(id, P(0, 0, k, k));
    // kUnavailable is the typed "retry with backoff" answer clients key on.
    EXPECT_EQ(full.code(), core::StatusCode::kUnavailable);
    EXPECT_NE(full.message().find("inbox full"), std::string::npos);
  }
  EXPECT_EQ(engine.rejected_pushes(), 3);
  EXPECT_EQ(engine.dropped_points(), 0);
  EXPECT_TRUE(engine.Finish(id).ok());  // Sentinel bypasses the bound.
  gate.Release();
  engine.Barrier();
  const std::vector<network::SegmentId> want = {0, 1, 2, 3};
  EXPECT_EQ(engine.Committed(id), want);
}

// A session that throws on a marked point: the quarantine trigger.
class ThrowingSession : public matchers::StreamingSession {
 public:
  std::vector<network::SegmentId> Push(const traj::TrajPoint& point) override {
    if (point.tower == 666) throw std::runtime_error("poison pill");
    committed_.push_back(static_cast<network::SegmentId>(point.tower));
    ++stats_.points_pushed;
    ++stats_.points_committed;
    return {committed_.back()};
  }
  std::vector<network::SegmentId> Finish() override { return {}; }
  void Reset() override {
    committed_.clear();
    stats_ = {};
  }
  const std::vector<network::SegmentId>& committed() const override {
    return committed_;
  }
  matchers::SessionStats stats() const override { return stats_; }

 private:
  std::vector<network::SegmentId> committed_;
  matchers::SessionStats stats_;
};

class ThrowingMatcher : public matchers::MapMatcher {
 public:
  std::string name() const override { return "throwing"; }
  matchers::MatchResult Match(const traj::Trajectory&) override { return {}; }
  bool SupportsStreaming() const override { return true; }
  std::unique_ptr<matchers::StreamingSession> OpenSession(
      const matchers::StreamConfig&) override {
    return std::make_unique<ThrowingSession>();
  }
};

TEST(StreamQuarantineTest, PoisonedSessionReportsItsErrorAndStaysContained) {
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 1;  // Inline mode: the catch sits in Enqueue.
  matchers::StreamEngine engine(
      [] { return std::make_unique<ThrowingMatcher>(); }, cfg);
  const matchers::SessionId a = engine.Open();
  const matchers::SessionId b = engine.Open();
  EXPECT_TRUE(engine.Push(a, P(0, 0, 0, 1)).ok());
  EXPECT_TRUE(engine.Push(a, P(0, 0, 1, 666)).ok());  // Enqueued, then throws.
  EXPECT_EQ(engine.state(a), matchers::SessionState::kPoisoned);
  EXPECT_FALSE(engine.finished(a));
  const core::Status err = engine.SessionError(a);
  EXPECT_EQ(err.code(), core::StatusCode::kInternal);
  EXPECT_NE(err.message().find("session poisoned"), std::string::npos);
  EXPECT_NE(err.message().find("poison pill"), std::string::npos);
  // Later pushes bounce with the stored error instead of reaching the pump.
  EXPECT_EQ(engine.Push(a, P(0, 0, 2, 2)).code(), core::StatusCode::kInternal);

  // The sibling session is untouched by the quarantine.
  EXPECT_TRUE(engine.Push(b, P(0, 0, 0, 7)).ok());
  EXPECT_TRUE(engine.Push(b, P(0, 0, 1, 8)).ok());
  EXPECT_TRUE(engine.Finish(b).ok());
  const std::vector<network::SegmentId> want = {7, 8};
  EXPECT_EQ(engine.Committed(b), want);
  EXPECT_EQ(engine.state(b), matchers::SessionState::kFinished);
}

TEST(StreamQuarantineTest, PoisonNeverCrashesThePoolOrItsNeighbors) {
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 4;
  matchers::StreamEngine engine(
      [] { return std::make_unique<ThrowingMatcher>(); }, cfg);
  const int n = 20;
  std::vector<matchers::SessionId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(engine.Open());
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < 5; ++p) {
      const bool poison = (i % 5 == 2) && p == 2;
      engine.Push(ids[i], P(0, 0, p, poison ? 666 : 10 * i + p));
    }
    engine.Finish(ids[i]);
  }
  engine.Barrier();
  for (int i = 0; i < n; ++i) {
    if (i % 5 == 2) {
      EXPECT_EQ(engine.state(ids[i]), matchers::SessionState::kPoisoned);
      EXPECT_FALSE(engine.finished(ids[i]));
      EXPECT_EQ(engine.SessionError(ids[i]).code(),
                core::StatusCode::kInternal);
    } else {
      EXPECT_EQ(engine.state(ids[i]), matchers::SessionState::kFinished);
      const std::vector<network::SegmentId> want = {
          10 * i + 0, 10 * i + 1, 10 * i + 2, 10 * i + 3, 10 * i + 4};
      EXPECT_EQ(engine.Committed(ids[i]), want);
    }
  }
}

TEST_F(StreamHardeningTest, SoakThousandSessionsWithEvictionChurn) {
  network::CachedRouter shared(net_);
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 8;
  cfg.lag = 2;
  cfg.shared_router = &shared;
  cfg.max_live_sessions = 64;
  cfg.session_ttl = 50;
  cfg.max_inbox = 16;
  cfg.backpressure = matchers::BackpressurePolicy::kDropOldest;
  matchers::StreamEngine engine(StmFactory(), cfg);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const matchers::SessionId id = engine.Open();
    const traj::Trajectory t = Walk(6, i % 7);
    for (int p = 0; p < t.size(); ++p) engine.Push(id, t[p]);
    // Every 7th session is abandoned mid-stream; the cap and the TTL must
    // reap them without disturbing the rest.
    if (i % 7 != 3) engine.Finish(id);
    if (i % 10 == 0) engine.AdvanceClock(i / 10);
  }
  engine.Barrier();
  ASSERT_EQ(engine.num_sessions(), n);
  EXPECT_LE(engine.live_sessions(), 64);
  int finished = 0;
  int evicted = 0;
  int live = 0;
  for (matchers::SessionId id = 0; id < n; ++id) {
    switch (engine.state(id)) {
      case matchers::SessionState::kFinished:
        ++finished;
        EXPECT_FALSE(engine.Committed(id).empty()) << "session " << id;
        break;
      case matchers::SessionState::kEvicted:
        ++evicted;
        break;
      case matchers::SessionState::kLive:
        ++live;
        break;
      case matchers::SessionState::kExpired:
        ADD_FAILURE() << "session " << id << " expired without a deadline";
        break;
      case matchers::SessionState::kPoisoned:
        ADD_FAILURE() << "session " << id << " poisoned: "
                      << engine.SessionError(id).message();
        break;
    }
  }
  EXPECT_EQ(finished + evicted + live, n);
  EXPECT_EQ(finished, n - n / 7 - 1);  // Every i % 7 == 3 session was reaped.
  EXPECT_EQ(evicted, engine.evicted_sessions());
  EXPECT_GT(evicted, 0);
  EXPECT_EQ(live, engine.live_sessions());
  EXPECT_GT(engine.TotalStats().points_pushed, 0);
}

// ---------------------------------------------------------------------------
// End to end: corrupted input + sanitize + 10% route faults through
// STM / IVMM / LHMM, byte-identical across thread counts.
// ---------------------------------------------------------------------------

class FaultedPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetConfig cfg = sim::XiamenSPreset();
    cfg.num_train = 25;
    cfg.num_val = 3;
    cfg.num_test = 8;
    ds_ = new sim::Dataset(sim::BuildDataset(cfg));
    index_ = new network::GridIndex(&ds_->network, 300.0);
    lhmm::LhmmConfig lhmm_cfg;
    lhmm_cfg.obs_steps = 2;
    lhmm_cfg.trans_steps = 2;
    lhmm_cfg.fusion_steps = 5;
    lhmm_cfg.encoder.dim = 24;
    lhmm::TrainInputs inputs;
    inputs.net = &ds_->network;
    inputs.index = index_;
    inputs.num_towers = static_cast<int>(ds_->towers.size());
    inputs.train = &ds_->train;
    model_ = new std::shared_ptr<lhmm::LhmmModel>(TrainLhmm(inputs, lhmm_cfg));

    // Corrupt every test feed, then run it through the serving-side repair
    // pipeline: Sanitize(kRepair) followed by the standard preprocessing.
    traj::SanitizeConfig sanitize;
    sanitize.policy = traj::SanitizePolicy::kRepair;
    sanitize.num_towers = static_cast<int>(ds_->towers.size());
    sanitize.network_bounds = ds_->network.Bounds();
    traj::FilterConfig filters;
    cleaned_ = new std::vector<traj::Trajectory>();
    total_injected_ = 0;
    total_issues_ = 0;
    for (size_t i = 0; i < ds_->test.size(); ++i) {
      sim::CorruptionSummary injected;
      const traj::Trajectory bad = sim::CorruptTrajectory(
          ds_->test[i].cellular, sim::UniformCorruption(0.05, 100 + i),
          &injected);
      total_injected_ += injected.total();
      traj::SanitizeReport report;
      const auto clean = traj::Sanitize(bad, sanitize, &report);
      ASSERT_TRUE(clean.ok()) << clean.status().message();
      total_issues_ += report.issues();
      cleaned_->push_back(eval::Preprocess(*clean, filters));
    }
  }
  static void TearDownTestSuite() {
    delete cleaned_;
    delete model_;
    delete index_;
    delete ds_;
    cleaned_ = nullptr;
    model_ = nullptr;
    index_ = nullptr;
    ds_ = nullptr;
  }

  static matchers::MatcherFactory StmFactory() {
    const network::RoadNetwork* net = &ds_->network;
    const network::GridIndex* index = index_;
    hmm::ClassicModelConfig models;
    hmm::EngineConfig engine;
    engine.k = 12;
    return [=] {
      return std::make_unique<matchers::StmMatcher>(net, index, models, engine);
    };
  }

  static matchers::MatcherFactory IvmmFactory() {
    const network::RoadNetwork* net = &ds_->network;
    const network::GridIndex* index = index_;
    hmm::ClassicModelConfig models;
    return [=] {
      return std::make_unique<matchers::IvmmMatcher>(net, index, models, 10);
    };
  }

  static matchers::MatcherFactory LhmmFactory() {
    const network::RoadNetwork* net = &ds_->network;
    const network::GridIndex* index = index_;
    std::shared_ptr<lhmm::LhmmModel> model = *model_;
    return [=] { return std::make_unique<lhmm::LhmmMatcher>(net, index, model); };
  }

  /// One batch run of the whole corrupted-and-repaired test set against a
  /// fresh 10%-faulted router.
  static std::vector<matchers::MatchResult> RunFaulted(
      const matchers::MatcherFactory& factory, int threads,
      int64_t* injected_failures = nullptr) {
    network::FaultConfig fc;
    fc.route_failure_rate = 0.10;
    fc.seed = 7;
    network::FaultyRouter faulty(&ds_->network, fc);
    matchers::BatchConfig bc;
    bc.num_threads = threads;
    bc.shared_router = &faulty;
    matchers::BatchMatcher batch(factory, bc);
    std::vector<matchers::MatchResult> results = batch.MatchAll(*cleaned_);
    if (injected_failures != nullptr) {
      *injected_failures = faulty.injected_failures();
    }
    return results;
  }

  /// The acceptance contract: every trajectory still yields a non-empty
  /// (possibly stitched) path under faults, and results — paths, break
  /// counts, gap coverage — are byte-identical for 1 and 8 threads.
  static void ExpectFaultedMatchIsThreadInvariant(
      const matchers::MatcherFactory& factory) {
    int64_t injected = 0;
    const std::vector<matchers::MatchResult> serial =
        RunFaulted(factory, 1, &injected);
    EXPECT_GT(injected, 0);  // The fault injector actually fired.
    const std::vector<matchers::MatchResult> parallel = RunFaulted(factory, 8);
    ASSERT_EQ(serial.size(), cleaned_->size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_FALSE(serial[i].path.empty()) << "trajectory " << i;
      EXPECT_EQ(parallel[i].path, serial[i].path) << "trajectory " << i;
      EXPECT_EQ(parallel[i].num_breaks, serial[i].num_breaks)
          << "trajectory " << i;
      EXPECT_DOUBLE_EQ(parallel[i].gap_coverage, serial[i].gap_coverage)
          << "trajectory " << i;
      EXPECT_GE(serial[i].num_breaks, 0);
      EXPECT_GE(serial[i].gap_coverage, 0.0);
      EXPECT_LE(serial[i].gap_coverage, 1.0);
    }
  }

  static sim::Dataset* ds_;
  static network::GridIndex* index_;
  static std::shared_ptr<lhmm::LhmmModel>* model_;
  static std::vector<traj::Trajectory>* cleaned_;
  static int total_injected_;
  static int total_issues_;
};

sim::Dataset* FaultedPipelineTest::ds_ = nullptr;
network::GridIndex* FaultedPipelineTest::index_ = nullptr;
std::shared_ptr<lhmm::LhmmModel>* FaultedPipelineTest::model_ = nullptr;
std::vector<traj::Trajectory>* FaultedPipelineTest::cleaned_ = nullptr;
int FaultedPipelineTest::total_injected_ = 0;
int FaultedPipelineTest::total_issues_ = 0;

TEST_F(FaultedPipelineTest, CorruptionWasInjectedAndRepaired) {
  EXPECT_GT(total_injected_, 0);
  EXPECT_GT(total_issues_, 0);
  // Whatever the corruptor did, the repaired feeds are structurally sound.
  for (const traj::Trajectory& t : *cleaned_) {
    for (int i = 0; i < t.size(); ++i) {
      EXPECT_TRUE(std::isfinite(t[i].pos.x) && std::isfinite(t[i].pos.y) &&
                  std::isfinite(t[i].t));
      if (i > 0) {
        EXPECT_GT(t[i].t, t[i - 1].t);
      }
    }
  }
}

TEST_F(FaultedPipelineTest, StmSurvivesFaultsThreadInvariant) {
  ExpectFaultedMatchIsThreadInvariant(StmFactory());
}

TEST_F(FaultedPipelineTest, IvmmSurvivesFaultsThreadInvariant) {
  ExpectFaultedMatchIsThreadInvariant(IvmmFactory());
}

TEST_F(FaultedPipelineTest, LhmmSurvivesFaultsThreadInvariant) {
  ExpectFaultedMatchIsThreadInvariant(LhmmFactory());
}

TEST_F(FaultedPipelineTest, StreamingConvergesToOfflineUnderFaults) {
  network::FaultConfig fc;
  fc.route_failure_rate = 0.10;
  fc.seed = 7;
  network::FaultyRouter faulty(&ds_->network, fc);
  const std::unique_ptr<matchers::MapMatcher> matcher = StmFactory()();
  matcher->UseSharedRouter(&faulty);
  int max_len = 0;
  for (const traj::Trajectory& t : *cleaned_) max_len = std::max(max_len, t.size());
  matchers::StreamConfig sc;
  sc.lag = max_len + 4;
  const std::unique_ptr<matchers::StreamingSession> session =
      matcher->OpenSession(sc);
  ASSERT_NE(session, nullptr);
  auto* online = dynamic_cast<matchers::OnlineSession*>(session.get());
  ASSERT_NE(online, nullptr);
  for (size_t i = 0; i < cleaned_->size(); ++i) {
    const traj::Trajectory& t = (*cleaned_)[i];
    const std::vector<network::SegmentId> offline = online->MatchOffline(t).path;
    session->Reset();
    for (int p = 0; p < t.size(); ++p) session->Push(t[p]);
    session->Finish();
    EXPECT_EQ(session->committed(), offline) << "trajectory " << i;
    EXPECT_FALSE(session->committed().empty()) << "trajectory " << i;
  }
  EXPECT_GT(faulty.injected_failures(), 0);
}

}  // namespace
}  // namespace lhmm
