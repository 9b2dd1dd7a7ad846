// Tests for the streaming session stack: hmm::OnlineMatcher edge cases, the
// StreamingSession interface of every matcher family, and StreamEngine's
// central contract — per-session FIFO processing with committed outputs that
// are byte-identical for every thread count and every cross-session
// point-arrival interleaving.

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "hmm/classic_models.h"
#include "hmm/engine.h"
#include "hmm/online.h"
#include "lhmm/lhmm_matcher.h"
#include "lhmm/trainer.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "matchers/stream_engine.h"
#include "matchers/streaming.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "network/shortest_path.h"
#include "sim/dataset.h"
#include "traj/filters.h"

namespace lhmm {
namespace {

// ---------------------------------------------------------------------------
// OnlineMatcher edge cases on a small grid (mirrors tests/hmm_test.cc).
// ---------------------------------------------------------------------------

struct GridHarness {
  network::RoadNetwork net;
  std::unique_ptr<network::GridIndex> index;
  std::unique_ptr<network::SegmentRouter> router;
  std::unique_ptr<network::CachedRouter> cached;
  hmm::ClassicModelConfig models;
  std::unique_ptr<hmm::GaussianObservationModel> obs;
  std::unique_ptr<hmm::ClassicTransitionModel> trans;

  GridHarness() {
    net = network::GenerateGridNetwork(8, 8, 200.0);
    index = std::make_unique<network::GridIndex>(&net, 150.0);
    router = std::make_unique<network::SegmentRouter>(&net);
    cached = std::make_unique<network::CachedRouter>(router.get());
    models.obs_sigma = 120.0;
    models.search_radius = 500.0;
    obs = std::make_unique<hmm::GaussianObservationModel>(index.get(), models);
    trans = std::make_unique<hmm::ClassicTransitionModel>(models, &net);
  }

  hmm::OnlineMatcher MakeOnline(int lag, int k = 8) {
    hmm::OnlineConfig config;
    config.k = k;
    config.lag = lag;
    return hmm::OnlineMatcher(&net, cached.get(), obs.get(), trans.get(), config);
  }

  hmm::Engine MakeOffline(int k = 8) {
    hmm::EngineConfig config;
    config.k = k;
    return hmm::Engine(&net, cached.get(), obs.get(), trans.get(), config);
  }
};

/// Walks along the bottom row of the grid (y=0) left to right.
traj::Trajectory BottomRow(int points, double spacing = 250.0, double dt = 20.0) {
  traj::Trajectory t;
  for (int i = 0; i < points; ++i) {
    t.points.push_back({{100.0 + i * spacing, 10.0}, i * dt, i});
  }
  return t;
}

TEST(OnlineMatcherEdgeTest, FinishOnEmptyStream) {
  GridHarness h;
  hmm::OnlineMatcher m = h.MakeOnline(/*lag=*/4);
  EXPECT_TRUE(m.Finish().empty());
  EXPECT_TRUE(m.committed().empty());
  EXPECT_EQ(m.pushed_points(), 0);
  EXPECT_EQ(m.consumed_points(), 0);
  // Finish is idempotent on a drained stream.
  EXPECT_TRUE(m.Finish().empty());
}

TEST(OnlineMatcherEdgeTest, FinishOnSinglePointStream) {
  GridHarness h;
  hmm::OnlineMatcher m = h.MakeOnline(/*lag=*/4);
  const traj::Trajectory t = BottomRow(1);
  EXPECT_TRUE(m.Push(t[0]).empty());  // Window below lag: nothing commits.
  EXPECT_EQ(m.pending_points(), 1);
  const std::vector<network::SegmentId> out = m.Finish();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(m.committed(), out);
  EXPECT_EQ(m.pushed_points(), 1);
  EXPECT_EQ(m.consumed_points(), 1);
  EXPECT_EQ(m.pending_points(), 0);
}

TEST(OnlineMatcherEdgeTest, ResetReuseEqualsFreshMatcher) {
  GridHarness h;
  const traj::Trajectory a = BottomRow(6, 250.0, 20.0);
  const traj::Trajectory b = BottomRow(9, 180.0, 15.0);

  hmm::OnlineMatcher reused = h.MakeOnline(/*lag=*/2);
  for (int i = 0; i < a.size(); ++i) reused.Push(a[i]);
  reused.Finish();
  ASSERT_FALSE(reused.committed().empty());
  reused.Reset();
  EXPECT_TRUE(reused.committed().empty());
  EXPECT_EQ(reused.pushed_points(), 0);
  EXPECT_EQ(reused.consumed_points(), 0);
  for (int i = 0; i < b.size(); ++i) reused.Push(b[i]);
  reused.Finish();

  hmm::OnlineMatcher fresh = h.MakeOnline(/*lag=*/2);
  for (int i = 0; i < b.size(); ++i) fresh.Push(b[i]);
  fresh.Finish();

  EXPECT_EQ(reused.committed(), fresh.committed());
  EXPECT_EQ(reused.pushed_points(), fresh.pushed_points());
  EXPECT_EQ(reused.consumed_points(), fresh.consumed_points());
}

// Regression for the Finish() double-pop: when an Advance consumed a point
// but emitted no new segments (unmatchable point, or a duplicate-segment
// match), the old loop popped a second, never-processed point. Every pushed
// point must be consumed exactly once.
TEST(OnlineMatcherEdgeTest, UnmatchablePointsAreConsumedNotDropped) {
  GridHarness h;
  traj::Trajectory t = BottomRow(5);
  t.points[2].pos = {5.0e5, 5.0e5};  // Far outside every search radius.
  for (int lag : {0, 1, 4, 16}) {
    hmm::OnlineMatcher m = h.MakeOnline(lag);
    for (int i = 0; i < t.size(); ++i) m.Push(t[i]);
    m.Finish();
    EXPECT_EQ(m.pushed_points(), t.size()) << "lag " << lag;
    EXPECT_EQ(m.consumed_points(), t.size()) << "lag " << lag;
    EXPECT_EQ(m.pending_points(), 0) << "lag " << lag;
    EXPECT_FALSE(m.committed().empty()) << "lag " << lag;
  }
  // With the whole trajectory in the window, the streamed path equals the
  // offline engine's, which drops the same unmatchable point.
  hmm::OnlineMatcher m = h.MakeOnline(/*lag=*/16);
  for (int i = 0; i < t.size(); ++i) m.Push(t[i]);
  m.Finish();
  hmm::Engine offline = h.MakeOffline();
  EXPECT_EQ(m.committed(), offline.Match(t).path);
}

TEST(OnlineMatcherEdgeTest, AllPointsUnmatchableTerminates) {
  GridHarness h;
  traj::Trajectory t = BottomRow(4);
  for (int i = 0; i < t.size(); ++i) t.points[i].pos = {9.0e5, 9.0e5 + i};
  hmm::OnlineMatcher m = h.MakeOnline(/*lag=*/1);
  for (int i = 0; i < t.size(); ++i) EXPECT_TRUE(m.Push(t[i]).empty());
  EXPECT_TRUE(m.Finish().empty());
  EXPECT_TRUE(m.committed().empty());
  EXPECT_EQ(m.consumed_points(), t.size());
}

TEST(OnlineMatcherEdgeTest, LagZeroCommitsEveryPush) {
  GridHarness h;
  hmm::OnlineMatcher m = h.MakeOnline(/*lag=*/0);
  const traj::Trajectory t = BottomRow(6);
  for (int i = 0; i < t.size(); ++i) {
    m.Push(t[i]);
    EXPECT_EQ(m.pending_points(), 0) << "point " << i;
    EXPECT_EQ(m.consumed_points(), i + 1) << "point " << i;
  }
  EXPECT_TRUE(m.Finish().empty());
  EXPECT_FALSE(m.committed().empty());
}

TEST(OnlineSessionTest, LatencyAccountingIsExact) {
  GridHarness h;
  hmm::OnlineConfig config;
  config.k = 8;
  config.lag = 2;
  matchers::OnlineSession session(&h.net, h.cached.get(), h.obs.get(),
                                  h.trans.get(), config);
  const traj::Trajectory t = BottomRow(6);
  for (int i = 0; i < t.size(); ++i) session.Push(t[i]);
  session.Finish();
  const matchers::SessionStats stats = session.stats();
  EXPECT_EQ(stats.points_pushed, 6);
  EXPECT_EQ(stats.points_committed, 6);
  // Points 0..3 each waited the full lag (2); the Finish() flush commits
  // points 4 and 5 with latencies 1 and 0.
  EXPECT_EQ(stats.latency_points_sum, 2 * 4 + 1 + 0);
  EXPECT_DOUBLE_EQ(stats.MeanCommitLatency(), 9.0 / 6.0);

  session.Reset();
  EXPECT_EQ(session.stats().points_pushed, 0);
  EXPECT_EQ(session.stats().latency_points_sum, 0);
}

// Stats() and TotalStats() are polled while pool threads are still running
// the same sessions' pushes. Under ThreadSanitizer this is the race check:
// the poll must read a published copy, never the live session's counters.
TEST(StreamEngineStatsTest, StatsArePollableWhilePushesAreInFlight) {
  GridHarness h;
  const network::RoadNetwork* net = &h.net;
  const network::GridIndex* index = h.index.get();
  const hmm::ClassicModelConfig models = h.models;
  hmm::EngineConfig ec;
  ec.k = 8;
  matchers::StreamEngineConfig cfg;
  cfg.num_threads = 4;
  cfg.lag = 2;
  cfg.shared_router = h.cached.get();
  matchers::StreamEngine engine(
      [=] { return std::make_unique<matchers::StmMatcher>(net, index, models, ec); },
      cfg);
  // Back and forth along the bottom row, so the pumps stay busy for a while.
  traj::Trajectory t;
  for (int i = 0; i < 36; ++i) {
    const int col = (i / 6) % 2 == 0 ? i % 6 : 5 - i % 6;
    t.points.push_back({{100.0 + 250.0 * col, 10.0}, 20.0 * i, col});
  }
  const int kSessions = 4;
  std::vector<matchers::SessionId> ids;
  for (int i = 0; i < kSessions; ++i) ids.push_back(engine.Open());
  std::vector<int64_t> seen(kSessions, 0);
  auto poll = [&](int i) {
    const matchers::SessionStats s = engine.Stats(ids[i]);
    EXPECT_GE(s.points_pushed, seen[i]) << "counters went backwards";
    EXPECT_LE(s.points_committed, s.points_pushed);
    EXPECT_LE(engine.TotalStats().points_pushed, kSessions * t.size());
    seen[i] = s.points_pushed;
  };
  for (int p = 0; p < t.size(); ++p) {
    for (int i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(engine.Push(ids[i], t[p]).ok());
      poll(i);
    }
  }
  // Spin until every push has been processed, reading while the pumps run.
  for (int i = 0; i < kSessions; ++i) {
    while (seen[i] < t.size()) {
      std::this_thread::yield();
      poll(i);
    }
  }
  for (const matchers::SessionId id : ids) ASSERT_TRUE(engine.Finish(id).ok());
  engine.Barrier();
  for (const matchers::SessionId id : ids) {
    EXPECT_EQ(engine.Stats(id).points_pushed, t.size());
    EXPECT_EQ(engine.Stats(id).points_committed, t.size());
  }
  EXPECT_EQ(engine.TotalStats().points_committed, kSessions * t.size());
}

// Committed() is polled between pushes while pool threads run the same
// sessions' events. Under ThreadSanitizer this is the race check: the poll
// must copy the path the pump published, never the vector the pump appends
// to.
TEST(StreamEngineStatsTest, CommittedIsPollableWhilePushesAreInFlight) {
  GridHarness h;
  const network::RoadNetwork* net = &h.net;
  const network::GridIndex* index = h.index.get();
  const hmm::ClassicModelConfig models = h.models;
  hmm::EngineConfig ec;
  ec.k = 8;
  const matchers::MatcherFactory factory = [=] {
    return std::make_unique<matchers::StmMatcher>(net, index, models, ec);
  };
  // Back and forth along the bottom row, so the pumps stay busy for a while.
  traj::Trajectory t;
  for (int i = 0; i < 36; ++i) {
    const int col = (i / 6) % 2 == 0 ? i % 6 : 5 - i % 6;
    t.points.push_back({{100.0 + 250.0 * col, 10.0}, 20.0 * i, col});
  }
  const auto run = [&](int threads, bool poll_between_pushes) {
    matchers::StreamEngineConfig cfg;
    cfg.num_threads = threads;
    cfg.lag = 2;
    cfg.shared_router = h.cached.get();
    matchers::StreamEngine engine(factory, cfg);
    const int kSessions = 3;
    std::vector<matchers::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) ids.push_back(engine.Open());
    std::vector<std::vector<network::SegmentId>> seen(kSessions);
    const auto poll = [&](int i) {
      const std::vector<network::SegmentId> now = engine.Committed(ids[i]);
      // The committed path only grows: every earlier poll is a prefix.
      ASSERT_GE(now.size(), seen[i].size());
      EXPECT_TRUE(std::equal(seen[i].begin(), seen[i].end(), now.begin()));
      seen[i] = now;
    };
    for (int p = 0; p < t.size(); ++p) {
      for (int i = 0; i < kSessions; ++i) {
        EXPECT_TRUE(engine.Push(ids[i], t[p]).ok());
        if (poll_between_pushes) poll(i);
      }
    }
    // The producer outruns the pumps, so keep reading while they drain.
    for (int i = 0; poll_between_pushes && i < kSessions; ++i) {
      while (engine.processed_events(ids[i]) < t.size()) {
        std::this_thread::yield();
        poll(i);
      }
    }
    for (const matchers::SessionId id : ids) EXPECT_TRUE(engine.Finish(id).ok());
    engine.Barrier();
    for (int i = 0; i < kSessions; ++i) poll(i);
    return seen;
  };
  const std::vector<std::vector<network::SegmentId>> polled = run(2, true);
  const std::vector<std::vector<network::SegmentId>> oracle = run(1, false);
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_FALSE(oracle[i].empty());
    EXPECT_EQ(polled[i], oracle[i]) << "session " << i;
  }
}

// ---------------------------------------------------------------------------
// Per-family sessions on a simulated city: convergence to offline Viterbi.
// ---------------------------------------------------------------------------

class StreamFamilyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetConfig cfg = sim::XiamenSPreset();
    cfg.num_train = 25;
    cfg.num_val = 3;
    cfg.num_test = 8;
    ds_ = new sim::Dataset(sim::BuildDataset(cfg));
    index_ = new network::GridIndex(&ds_->network, 300.0);
    // A micro LHMM: convergence and determinism need a fixed model, not a
    // good one (same recipe as tests/batch_test.cc).
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
    cleaned_ = new std::vector<traj::Trajectory>();
    traj::FilterConfig filters;
    for (const traj::MatchedTrajectory& mt : ds_->test) {
      cleaned_->push_back(eval::Preprocess(mt.cellular, filters));
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

  static matchers::MatcherFactory SnetFactory() {
    const network::RoadNetwork* net = &ds_->network;
    const network::GridIndex* index = index_;
    hmm::ClassicModelConfig models;
    hmm::EngineConfig engine;
    engine.k = 12;
    return [=] {
      return std::make_unique<matchers::SnetMatcher>(net, index, models, engine);
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

  static int MaxCleanedSize() {
    int n = 0;
    for (const traj::Trajectory& t : *cleaned_) n = std::max(n, t.size());
    return n;
  }

  /// The convergence contract: with lag >= trajectory length, the streamed
  /// committed path equals the offline Viterbi reference exactly, for every
  /// test trajectory, through one Reset-reused session.
  static void ExpectConvergesToOffline(const matchers::MatcherFactory& factory) {
    const std::unique_ptr<matchers::MapMatcher> matcher = factory();
    ASSERT_TRUE(matcher->SupportsStreaming());
    matchers::StreamConfig sc;
    sc.lag = MaxCleanedSize() + 4;
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
      EXPECT_EQ(session->stats().points_pushed, t.size()) << "trajectory " << i;
      EXPECT_EQ(session->stats().points_committed, t.size()) << "trajectory " << i;
    }
  }

  static sim::Dataset* ds_;
  static network::GridIndex* index_;
  static std::shared_ptr<lhmm::LhmmModel>* model_;
  static std::vector<traj::Trajectory>* cleaned_;
};

sim::Dataset* StreamFamilyTest::ds_ = nullptr;
network::GridIndex* StreamFamilyTest::index_ = nullptr;
std::shared_ptr<lhmm::LhmmModel>* StreamFamilyTest::model_ = nullptr;
std::vector<traj::Trajectory>* StreamFamilyTest::cleaned_ = nullptr;

TEST_F(StreamFamilyTest, ClassicHmmConvergesToOffline) {
  ExpectConvergesToOffline(StmFactory());
}

TEST_F(StreamFamilyTest, SnetConvergesToOffline) {
  // SNet's observation model reads neighbor headings — window-dependent at
  // small lags, but identical once the window holds the whole trajectory.
  ExpectConvergesToOffline(SnetFactory());
}

TEST_F(StreamFamilyTest, IvmmConvergesToOffline) {
  ExpectConvergesToOffline(IvmmFactory());
}

TEST_F(StreamFamilyTest, LhmmConvergesToOffline) {
  ExpectConvergesToOffline(LhmmFactory());
}

TEST_F(StreamFamilyTest, PrefixMatchIsMonotoneIshInLag) {
  traj::FilterConfig filters;
  const int full = MaxCleanedSize() + 4;
  for (const auto& family : {StmFactory(), LhmmFactory()}) {
    const std::unique_ptr<matchers::MapMatcher> matcher = family();
    double prev_prefix = -1.0;
    double prev_latency = -1.0;
    double last_prefix = 0.0;
    for (int lag : {0, 2, 6, full}) {
      const std::vector<eval::OnlineTrajectoryEval> records = eval::EvaluateOnline(
          matcher.get(), ds_->network, ds_->test, filters, lag);
      const eval::OnlineEvalSummary s =
          eval::SummarizeOnline(records, matcher->name(), lag);
      // Monotone-ish: more look-ahead never loses much agreement with the
      // offline path, and latency only grows.
      EXPECT_GE(s.prefix_match, prev_prefix - 0.15)
          << matcher->name() << " lag " << lag;
      EXPECT_GE(s.commit_latency, prev_latency) << matcher->name() << " lag " << lag;
      if (lag == 0) {
        EXPECT_DOUBLE_EQ(s.commit_latency, 0.0);
      }
      prev_prefix = s.prefix_match;
      prev_latency = s.commit_latency;
      last_prefix = s.prefix_match;
    }
    // Full-trajectory lag reproduces the offline path exactly.
    EXPECT_DOUBLE_EQ(last_prefix, 1.0) << matcher->name();
  }
}

// ---------------------------------------------------------------------------
// StreamEngine: interleaving determinism, 1 thread vs 8 threads.
// ---------------------------------------------------------------------------

class StreamEngineDeterminismTest : public StreamFamilyTest {
 protected:
  struct EngineOutput {
    std::vector<std::vector<network::SegmentId>> committed;
    std::vector<matchers::SessionStats> stats;
  };

  /// Feeds every cleaned trajectory through a StreamEngine. `shuffle_seed`
  /// 0 = sequential trajectory-by-trajectory arrival; otherwise points of
  /// different trajectories interleave in a seeded random order (each
  /// trajectory's own points stay in order — the realistic arrival pattern).
  static EngineOutput Run(const matchers::MatcherFactory& factory, int threads,
                          uint64_t shuffle_seed) {
    network::CachedRouter shared_cache(&ds_->network);
    matchers::StreamEngineConfig config;
    config.num_threads = threads;
    config.lag = 3;
    config.shared_router = &shared_cache;
    matchers::StreamEngine engine(factory, config);
    const size_t n = cleaned_->size();
    std::vector<matchers::SessionId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = engine.Open();
    if (shuffle_seed == 0) {
      for (size_t i = 0; i < n; ++i) {
        for (int p = 0; p < (*cleaned_)[i].size(); ++p) {
          engine.Push(ids[i], (*cleaned_)[i][p]);
        }
        engine.Finish(ids[i]);
      }
    } else {
      core::Rng rng(shuffle_seed);
      std::vector<int> next(n, 0);
      std::vector<int> live(n);
      std::iota(live.begin(), live.end(), 0);
      while (!live.empty()) {
        const int pick = rng.UniformInt(static_cast<int>(live.size()));
        const int i = live[pick];
        if (next[i] < (*cleaned_)[i].size()) {
          engine.Push(ids[i], (*cleaned_)[i][next[i]++]);
        } else {
          engine.Finish(ids[i]);
          live.erase(live.begin() + pick);
        }
      }
    }
    engine.Barrier();
    EngineOutput out;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(engine.finished(ids[i])) << "session " << i;
      out.committed.push_back(engine.Committed(ids[i]));
      out.stats.push_back(engine.Stats(ids[i]));
    }
    return out;
  }

  /// The determinism contract, bit-for-bit: any thread count, any arrival
  /// interleaving, same committed path and same latency accounting.
  static void ExpectInterleavingInvariant(const matchers::MatcherFactory& factory) {
    const EngineOutput serial = Run(factory, /*threads=*/1, /*shuffle_seed=*/0);
    for (uint64_t seed : {1u, 2u}) {
      const EngineOutput parallel = Run(factory, /*threads=*/8, seed);
      ASSERT_EQ(parallel.committed.size(), serial.committed.size());
      for (size_t i = 0; i < serial.committed.size(); ++i) {
        EXPECT_EQ(parallel.committed[i], serial.committed[i])
            << "trajectory " << i << " seed " << seed;
        EXPECT_EQ(parallel.stats[i].points_pushed, serial.stats[i].points_pushed);
        EXPECT_EQ(parallel.stats[i].points_committed,
                  serial.stats[i].points_committed);
        EXPECT_EQ(parallel.stats[i].latency_points_sum,
                  serial.stats[i].latency_points_sum);
      }
    }
  }
};

TEST_F(StreamEngineDeterminismTest, ClassicHmm) {
  ExpectInterleavingInvariant(StmFactory());
}

TEST_F(StreamEngineDeterminismTest, Ivmm) {
  ExpectInterleavingInvariant(IvmmFactory());
}

TEST_F(StreamEngineDeterminismTest, Lhmm) {
  ExpectInterleavingInvariant(LhmmFactory());
}

TEST_F(StreamEngineDeterminismTest, TotalStatsCoverEveryPoint) {
  const EngineOutput out = Run(StmFactory(), /*threads=*/4, /*shuffle_seed=*/7);
  int64_t expected_points = 0;
  for (const traj::Trajectory& t : *cleaned_) expected_points += t.size();
  int64_t pushed = 0;
  for (const matchers::SessionStats& s : out.stats) pushed += s.points_pushed;
  EXPECT_EQ(pushed, expected_points);
  for (size_t i = 0; i < out.stats.size(); ++i) {
    EXPECT_EQ(out.stats[i].points_committed, out.stats[i].points_pushed)
        << "session " << i;
  }
}

}  // namespace
}  // namespace lhmm
