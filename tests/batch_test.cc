// Tests for the parallel batch matching stack: ThreadPool, the sharded
// thread-safe CachedRouter, and BatchMatcher's central contract — matching
// results are byte-identical for every thread count.

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/thread_pool.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "lhmm/lhmm_matcher.h"
#include "lhmm/trainer.h"
#include "matchers/batch_matcher.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "network/shortest_path.h"
#include "sim/dataset.h"
#include "traj/filters.h"

namespace lhmm {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskAndIsReusable) {
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
  // The pool stays usable after Wait().
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1500);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  core::ThreadPool pool(2);
  pool.Wait();
  pool.Wait();
}

TEST(ThreadPoolTest, SubmitFromInsideATask) {
  core::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&pool, &count] {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ThreadCountClampedToOne) {
  core::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_GE(core::ThreadPool::DefaultThreadCount(), 1);
}

TEST(ParallelForTest, EachIndexProcessedExactlyOnce) {
  constexpr int64_t kN = 2000;
  std::vector<std::atomic<int>> counts(kN);
  core::ParallelFor(4, kN, [&counts](int worker_id, int64_t i) {
    EXPECT_GE(worker_id, 0);
    EXPECT_LT(worker_id, 4);
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::vector<int64_t> order;
  core::ParallelFor(1, 5, [&order](int worker_id, int64_t i) {
    EXPECT_EQ(worker_id, 0);
    order.push_back(i);  // Safe: serial path, no pool.
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Thread-safe CachedRouter.
// ---------------------------------------------------------------------------

TEST(CachedRouterTest, BoundSemanticsSurviveCaching) {
  network::RoadNetwork net = network::GenerateGridNetwork(6, 6, 200.0);
  network::SegmentRouter oracle(&net);
  network::CachedRouter cache(&net);
  const network::SegmentId from = 0;
  const network::SegmentId to = net.num_segments() - 1;
  // A negative result cached under a small bound must not satisfy a larger
  // query, and a positive result must not leak past a tighter bound.
  for (double bound : {150.0, 6000.0, 150.0, 6000.0}) {
    const auto expected = oracle.Route1(from, to, bound);
    const auto got = cache.Route1(from, to, bound);
    ASSERT_EQ(got.has_value(), expected.has_value()) << "bound " << bound;
    if (expected.has_value()) {
      EXPECT_DOUBLE_EQ(got->length, expected->length);
      EXPECT_EQ(got->segments, expected->segments);
    }
  }
  EXPECT_EQ(cache.hits() + cache.misses(), 4);
}

// 8 threads hammer one shared cache with overlapping one-to-many queries; the
// satellite contract: every result equals the serial SegmentRouter oracle and
// every individual lookup lands in exactly one of hits/misses.
TEST(CachedRouterStressTest, ConcurrentOverlappingQueriesMatchSerialOracle) {
  network::RoadNetwork net = network::GenerateGridNetwork(12, 12, 150.0);
  const int num_segments = net.num_segments();
  ASSERT_GT(num_segments, 50);
  constexpr double kBound = 2500.0;
  constexpr int kQueries = 24;
  constexpr int kThreads = 8;
  constexpr int kReps = 4;

  // Overlapping sliding windows of targets so threads repeatedly collide on
  // the same (from, to) keys.
  std::vector<network::SegmentId> froms(kQueries);
  std::vector<std::vector<network::SegmentId>> targets(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    froms[q] = (q * 7) % num_segments;
    for (int j = 0; j < 40; ++j) {
      targets[q].push_back((q * 3 + j) % num_segments);
    }
  }
  network::SegmentRouter oracle(&net);
  std::vector<std::vector<std::optional<network::Route>>> expected(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    expected[q] = oracle.RouteMany(froms[q], targets[q], kBound);
  }

  network::CachedRouter cache(&net);
  std::atomic<int64_t> lookups{0};
  std::atomic<int64_t> mismatches{0};
  core::ParallelFor(
      kThreads, static_cast<int64_t>(kThreads) * kReps * kQueries,
      [&](int worker_id, int64_t j) {
        (void)worker_id;
        const int q = static_cast<int>(j % kQueries);
        const auto got = cache.RouteMany(froms[q], targets[q], kBound);
        lookups.fetch_add(static_cast<int64_t>(targets[q].size()),
                          std::memory_order_relaxed);
        for (size_t i = 0; i < got.size(); ++i) {
          const auto& want = expected[q][i];
          const bool same =
              got[i].has_value() == want.has_value() &&
              (!want.has_value() || (got[i]->length == want->length &&
                                     got[i]->segments == want->segments));
          if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups.load());
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
  // Clear() resets the table and the counters together.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0);
}

// ---------------------------------------------------------------------------
// BatchMatcher determinism: 1 thread vs 4 threads, byte-identical output.
// ---------------------------------------------------------------------------

class BatchDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetConfig cfg = sim::XiamenSPreset();
    cfg.num_train = 25;
    cfg.num_val = 3;
    // Enough test trajectories that the 4-thread run keeps several workers
    // matching concurrently the whole time; smaller sets let races slip by.
    cfg.num_test = 12;
    ds_ = new sim::Dataset(sim::BuildDataset(cfg));
    index_ = new network::GridIndex(&ds_->network, 300.0);
    // A micro LHMM: determinism needs a fixed model, not a good one.
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
  }
  static void TearDownTestSuite() {
    delete model_;
    delete index_;
    delete ds_;
    model_ = nullptr;
    index_ = nullptr;
    ds_ = nullptr;
  }

  struct BatchOutput {
    std::vector<matchers::MatchResult> results;
    std::vector<eval::TrajectoryEval> records;
    matchers::BatchStats stats;
  };

  /// One batch run behind a fresh shared cache, pre-warmed when `warm`.
  static BatchOutput Run(const matchers::MatcherFactory& factory, int threads,
                         bool warm = false) {
    traj::FilterConfig filters;
    network::CachedRouter shared_cache(&ds_->network);
    if (warm) shared_cache.WarmAll(*index_, 1500.0);
    matchers::BatchConfig config;
    config.num_threads = threads;
    config.shared_router = &shared_cache;
    matchers::BatchMatcher batch(factory, config);
    BatchOutput out;
    out.records = eval::EvaluatePerTrajectoryParallel(&batch, ds_->network,
                                                      ds_->test, filters);
    std::vector<traj::Trajectory> cleaned;
    for (const auto& mt : ds_->test) {
      cleaned.push_back(eval::Preprocess(mt.cellular, filters));
    }
    out.results = batch.MatchAll(cleaned);
    out.stats = batch.last_stats();
    return out;
  }

  /// Bit-for-bit output comparison: identical matched paths, identical
  /// candidate sets, identical metric doubles (== on doubles is deliberate —
  /// "equivalent" is not enough).
  static void ExpectSameOutput(const BatchOutput& a, const BatchOutput& b,
                               const std::string& label) {
    ASSERT_EQ(a.results.size(), b.results.size()) << label;
    for (size_t i = 0; i < a.results.size(); ++i) {
      const matchers::MatchResult& ra = a.results[i];
      const matchers::MatchResult& rb = b.results[i];
      EXPECT_EQ(ra.path, rb.path) << label << " trajectory " << i;
      EXPECT_EQ(ra.point_index, rb.point_index) << label << " trajectory " << i;
      ASSERT_EQ(ra.candidates.size(), rb.candidates.size())
          << label << " trajectory " << i;
      for (size_t s = 0; s < ra.candidates.size(); ++s) {
        ASSERT_EQ(ra.candidates[s].size(), rb.candidates[s].size()) << label;
        for (size_t c = 0; c < ra.candidates[s].size(); ++c) {
          EXPECT_EQ(ra.candidates[s][c].segment, rb.candidates[s][c].segment)
              << label;
          EXPECT_EQ(ra.candidates[s][c].observation,
                    rb.candidates[s][c].observation)
              << label;
        }
      }
    }
    ASSERT_EQ(a.records.size(), b.records.size()) << label;
    for (size_t i = 0; i < a.records.size(); ++i) {
      const eval::TrajectoryEval& ea = a.records[i];
      const eval::TrajectoryEval& eb = b.records[i];
      EXPECT_EQ(ea.index, eb.index) << label;
      EXPECT_EQ(ea.metrics.precision, eb.metrics.precision)
          << label << " trajectory " << i;
      EXPECT_EQ(ea.metrics.recall, eb.metrics.recall)
          << label << " trajectory " << i;
      EXPECT_EQ(ea.metrics.rmf, eb.metrics.rmf) << label << " trajectory " << i;
      EXPECT_EQ(ea.metrics.cmf, eb.metrics.cmf) << label << " trajectory " << i;
      EXPECT_EQ(ea.hitting_ratio, eb.hitting_ratio)
          << label << " trajectory " << i;
    }
  }

  /// The thread-count determinism contract: serial vs 4 threads.
  static void ExpectByteIdentical(const matchers::MatcherFactory& factory) {
    const BatchOutput serial = Run(factory, 1);
    const BatchOutput parallel = Run(factory, 4);
    EXPECT_EQ(serial.stats.num_threads, 1);
    EXPECT_EQ(parallel.stats.num_threads, 4);
    EXPECT_EQ(parallel.stats.items, static_cast<int64_t>(ds_->test.size()));
    ExpectSameOutput(serial, parallel, "threads 1 vs 4");
  }

  /// The route-cache transparency contract: a cold cache on one thread,
  /// where every route query actually runs its Dijkstra, and a pre-warmed
  /// cache on 8 threads, where nearly every query is a hit, produce
  /// byte-identical output.
  static void ExpectWarmCacheByteIdentical(
      const matchers::MatcherFactory& factory) {
    ExpectSameOutput(Run(factory, 1), Run(factory, 8, /*warm=*/true),
                     "cold 1 thread vs warm 8 threads");
  }

  static sim::Dataset* ds_;
  static network::GridIndex* index_;
  static std::shared_ptr<lhmm::LhmmModel>* model_;
};

sim::Dataset* BatchDeterminismTest::ds_ = nullptr;
network::GridIndex* BatchDeterminismTest::index_ = nullptr;
std::shared_ptr<lhmm::LhmmModel>* BatchDeterminismTest::model_ = nullptr;

TEST_F(BatchDeterminismTest, ClassicHmmWithShortcuts) {
  const network::RoadNetwork* net = &ds_->network;
  const network::GridIndex* index = index_;
  hmm::ClassicModelConfig models;
  hmm::EngineConfig engine;
  engine.k = 12;
  engine.use_shortcuts = true;  // Exercise the shortcut pass across threads.
  ExpectByteIdentical([=] {
    return std::make_unique<matchers::StmMatcher>(net, index, models, engine);
  });
}

TEST_F(BatchDeterminismTest, Ivmm) {
  const network::RoadNetwork* net = &ds_->network;
  const network::GridIndex* index = index_;
  hmm::ClassicModelConfig models;
  ExpectByteIdentical([=] {
    return std::make_unique<matchers::IvmmMatcher>(net, index, models, 10);
  });
}

TEST_F(BatchDeterminismTest, Lhmm) {
  const network::RoadNetwork* net = &ds_->network;
  const network::GridIndex* index = index_;
  std::shared_ptr<lhmm::LhmmModel> model = *model_;
  ExpectByteIdentical([=] {
    return std::make_unique<lhmm::LhmmMatcher>(net, index, model);
  });
}

// ---------------------------------------------------------------------------
// Route-cache transparency: the full matching pipeline (preprocessing,
// candidates, Viterbi, shortcut pass, path expansion, metrics) produces
// byte-identical output whether every route query runs its Dijkstra or is
// served from a pre-warmed cache.
// ---------------------------------------------------------------------------

TEST_F(BatchDeterminismTest, WarmCacheByteIdenticalClassicHmmWithShortcuts) {
  const network::RoadNetwork* net = &ds_->network;
  const network::GridIndex* index = index_;
  hmm::ClassicModelConfig models;
  hmm::EngineConfig engine;
  engine.k = 12;
  engine.use_shortcuts = true;
  ExpectWarmCacheByteIdentical([=] {
    return std::make_unique<matchers::StmMatcher>(net, index, models, engine);
  });
}

TEST_F(BatchDeterminismTest, WarmCacheByteIdenticalIvmm) {
  const network::RoadNetwork* net = &ds_->network;
  const network::GridIndex* index = index_;
  hmm::ClassicModelConfig models;
  ExpectWarmCacheByteIdentical([=] {
    return std::make_unique<matchers::IvmmMatcher>(net, index, models, 10);
  });
}

TEST_F(BatchDeterminismTest, WarmCacheByteIdenticalLhmm) {
  const network::RoadNetwork* net = &ds_->network;
  const network::GridIndex* index = index_;
  std::shared_ptr<lhmm::LhmmModel> model = *model_;
  ExpectWarmCacheByteIdentical([=] {
    return std::make_unique<lhmm::LhmmMatcher>(net, index, model);
  });
}

TEST_F(BatchDeterminismTest, MoreThreadsThanItemsStillCoversEverything) {
  const network::RoadNetwork* net = &ds_->network;
  const network::GridIndex* index = index_;
  hmm::ClassicModelConfig models;
  hmm::EngineConfig engine;
  engine.k = 8;
  matchers::BatchConfig config;
  config.num_threads = 16;  // More workers than the 6 test trajectories.
  matchers::BatchMatcher batch(
      [=] {
        return std::make_unique<matchers::StmMatcher>(net, index, models, engine);
      },
      config);
  traj::FilterConfig filters;
  std::vector<traj::Trajectory> cleaned;
  for (const auto& mt : ds_->test) {
    cleaned.push_back(eval::Preprocess(mt.cellular, filters));
  }
  const std::vector<matchers::MatchResult> results = batch.MatchAll(cleaned);
  ASSERT_EQ(results.size(), cleaned.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].path.empty()) << "trajectory " << i;
  }
}

}  // namespace
}  // namespace lhmm
