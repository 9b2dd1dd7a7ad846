// Byte-identity tests for store-backed matchers: a matcher whose world
// (network, grid index) and weights (LHMM, seq2seq) were materialized from a
// mapped store must produce output identical to the in-memory oracle it was
// built from — per family (STM, IVMM, LHMM, seq2seq), offline and streaming,
// at 1 worker thread and at 8. This is the contract that lets a serving
// fleet swap its data plane out from under live traffic without anyone
// noticing in the committed bytes.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "hmm/classic_models.h"
#include "lhmm/lhmm_matcher.h"
#include "lhmm/trainer.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "matchers/seq2seq.h"
#include "matchers/stream_engine.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "sim/dataset.h"
#include "store/mapped_store.h"
#include "store/store_writer.h"
#include "traj/filters.h"

namespace lhmm {
namespace {

matchers::Seq2SeqConfig MicroSeq2SeqConfig() {
  matchers::Seq2SeqConfig cfg;
  cfg.epochs = 1;
  cfg.embed_dim = 12;
  cfg.hidden_dim = 16;
  return cfg;
}

class StoreMatcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetConfig cfg = sim::XiamenSPreset();
    cfg.num_train = 25;
    cfg.num_val = 3;
    cfg.num_test = 6;
    ds_ = new sim::Dataset(sim::BuildDataset(cfg));
    index_ = new network::GridIndex(&ds_->network, 300.0);

    // The oracle LHMM (same micro recipe as tests/stream_test.cc).
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

    // The oracle seq2seq.
    s2s_ = new matchers::Seq2SeqMatcher(&ds_->network, index_,
                                        static_cast<int>(ds_->towers.size()),
                                        MicroSeq2SeqConfig(), "S2S");
    traj::FilterConfig filters;
    s2s_->Train(ds_->train, filters);

    cleaned_ = new std::vector<traj::Trajectory>();
    for (const traj::MatchedTrajectory& mt : ds_->test) {
      cleaned_->push_back(eval::Preprocess(mt.cellular, filters));
    }

    // One store holding the whole world + every weight family.
    store_path_ = new std::string(
        std::filesystem::temp_directory_path() /
        ("store_matcher_" + std::to_string(::getpid()) + ".lds"));
    store::StoreWriter w;
    w.AddSection(store::kSectionNetwork, store::EncodeNetwork(ds_->network));
    w.AddSection(store::kSectionGrid, store::EncodeGridIndex(*index_));
    w.AddSection(store::kSectionLhmm, store::EncodeLhmmWeights(**model_));
    w.AddSection(store::kSectionSeq2Seq, store::EncodeSeq2SeqWeights(*s2s_));
    const uint64_t fp = network::NetworkFingerprint(ds_->network);
    ASSERT_TRUE(w.Write(*store_path_, fp, 1).ok());

    // The store-backed world: every asset re-materialized from the mapping,
    // nothing borrowed from the oracle.
    auto mapped = store::MappedStore::Open(*store_path_, fp);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    store_ = new std::shared_ptr<store::MappedStore>(std::move(*mapped));
    auto net = (*store_)->LoadNetwork();
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    store_net_ = new network::RoadNetwork(std::move(*net));
    auto grid = (*store_)->LoadGridIndex(store_net_);
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();
    store_index_ = grid->release();

    // LHMM: architecture shell (zero training steps), then stored weights.
    lhmm::LhmmConfig shell_cfg = lhmm_cfg;
    shell_cfg.obs_steps = 0;
    shell_cfg.trans_steps = 0;
    shell_cfg.fusion_steps = 0;
    lhmm::TrainInputs shell_inputs = inputs;
    shell_inputs.net = store_net_;
    shell_inputs.index = store_index_;
    store_model_ = new std::shared_ptr<lhmm::LhmmModel>(
        TrainLhmm(shell_inputs, shell_cfg));
    (*store_model_)->config = (*model_)->config;
    ASSERT_TRUE((*store_)->ApplyLhmmWeights(store_model_->get()).ok());

    // Seq2seq: architecture shell, then stored weights.
    store_s2s_ = new matchers::Seq2SeqMatcher(
        store_net_, store_index_, static_cast<int>(ds_->towers.size()),
        MicroSeq2SeqConfig(), "S2S");
    ASSERT_TRUE((*store_)->ApplySeq2SeqWeights(store_s2s_).ok());
  }

  static void TearDownTestSuite() {
    delete store_s2s_;
    delete store_model_;
    delete store_index_;
    delete store_net_;
    delete store_;
    std::filesystem::remove(*store_path_);
    delete store_path_;
    delete cleaned_;
    delete s2s_;
    delete model_;
    delete index_;
    delete ds_;
    store_s2s_ = nullptr;
    store_model_ = nullptr;
    store_index_ = nullptr;
    store_net_ = nullptr;
    store_ = nullptr;
    store_path_ = nullptr;
    cleaned_ = nullptr;
    s2s_ = nullptr;
    model_ = nullptr;
    index_ = nullptr;
    ds_ = nullptr;
  }

  /// A matcher family, constructible against either world.
  static matchers::MatcherFactory Factory(const std::string& family,
                                          const network::RoadNetwork* net,
                                          const network::GridIndex* index,
                                          bool store_world) {
    if (family == "STM") {
      hmm::ClassicModelConfig models;
      hmm::EngineConfig engine;
      engine.k = 12;
      return [=] {
        return std::make_unique<matchers::StmMatcher>(net, index, models,
                                                      engine);
      };
    }
    if (family == "IVMM") {
      hmm::ClassicModelConfig models;
      return [=] {
        return std::make_unique<matchers::IvmmMatcher>(net, index, models, 10);
      };
    }
    EXPECT_EQ(family, "LHMM");
    std::shared_ptr<lhmm::LhmmModel> model =
        store_world ? *store_model_ : *model_;
    return [=] {
      return std::make_unique<lhmm::LhmmMatcher>(net, index, model);
    };
  }

  static matchers::MatcherFactory OracleFactory(const std::string& family) {
    return Factory(family, &ds_->network, index_, false);
  }
  static matchers::MatcherFactory StoreFactory(const std::string& family) {
    return Factory(family, store_net_, store_index_, true);
  }

  /// Streams every cleaned trajectory through an engine over `factory`'s
  /// world and returns the committed outputs per session.
  static std::vector<std::vector<network::SegmentId>> RunEngine(
      const matchers::MatcherFactory& factory, const network::RoadNetwork* net,
      int threads) {
    network::CachedRouter shared_cache(net);
    matchers::StreamEngineConfig config;
    config.num_threads = threads;
    config.lag = 3;
    config.shared_router = &shared_cache;
    matchers::StreamEngine engine(factory, config);
    const size_t n = cleaned_->size();
    std::vector<matchers::SessionId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = engine.Open();
    for (size_t i = 0; i < n; ++i) {
      for (int p = 0; p < (*cleaned_)[i].size(); ++p) {
        engine.Push(ids[i], (*cleaned_)[i][p]);
      }
      engine.Finish(ids[i]);
    }
    engine.Barrier();
    std::vector<std::vector<network::SegmentId>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(engine.Committed(ids[i]));
    return out;
  }

  static void ExpectOfflineIdentity(const std::string& family) {
    const std::unique_ptr<matchers::MapMatcher> oracle =
        OracleFactory(family)();
    const std::unique_ptr<matchers::MapMatcher> from_store =
        StoreFactory(family)();
    for (size_t i = 0; i < cleaned_->size(); ++i) {
      const matchers::MatchResult a = oracle->Match((*cleaned_)[i]);
      const matchers::MatchResult b = from_store->Match((*cleaned_)[i]);
      EXPECT_EQ(a.path, b.path) << family << " trajectory " << i;
    }
  }

  static void ExpectStreamingIdentity(const std::string& family) {
    for (const int threads : {1, 8}) {
      const auto oracle = RunEngine(OracleFactory(family), &ds_->network,
                                    threads);
      const auto from_store =
          RunEngine(StoreFactory(family), store_net_, threads);
      ASSERT_EQ(oracle.size(), from_store.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(oracle[i], from_store[i])
            << family << " session " << i << " threads " << threads;
      }
    }
  }

  static sim::Dataset* ds_;
  static network::GridIndex* index_;
  static std::shared_ptr<lhmm::LhmmModel>* model_;
  static matchers::Seq2SeqMatcher* s2s_;
  static std::vector<traj::Trajectory>* cleaned_;
  static std::string* store_path_;
  static std::shared_ptr<store::MappedStore>* store_;
  static network::RoadNetwork* store_net_;
  static network::GridIndex* store_index_;
  static std::shared_ptr<lhmm::LhmmModel>* store_model_;
  static matchers::Seq2SeqMatcher* store_s2s_;
};

sim::Dataset* StoreMatcherTest::ds_ = nullptr;
network::GridIndex* StoreMatcherTest::index_ = nullptr;
std::shared_ptr<lhmm::LhmmModel>* StoreMatcherTest::model_ = nullptr;
matchers::Seq2SeqMatcher* StoreMatcherTest::s2s_ = nullptr;
std::vector<traj::Trajectory>* StoreMatcherTest::cleaned_ = nullptr;
std::string* StoreMatcherTest::store_path_ = nullptr;
std::shared_ptr<store::MappedStore>* StoreMatcherTest::store_ = nullptr;
network::RoadNetwork* StoreMatcherTest::store_net_ = nullptr;
network::GridIndex* StoreMatcherTest::store_index_ = nullptr;
std::shared_ptr<lhmm::LhmmModel>* StoreMatcherTest::store_model_ = nullptr;
matchers::Seq2SeqMatcher* StoreMatcherTest::store_s2s_ = nullptr;

TEST_F(StoreMatcherTest, StmOfflineIdentity) { ExpectOfflineIdentity("STM"); }
TEST_F(StoreMatcherTest, IvmmOfflineIdentity) { ExpectOfflineIdentity("IVMM"); }
TEST_F(StoreMatcherTest, LhmmOfflineIdentity) { ExpectOfflineIdentity("LHMM"); }

TEST_F(StoreMatcherTest, Seq2SeqOfflineIdentity) {
  // Seq2seq matchers are offline-only (SupportsStreaming() is false), so the
  // identity contract is checked on the batch path.
  EXPECT_FALSE(s2s_->SupportsStreaming());
  for (size_t i = 0; i < cleaned_->size(); ++i) {
    const matchers::MatchResult a = s2s_->Match((*cleaned_)[i]);
    const matchers::MatchResult b = store_s2s_->Match((*cleaned_)[i]);
    EXPECT_EQ(a.path, b.path) << "trajectory " << i;
  }
}

TEST_F(StoreMatcherTest, Seq2SeqSharedCloneIdentity) {
  // SharedClone shares the weight Impl instead of copying it: same decode,
  // one copy of the parameters no matter how many worker clones exist.
  const std::unique_ptr<matchers::Seq2SeqMatcher> clone = s2s_->SharedClone();
  EXPECT_EQ(clone->name(), s2s_->name());
  for (size_t i = 0; i < cleaned_->size(); ++i) {
    EXPECT_EQ(clone->Match((*cleaned_)[i]).path,
              s2s_->Match((*cleaned_)[i]).path)
        << "trajectory " << i;
  }
}

TEST_F(StoreMatcherTest, StmStreamingIdentity) {
  ExpectStreamingIdentity("STM");
}
TEST_F(StoreMatcherTest, IvmmStreamingIdentity) {
  ExpectStreamingIdentity("IVMM");
}
TEST_F(StoreMatcherTest, LhmmStreamingIdentity) {
  ExpectStreamingIdentity("LHMM");
}

}  // namespace
}  // namespace lhmm
