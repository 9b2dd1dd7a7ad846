// Tests for the versioned mmap store (src/store): exact round trips of every
// section through StoreWriter -> MappedStore, the full corruption matrix
// (torn tail, bit flip, garbage section, future version, fingerprint
// mismatch — each a typed file+offset reject), and the generation-swap
// protocol with RCU unmap-on-last-release semantics.

#include <unistd.h>

#include <cerrno>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_file.h"
#include "io/journal.h"
#include "lhmm/trainer.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "store/generations.h"
#include "store/mapped_store.h"
#include "store/store_writer.h"

namespace lhmm::store {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    net_ = network::GenerateGridNetwork(6, 6, 200.0);
    index_ = std::make_unique<network::GridIndex>(&net_, 300.0);
    fingerprint_ = network::NetworkFingerprint(net_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ / name; }

  /// Writes a full store (network + grid + meta) to `name`.
  std::string WriteStore(const std::string& name, uint64_t generation = 1,
                         uint64_t fingerprint = 0) {
    StoreWriter w;
    w.AddSection(kSectionNetwork, EncodeNetwork(net_));
    w.AddSection(kSectionGrid, EncodeGridIndex(*index_));
    w.AddSection(kSectionMeta, EncodeMeta({{"source", "test"}}));
    const std::string path = Path(name);
    EXPECT_TRUE(
        w.Write(path, fingerprint == 0 ? fingerprint_ : fingerprint, generation)
            .ok());
    return path;
  }

  std::filesystem::path dir_;
  network::RoadNetwork net_;
  std::unique_ptr<network::GridIndex> index_;
  uint64_t fingerprint_ = 0;
};

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST_F(StoreTest, NetworkRoundTripsExactly) {
  const std::string path = WriteStore("a.lds", 7);
  auto store = MappedStore::Open(path, fingerprint_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->generation(), 7u);
  EXPECT_EQ((*store)->fingerprint(), fingerprint_);

  auto loaded = (*store)->LoadNetwork();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const network::RoadNetwork& got = *loaded;
  ASSERT_EQ(got.num_nodes(), net_.num_nodes());
  ASSERT_EQ(got.num_segments(), net_.num_segments());
  for (network::NodeId n = 0; n < net_.num_nodes(); ++n) {
    EXPECT_EQ(got.node(n).pos.x, net_.node(n).pos.x);
    EXPECT_EQ(got.node(n).pos.y, net_.node(n).pos.y);
  }
  for (network::SegmentId s = 0; s < net_.num_segments(); ++s) {
    const network::RoadSegment& a = net_.segment(s);
    const network::RoadSegment& b = got.segment(s);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.reverse, b.reverse);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.speed_limit, b.speed_limit);
    // Exact double round trip: the recomputed length is bit-identical.
    EXPECT_EQ(a.length, b.length);
    ASSERT_EQ(a.geometry.size(), b.geometry.size());
    for (int i = 0; i < a.geometry.size(); ++i) {
      EXPECT_EQ(a.geometry.points()[i].x, b.geometry.points()[i].x);
      EXPECT_EQ(a.geometry.points()[i].y, b.geometry.points()[i].y);
    }
  }
  // The fingerprint of the round-tripped network matches, which is the
  // whole-network exactness check in one number.
  EXPECT_EQ(network::NetworkFingerprint(got), fingerprint_);
}

TEST_F(StoreTest, GridIndexRoundTripsExactly) {
  const std::string path = WriteStore("a.lds");
  auto store = MappedStore::Open(path);
  ASSERT_TRUE(store.ok());
  auto loaded = (*store)->LoadGridIndex(&net_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const network::GridSnapshot a = index_->Snapshot();
  const network::GridSnapshot b = (*loaded)->Snapshot();
  EXPECT_EQ(a.cell_size, b.cell_size);
  EXPECT_EQ(a.origin_x, b.origin_x);
  EXPECT_EQ(a.origin_y, b.origin_y);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cell_begin, b.cell_begin);
  EXPECT_EQ(a.ids, b.ids);
}

/// An untrained LHMM over the test grid: the architecture a store's LHMM
/// section must fit, with initial weights drawn from `seed`. Its one
/// training trajectory drives east along the bottom row.
std::unique_ptr<lhmm::LhmmModel> ShellModel(const network::RoadNetwork& net,
                                            const network::GridIndex& index,
                                            uint64_t seed) {
  traj::MatchedTrajectory mt;
  for (int c = 0; c < 5; ++c) {
    for (const network::SegmentId sid : net.OutSegments(c)) {
      if (net.segment(sid).to == c + 1) mt.truth_path.push_back(sid);
    }
    const double x = 100.0 + 200.0 * c;
    mt.cellular.points.push_back({{x, 30.0}, 20.0 * c, c % 4});
    mt.gps.points.push_back({{x, 0.0}, 20.0 * c, c % 4});
  }
  const std::vector<traj::MatchedTrajectory> train = {mt};
  lhmm::TrainInputs inputs;
  inputs.net = &net;
  inputs.index = &index;
  inputs.num_towers = 4;
  inputs.train = &train;
  lhmm::LhmmConfig cfg;
  cfg.obs_steps = 0;
  cfg.trans_steps = 0;
  cfg.fusion_steps = 0;
  cfg.encoder.dim = 8;
  cfg.seed = seed;
  return lhmm::TrainLhmm(inputs, cfg);
}

TEST_F(StoreTest, StoreWithLegacyCHGRSectionStillServes) {
  // Stores published while a contraction-hierarchy router existed carry a
  // "CHGR" section. Open() CRC-checks it like every other section and
  // nothing reads it, so such stores keep opening and serving.
  const std::unique_ptr<lhmm::LhmmModel> model = ShellModel(net_, *index_, 1);
  StoreWriter w;
  w.AddSection(kSectionNetwork, EncodeNetwork(net_));
  w.AddSection(kSectionGrid, EncodeGridIndex(*index_));
  w.AddSection(SectionTag("CHGR"), std::string("\x01\x02\x03legacy\xff", 10));
  w.AddSection(kSectionLhmm, EncodeLhmmWeights(*model));
  const std::string path = Path("legacy.lds");
  ASSERT_TRUE(w.Write(path, fingerprint_, 1).ok());

  auto store = MappedStore::Open(path, fingerprint_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->HasSection(SectionTag("CHGR")));

  auto net = (*store)->LoadNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_EQ(EncodeNetwork(*net), EncodeNetwork(net_));
  auto grid = (*store)->LoadGridIndex(&*net);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(EncodeGridIndex(**grid), EncodeGridIndex(*index_));
  // Weights land on a shell whose own initial weights differ.
  const std::unique_ptr<lhmm::LhmmModel> shell = ShellModel(net_, *index_, 2);
  ASSERT_NE(EncodeLhmmWeights(*shell), EncodeLhmmWeights(*model));
  ASSERT_TRUE((*store)->ApplyLhmmWeights(shell.get()).ok());
  EXPECT_EQ(EncodeLhmmWeights(*shell), EncodeLhmmWeights(*model));

  // The operator-facing check accepts it too.
  const std::string validate = std::string(LHMM_STORE_BIN) +
                               " validate --file " + path + " > /dev/null";
  EXPECT_EQ(std::system(validate.c_str()), 0) << validate;
}

TEST_F(StoreTest, MetaAndSectionViews) {
  const std::string path = WriteStore("a.lds");
  auto store = MappedStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->HasSection(kSectionNetwork));
  EXPECT_FALSE((*store)->HasSection(kSectionLhmm));
  EXPECT_EQ((*store)->Section(kSectionLhmm).status().code(),
            core::StatusCode::kNotFound);
  auto view = (*store)->Section(kSectionGrid);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->offset % kStoreAlign, 0u);
  EXPECT_GT(view->bytes, 0u);
  const auto meta = (*store)->Meta();
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta[0].first, "source");
  EXPECT_EQ(meta[0].second, "test");
}

TEST_F(StoreTest, BuildIsDeterministic) {
  const std::string a = WriteStore("a.lds", 3);
  const std::string b = WriteStore("b.lds", 3);
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  // Same assets + same generation stamp => byte-identical stores, so a
  // rebuilt generation can be verified by hash alone.
  EXPECT_EQ(bytes_a, bytes_b);
}

// ---------------------------------------------------------------------------
// The corruption matrix. Every entry must be a typed reject naming the file
// and a byte offset — never a crash, never a partial load.
// ---------------------------------------------------------------------------

void ExpectTypedReject(const core::Result<std::shared_ptr<MappedStore>>& r,
                       const std::string& path, const std::string& what) {
  ASSERT_FALSE(r.ok()) << "corrupt store was accepted (" << what << ")";
  const std::string msg = r.status().ToString();
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  EXPECT_NE(msg.find(what), std::string::npos) << msg;
}

TEST_F(StoreTest, TornTailIsRejected) {
  const std::string path = WriteStore("a.lds");
  ASSERT_TRUE(io::TornTail(path, 3).ok());
  ExpectTypedReject(MappedStore::Open(path), path, "torn tail");
}

TEST_F(StoreTest, TruncatedBelowHeaderIsRejected) {
  const std::string path = WriteStore("a.lds");
  ASSERT_TRUE(io::ShortenFileTo(path, 40).ok());
  ExpectTypedReject(MappedStore::Open(path), path, "file too small");
}

TEST_F(StoreTest, HeaderBitFlipIsRejected) {
  const std::string path = WriteStore("a.lds");
  ASSERT_TRUE(io::FlipBit(path, 17, 3).ok());  // Inside the fingerprint.
  ExpectTypedReject(MappedStore::Open(path), path, "header CRC mismatch");
}

TEST_F(StoreTest, MagicCorruptionIsRejected) {
  const std::string path = WriteStore("a.lds");
  ASSERT_TRUE(io::InjectGarbage(path, 0, "NOTSTORE").ok());
  ExpectTypedReject(MappedStore::Open(path), path, "bad magic");
}

TEST_F(StoreTest, SectionBitFlipIsRejected) {
  const std::string path = WriteStore("a.lds");
  // One bit, deep inside the network section's payload.
  ASSERT_TRUE(io::FlipBit(path, 1000, 5).ok());
  ExpectTypedReject(MappedStore::Open(path), path, "CRC mismatch");
}

TEST_F(StoreTest, GarbageSectionIsRejected) {
  const std::string path = WriteStore("a.lds");
  auto pristine = MappedStore::Open(path);
  ASSERT_TRUE(pristine.ok());
  const auto view = (*pristine)->Section(kSectionGrid);
  ASSERT_TRUE(view.ok());
  const int64_t grid_off = static_cast<int64_t>(view->offset);
  pristine->reset();  // Unmap before mutating the file.
  ASSERT_TRUE(
      io::InjectGarbage(path, grid_off, std::string(64, '\xa5')).ok());
  ExpectTypedReject(MappedStore::Open(path), path, "GRID CRC mismatch");
}

TEST_F(StoreTest, FutureFormatVersionIsRejected) {
  const std::string path = WriteStore("a.lds");
  // A version bump with a valid header CRC — the version check itself must
  // fire, not the CRC that guards against accidental flips.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const uint32_t future = kFormatVersion + 1;
  std::memcpy(&bytes[kVersionOffset], &future, sizeof(future));
  const uint32_t crc = io::Crc32(bytes.data(), kHeaderCrcOffset);
  std::memcpy(&bytes[kHeaderCrcOffset], &crc, sizeof(crc));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  ExpectTypedReject(MappedStore::Open(path), path, "format version skew");
}

TEST_F(StoreTest, FingerprintMismatchIsRejected) {
  const std::string path = WriteStore("a.lds");
  ExpectTypedReject(MappedStore::Open(path, fingerprint_ + 1), path,
                    "fingerprint mismatch");
}

TEST_F(StoreTest, TrailingJunkIsRejected) {
  const std::string path = WriteStore("a.lds");
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "junk";
  out.close();
  ExpectTypedReject(MappedStore::Open(path), path, "trailing junk");
}

// ---------------------------------------------------------------------------
// Generations: publish, swap, rollback, and RCU mapping lifetime.
// ---------------------------------------------------------------------------

class GenerationsTest : public StoreTest {
 protected:
  /// Builds <root>/gen-<N>/store-<N>.lds from the test network.
  std::string BuildGen(int64_t gen) {
    std::filesystem::create_directories(GenerationDir(Root(), gen));
    StoreWriter w;
    w.AddSection(kSectionNetwork, EncodeNetwork(net_));
    w.AddSection(kSectionGrid, EncodeGridIndex(*index_));
    const std::string path = StorePath(Root(), gen);
    EXPECT_TRUE(w.Write(path, fingerprint_, gen).ok());
    return path;
  }
  std::string Root() const { return dir_ / "root"; }
};

TEST_F(GenerationsTest, PublishListAndCurrent) {
  EXPECT_EQ(ReadCurrent(Root()).status().code(), core::StatusCode::kNotFound);
  BuildGen(1);
  BuildGen(2);
  EXPECT_EQ(ListGenerations(Root()), (std::vector<int64_t>{1, 2}));
  ASSERT_TRUE(PublishCurrent(Root(), 1).ok());
  auto current = ReadCurrent(Root());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1);
}

TEST_F(GenerationsTest, SwapAndRollback) {
  BuildGen(1);
  BuildGen(2);
  ASSERT_TRUE(PublishCurrent(Root(), 1).ok());
  auto mgr = GenerationManager::Open(Root(), fingerprint_);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_EQ((*mgr)->Status().generation, 1);
  EXPECT_EQ((*mgr)->Status().previous_generation, -1);

  auto swapped = (*mgr)->Swap(2);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped->generation, 2);
  EXPECT_EQ(swapped->previous_generation, 1);
  EXPECT_EQ(*ReadCurrent(Root()), 2);  // Swap republished CURRENT.

  auto rolled = (*mgr)->Rollback();
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled->generation, 1);
  EXPECT_EQ(rolled->previous_generation, 2);
  EXPECT_EQ(*ReadCurrent(Root()), 1);
}

TEST_F(GenerationsTest, RollbackWithoutPreviousIsTyped) {
  BuildGen(1);
  ASSERT_TRUE(PublishCurrent(Root(), 1).ok());
  auto mgr = GenerationManager::Open(Root());
  ASSERT_TRUE(mgr.ok());
  auto rolled = (*mgr)->Rollback();
  ASSERT_FALSE(rolled.ok());
  EXPECT_EQ(rolled.status().code(), core::StatusCode::kFailedPrecondition);
}

TEST_F(GenerationsTest, CorruptCandidateNeverDisturbsServing) {
  BuildGen(1);
  const std::string candidate = BuildGen(2);
  ASSERT_TRUE(PublishCurrent(Root(), 1).ok());
  auto mgr = GenerationManager::Open(Root(), fingerprint_);
  ASSERT_TRUE(mgr.ok());
  const GenerationHandle before = (*mgr)->Current();

  ASSERT_TRUE(io::FlipBit(candidate, 777, 1).ok());
  auto swapped = (*mgr)->Swap(2);
  ASSERT_FALSE(swapped.ok());
  EXPECT_NE(swapped.status().ToString().find("CRC mismatch"),
            std::string::npos);
  // The reject left everything untouched: same generation, same mapping,
  // CURRENT still pointing at 1 (validation happens before publish).
  EXPECT_EQ((*mgr)->Status().generation, 1);
  EXPECT_EQ((*mgr)->Current().get(), before.get());
  EXPECT_EQ(*ReadCurrent(Root()), 1);
  // And the still-mapped old generation still reads coherently.
  auto reread = before->store->LoadNetwork();
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_segments(), net_.num_segments());
}

TEST_F(GenerationsTest, SwapAcrossNetworksIsRejectedEvenWithoutExpectation) {
  BuildGen(1);
  ASSERT_TRUE(PublishCurrent(Root(), 1).ok());
  // Gen 5 is a *different* road network: same format, wrong world.
  network::RoadNetwork other = network::GenerateGridNetwork(4, 7, 150.0);
  network::GridIndex other_index(&other, 300.0);
  std::filesystem::create_directories(GenerationDir(Root(), 5));
  StoreWriter w;
  w.AddSection(kSectionNetwork, EncodeNetwork(other));
  w.AddSection(kSectionGrid, EncodeGridIndex(other_index));
  ASSERT_TRUE(w.Write(StorePath(Root(), 5),
                      network::NetworkFingerprint(other), 5)
                  .ok());
  // Opened with no expectation: the manager pins gen 1's own fingerprint.
  auto mgr = GenerationManager::Open(Root());
  ASSERT_TRUE(mgr.ok());
  auto swapped = (*mgr)->Swap(5);
  ASSERT_FALSE(swapped.ok());
  EXPECT_NE(swapped.status().ToString().find("fingerprint mismatch"),
            std::string::npos);
  EXPECT_EQ((*mgr)->Status().generation, 1);
}

TEST_F(GenerationsTest, OldGenerationUnmapsOnLastRelease) {
  BuildGen(1);
  BuildGen(2);
  ASSERT_TRUE(PublishCurrent(Root(), 1).ok());
  auto mgr = GenerationManager::Open(Root());
  ASSERT_TRUE(mgr.ok());

  GenerationHandle session_pin = (*mgr)->Current();
  std::weak_ptr<MappedStore> old_mapping = session_pin->store;

  ASSERT_TRUE((*mgr)->Swap(2).ok());
  // The manager dropped gen 1, but the session still pins it: the mapping
  // must stay alive (a live Viterbi column may be reading those pages).
  ASSERT_FALSE(old_mapping.expired());
  auto still_readable = session_pin->store->LoadNetwork();
  ASSERT_TRUE(still_readable.ok());

  session_pin.reset();
  // Last holder gone => the mapping is released, exactly now. Under ASan a
  // stale read through the old base pointer would be caught; here we assert
  // the control-block side of the contract.
  EXPECT_TRUE(old_mapping.expired());

  std::weak_ptr<MappedStore> new_mapping = (*mgr)->Current()->store;
  EXPECT_FALSE(new_mapping.expired());
}

// ---------------------------------------------------------------------------
// Write-time fault matrix: injected ENOSPC / failed fsync / failed rename
// during a store build or a CURRENT publish must never leave a readable
// partial and never move the commit point.
// ---------------------------------------------------------------------------

TEST_F(StoreTest, WriterFaultMatrixNeverLeavesAPartialStore) {
  for (const io::EnvOp op : {io::EnvOp::kWrite, io::EnvOp::kFsync,
                             io::EnvOp::kRename, io::EnvOp::kOpen}) {
    const std::string name =
        std::string("faulted_") + io::EnvOpName(op) + ".lds";
    const std::string path = Path(name);
    io::FaultEnv env;
    io::EnvFaultRule rule;
    rule.op = op;
    rule.path_substr = name;
    rule.at_count = 1;
    rule.fault_errno = ENOSPC;
    env.AddRule(rule);

    StoreWriter w;
    w.AddSection(kSectionNetwork, EncodeNetwork(net_));
    w.AddSection(kSectionGrid, EncodeGridIndex(*index_));
    const core::Status st = w.Write(path, fingerprint_, 1, &env);
    ASSERT_FALSE(st.ok()) << io::EnvOpName(op);
    EXPECT_EQ(env.injected_faults(), 1) << io::EnvOpName(op);
    // Nothing readable at the target, and the tmp working file is gone: a
    // generation directory can never hold a store that parses halfway.
    EXPECT_FALSE(std::filesystem::exists(path)) << io::EnvOpName(op);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << io::EnvOpName(op);

    // The identical retry (fault schedule exhausted) produces a store that
    // maps and validates completely.
    ASSERT_TRUE(w.Write(path, fingerprint_, 1, &env).ok());
    auto store = MappedStore::Open(path, fingerprint_);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
  }
}

class GenerationsFaultTest : public GenerationsTest {};

TEST_F(GenerationsFaultTest, FailedPublishNeverMovesCurrentOrTheServingHandle) {
  for (const io::EnvOp op :
       {io::EnvOp::kWrite, io::EnvOp::kFsync, io::EnvOp::kRename}) {
    const std::string root = Root() + "_" + io::EnvOpName(op);
    std::filesystem::create_directories(root);
    {
      StoreWriter w;
      w.AddSection(kSectionNetwork, EncodeNetwork(net_));
      w.AddSection(kSectionGrid, EncodeGridIndex(*index_));
      for (int64_t gen = 1; gen <= 2; ++gen) {
        std::filesystem::create_directories(GenerationDir(root, gen));
        ASSERT_TRUE(w.Write(StorePath(root, gen), fingerprint_, gen).ok());
      }
    }
    ASSERT_TRUE(PublishCurrent(root, 1).ok());

    io::FaultEnv env;
    io::EnvFaultRule rule;
    rule.op = op;
    rule.path_substr = "CURRENT";
    rule.at_count = 1;
    rule.fault_errno = ENOSPC;
    env.AddRule(rule);

    auto mgr = GenerationManager::Open(root, fingerprint_, &env);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    auto swapped = (*mgr)->Swap(2);
    ASSERT_FALSE(swapped.ok()) << io::EnvOpName(op);
    // The publish is the commit point: after its failure CURRENT still
    // names generation 1 (complete, not torn), the manager still serves 1,
    // and a worker restarted now opens 1.
    auto current = ReadCurrent(root);
    ASSERT_TRUE(current.ok()) << io::EnvOpName(op);
    EXPECT_EQ(*current, 1) << io::EnvOpName(op);
    EXPECT_EQ((*mgr)->Status().generation, 1) << io::EnvOpName(op);
    auto reopened = GenerationManager::Open(root, fingerprint_);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->Status().generation, 1);

    // Space frees: the same swap goes through and flips both views.
    auto retried = (*mgr)->Swap(2);
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(*ReadCurrent(root), 2);
    EXPECT_EQ((*mgr)->Status().generation, 2);
  }
}

}  // namespace
}  // namespace lhmm::store
