// Tests for crash durability: the CRC32-framed write-ahead journal
// (io::JournalWriter / io::ScanJournal), torn-tail vs mid-file corruption
// semantics with exact file+offset reporting, checkpoint rotation and
// compaction, snapshot versioning (a checked-in v1 fixture and a typed error
// on future versions), generation fallback past a corrupt newest snapshot,
// and the end-to-end contract: a server rebuilt by srv::Recover() after a
// simulated kill produces byte-identical committed output to an uninterrupted
// run over the same events — at 1 worker thread and at 8, with torn-tail and
// bit-flip journal faults injected.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "hmm/classic_models.h"
#include "io/fault_file.h"
#include "io/journal.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "srv/match_server.h"
#include "srv/recovery.h"
#include "srv/snapshot.h"
#include "traj/trajectory.h"

#ifndef LHMM_TEST_DATA_DIR
#define LHMM_TEST_DATA_DIR "tests/data"
#endif

namespace lhmm {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// io::Crc32 and the journal framing.
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The IEEE 802.3 check value: CRC-32 of the ASCII digits "123456789".
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0u);
}

TEST(JournalTest, RoundTripRotationCompactionAndReopen) {
  const std::string dir = FreshDir("journal_roundtrip");
  io::JournalOptions options;
  options.fsync = io::FsyncPolicy::kNone;
  options.segment_bytes = 64;  // Tiny: a handful of records forces rotation.
  auto writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int i = 1; i <= 10; ++i) {
    auto index = (*writer)->Append("record-" + std::to_string(i));
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ(*index, i);
    // Commit per record: rotation is checked at the group-commit boundary,
    // so segment growth is only visible to it there.
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  EXPECT_GT((*writer)->segment_count(), 1);

  auto scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean);
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->next_index, 11);
  ASSERT_EQ(scan->records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(scan->records[i].index, i + 1);
    EXPECT_EQ(scan->records[i].payload, "record-" + std::to_string(i + 1));
  }

  // Compaction deletes only segments wholly covered by the snapshot: the
  // record sequence afterwards is still a contiguous suffix ending at 10.
  ASSERT_TRUE((*writer)->CompactThrough(5).ok());
  scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok());
  ASSERT_FALSE(scan->records.empty());
  EXPECT_GT(scan->records.front().index, 1);
  EXPECT_LE(scan->records.front().index, 6);
  EXPECT_EQ(scan->records.back().index, 10);

  // Reopen continues the global index sequence where the log ended.
  writer->reset();
  writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->next_index(), 11);
  auto index = (*writer)->Append("record-11");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 11);
}

TEST(JournalTest, TornTailOnTheFinalSegmentIsACleanCrash) {
  const std::string dir = FreshDir("journal_torn");
  io::JournalOptions options;
  options.fsync = io::FsyncPolicy::kNone;
  auto writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE((*writer)->Append("aaaa").ok());
  }
  ASSERT_TRUE((*writer)->Commit().ok());
  writer->reset();

  // Chop 5 bytes off the tail: the last record's frame is incomplete, which
  // is exactly what a crash mid-write leaves behind. Not corruption.
  const std::string segment = io::JournalSegmentPath(dir, 1);
  ASSERT_TRUE(io::TornTail(segment, 5).ok());
  auto scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 4u);
  EXPECT_EQ(scan->next_index, 5);

  // Open() repairs the tail in place and appends on a record boundary.
  writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->next_index(), 5);
  ASSERT_TRUE((*writer)->Append("bbbb").ok());
  ASSERT_TRUE((*writer)->Commit().ok());
  scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 5u);
  EXPECT_EQ(scan->records.back().payload, "bbbb");
}

TEST(JournalTest, BitflipIsCorruptionWithFileAndOffset) {
  const std::string dir = FreshDir("journal_bitflip");
  io::JournalOptions options;
  options.fsync = io::FsyncPolicy::kNone;
  auto writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE((*writer)->Append("aaaa").ok());  // Frame: 8 + 4 bytes.
  }
  ASSERT_TRUE((*writer)->Commit().ok());
  writer->reset();

  // Flip one payload bit of record 2 (header 16, then 12-byte frames): the
  // frame is complete, the CRC no longer matches — corruption, never a torn
  // tail, even though it sits in the final segment.
  const std::string segment = io::JournalSegmentPath(dir, 1);
  const int64_t record2_payload = 16 + 12 + 8 + 1;
  ASSERT_TRUE(io::FlipBit(segment, record2_payload, 3).ok());
  auto scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  EXPECT_EQ(scan->records.size(), 1u) << "only the prefix before the flip";
  const std::string message = scan->corruption.message();
  EXPECT_NE(message.find(segment), std::string::npos) << message;
  EXPECT_NE(message.find("offset"), std::string::npos) << message;

  // The writer repairs by truncating the corrupt suffix.
  writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->next_index(), 2);
}

TEST(JournalTest, GarbageOverAFrameHeaderIsCorruptionWithOffset) {
  const std::string dir = FreshDir("journal_garbage");
  io::JournalOptions options;
  options.fsync = io::FsyncPolicy::kNone;
  auto writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE((*writer)->Append("aaaa").ok());
  }
  ASSERT_TRUE((*writer)->Commit().ok());
  writer->reset();

  // Overwrite record 3's length prefix with ASCII garbage: an impossible
  // frame. The scan stops there and names the exact spot.
  const std::string segment = io::JournalSegmentPath(dir, 1);
  const int64_t record3_frame = 16 + 2 * 12;
  ASSERT_TRUE(io::InjectGarbage(segment, record3_frame, "ZZZZZZZZ").ok());
  auto scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  EXPECT_EQ(scan->records.size(), 2u);
  const std::string message = scan->corruption.message();
  EXPECT_NE(message.find(segment), std::string::npos) << message;
  EXPECT_NE(message.find("offset"), std::string::npos) << message;
}

TEST(JournalTest, EmptyNonFinalSegmentIsCorruption) {
  const std::string dir = FreshDir("journal_empty_segment");
  io::JournalOptions options;
  options.fsync = io::FsyncPolicy::kNone;
  options.segment_bytes = 64;
  auto writer = io::JournalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE((*writer)->Append("record-" + std::to_string(i)).ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }
  ASSERT_GT((*writer)->segment_count(), 1);
  writer->reset();

  // Zero out the FIRST segment: records are missing from the middle of the
  // global sequence, which can never be a clean crash signature.
  const std::string first = io::JournalSegmentPath(dir, 1);
  ASSERT_TRUE(io::ShortenFileTo(first, 0).ok());
  auto scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  EXPECT_TRUE(scan->records.empty());
  EXPECT_NE(scan->corruption.message().find(first), std::string::npos)
      << scan->corruption.message();
}

// ---------------------------------------------------------------------------
// Snapshot versioning: the v1 fixture, and typed rejection of the future.
// ---------------------------------------------------------------------------

constexpr char kV1Fixture[] = LHMM_TEST_DATA_DIR "/match_server_v1.snap";

TEST(SnapshotVersionTest, V1FixtureLoadsWithDefaultedNewFields) {
  auto snap = srv::LoadServerSnapshot(kV1Fixture);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->clock, 1);
  EXPECT_EQ(snap->journal_pos, 0) << "v1 predates the journal";
  ASSERT_EQ(snap->sessions.size(), 1u);
  EXPECT_EQ(snap->sessions[0].deadline_tick, -1)
      << "v1 predates persisted deadlines: the sentinel asks restore to "
         "re-arm the server default";
  EXPECT_EQ(snap->sessions[0].checkpoint.session.online.pushed, 3);
}

TEST(SnapshotVersionTest, UnknownFutureVersionIsATypedError) {
  const std::string path = ::testing::TempDir() + "/future.snap";
  {
    std::ofstream out(path);
    out << "lhmm-snapshot match-server "
        << (srv::kServerSnapshotVersion + 1) << "\nclock 0\n";
  }
  auto snap = srv::LoadServerSnapshot(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.status().message().find("unsupported snapshot version"),
            std::string::npos)
      << snap.status().ToString();
}

// ---------------------------------------------------------------------------
// End-to-end: a world matching lhmm_serve's defaults, so the checked-in v1
// fixture (drained from that binary) continues byte-identically here.
// ---------------------------------------------------------------------------

class DurabilityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new network::RoadNetwork(network::GenerateGridNetwork(10, 10, 200.0));
    index_ = new network::GridIndex(net_, 300.0);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete net_;
    index_ = nullptr;
    net_ = nullptr;
  }

  static std::vector<srv::TierSpec> Tiers() {
    const network::RoadNetwork* net = net_;
    const network::GridIndex* index = index_;
    hmm::ClassicModelConfig models;
    std::vector<srv::TierSpec> tiers;
    tiers.push_back({"IVMM", [net, index, models] {
                       return std::make_unique<matchers::IvmmMatcher>(
                           net, index, models, /*k=*/10);
                     }});
    hmm::EngineConfig stm_engine;
    stm_engine.k = 8;
    tiers.push_back({"STM", [net, index, models, stm_engine] {
                       return std::make_unique<matchers::StmMatcher>(
                           net, index, models, stm_engine);
                     }});
    return tiers;
  }

  static srv::ServerConfig Config(int threads) {
    srv::ServerConfig config;
    config.engine.num_threads = threads;
    config.engine.lag = 8;
    config.engine.max_inbox = 8;  // Small on purpose: replay has to wait out
                                  // inbox backpressure, not fail on it.
    return config;
  }

  /// Point p of session c's walk: along grid row c, the same geometry the
  /// v1 fixture and the subprocess gauntlet use.
  static traj::TrajPoint Pt(int c, int p) {
    return {{10.0 + 180.0 * p, 200.0 * (c % 10) + 10.0},
            15.0 * p,
            static_cast<traj::TowerId>(p)};
  }

  /// Pushes one point, waiting out engine backpressure the way a client
  /// (or replay) would. Any other failure is fatal to the test.
  static void MustPush(srv::MatchServer* server, int64_t id,
                       const traj::TrajPoint& point) {
    for (;;) {
      const core::Status st = server->Push(id, point);
      if (st.ok()) return;
      ASSERT_EQ(st.code(), core::StatusCode::kUnavailable)
          << st.ToString();
      server->Barrier();
    }
  }

  /// The oracle: an uninterrupted, non-durable run of `sessions` full walks
  /// of `points` points. Returns each session's final committed path.
  static std::vector<std::vector<network::SegmentId>> Oracle(int sessions,
                                                             int points,
                                                             int threads) {
    srv::MatchServer server(Tiers(), Config(threads));
    for (int c = 0; c < sessions; ++c) {
      auto id = server.OpenSession();
      EXPECT_TRUE(id.ok());
    }
    server.Tick(1);
    int64_t tick = 1;
    for (int p = 0; p < points; ++p) {
      for (int c = 0; c < sessions; ++c) MustPush(&server, c, Pt(c, p));
      server.Tick(++tick);
    }
    for (int c = 0; c < sessions; ++c) {
      EXPECT_TRUE(server.Finish(c).ok());
    }
    server.Barrier();
    std::vector<std::vector<network::SegmentId>> out;
    for (int c = 0; c < sessions; ++c) out.push_back(server.Committed(c));
    return out;
  }

  static network::RoadNetwork* net_;
  static network::GridIndex* index_;
};

network::RoadNetwork* DurabilityTest::net_ = nullptr;
network::GridIndex* DurabilityTest::index_ = nullptr;

TEST_F(DurabilityTest, OracleIsDeterministicAcrossThreadCounts) {
  // The byte-identity claim leans on committed output being a pure function
  // of the event order; pin that before testing recovery against it.
  EXPECT_EQ(Oracle(3, 12, 1), Oracle(3, 12, 8));
}

TEST_F(DurabilityTest, V1FixtureRestoresAndContinuesByteIdentically) {
  auto restored =
      srv::MatchServer::Restore(kV1Fixture, Tiers(), Config(1));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  srv::MatchServer& server = **restored;
  ASSERT_EQ(server.num_sessions(), 1);
  ASSERT_EQ(server.state(0), matchers::SessionState::kLive);
  // The fixture holds points 0..2 of session 0's walk; finish it.
  for (int p = 3; p < 8; ++p) MustPush(&server, 0, Pt(0, p));
  ASSERT_TRUE(server.Finish(0).ok());
  server.Barrier();
  EXPECT_EQ(server.Committed(0), Oracle(1, 8, 1)[0]);
}

TEST_F(DurabilityTest, V1FixtureReArmsTheDefaultDeadline) {
  // deadline_tick == -1 (unknown, v1) must fall back to the server's default
  // deadline — the pre-v2 restore behavior — not to "no deadline".
  srv::ServerConfig config = Config(1);
  config.default_deadline_ticks = 20;
  auto restored = srv::MatchServer::Restore(kV1Fixture, Tiers(), config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  srv::MatchServer& server = **restored;
  server.Tick(50);  // Snapshot clock is 1; the re-armed deadline is 21.
  server.Barrier();
  EXPECT_EQ(server.SessionStatus(0).code(),
            core::StatusCode::kDeadlineExceeded);
}

TEST_F(DurabilityTest, CheckpointRotatesPrunesAndCompacts) {
  const std::string dir = FreshDir("durability_rotate");
  srv::MatchServer server(Tiers(), Config(1));
  srv::DurabilityConfig durability;
  durability.dir = dir;
  durability.journal.fsync = io::FsyncPolicy::kNone;
  durability.journal.segment_bytes = 64;  // Rotate at every tick commit.
  durability.keep_snapshots = 2;
  ASSERT_TRUE(server.EnableDurability(durability).ok());

  auto id = server.OpenSession();
  ASSERT_TRUE(id.ok());
  int64_t tick = 0;
  for (int round = 0; round < 3; ++round) {
    for (int p = round * 4; p < (round + 1) * 4; ++p) {
      MustPush(&server, 0, Pt(0, p));
    }
    server.Tick(++tick);
    ASSERT_TRUE(server.Checkpoint().ok());
  }
  // Three checkpoints, keep_snapshots=2: generation 1 is pruned, and the
  // journal has been compacted behind the OLDEST kept generation (2), so a
  // fallback past generation 3 still has its replay suffix. Only whole
  // segments are deleted, so the surviving log is a contiguous run that
  // starts at or before gen2's coverage point and after record 1.
  EXPECT_EQ(srv::ListSnapshotGenerations(dir), (std::vector<int>{2, 3}));
  auto gen2 = srv::LoadServerSnapshot(srv::SnapshotGenPath(dir, 2));
  ASSERT_TRUE(gen2.ok());
  EXPECT_GT(gen2->journal_pos, 0);
  auto scan = io::ScanJournal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  ASSERT_FALSE(scan->records.empty());
  EXPECT_GT(scan->records.front().index, 1) << "nothing was compacted";
  EXPECT_LE(scan->records.front().index, gen2->journal_pos + 1)
      << "compaction overshot the oldest kept generation's replay suffix";
  for (size_t i = 1; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].index, scan->records[i - 1].index + 1);
  }
  // In-progress temp files and junk never count as generations.
  std::ofstream(dir + "/snapshot-000009.snap.tmp") << "partial";
  std::ofstream(dir + "/notes.txt") << "junk";
  EXPECT_EQ(srv::ListSnapshotGenerations(dir), (std::vector<int>{2, 3}));
}

TEST_F(DurabilityTest, RecoverOnAnEmptyDirStartsFresh) {
  const std::string dir = FreshDir("durability_fresh");
  srv::DurabilityConfig durability;
  durability.dir = dir;
  durability.journal.fsync = io::FsyncPolicy::kNone;
  srv::RecoveryReport report;
  auto server = srv::Recover(Tiers(), Config(1), durability, &report);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(report.snapshot_generation, 0);
  EXPECT_EQ(report.journal_replayed, 0);
  EXPECT_TRUE((*server)->durable());
  EXPECT_TRUE((*server)->OpenSession().ok());
}

TEST_F(DurabilityTest, ReplayVerbsRejectBadSessionsWithTypedCodes) {
  // Session 0 existed at snapshot time but was not restored; session 1 is
  // replayed open and then closed.
  srv::ServerSnapshot snap;
  snap.total_sessions = 1;
  auto restored = srv::MatchServer::FromSnapshot(snap, Tiers(), Config(1), "test");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  srv::MatchServer& server = **restored;
  ASSERT_TRUE(server.ReplayOpen(1, /*tier=*/0).ok());
  ASSERT_TRUE(server.ReplayFinish(1).ok());

  using core::StatusCode;
  const struct {
    int64_t id;
    StatusCode code;
  } kCases[] = {{-1, StatusCode::kInvalidArgument},
                {2, StatusCode::kInvalidArgument},
                {0, StatusCode::kUnavailable},
                {1, StatusCode::kFailedPrecondition}};
  for (const auto& c : kCases) {
    SCOPED_TRACE("session " + std::to_string(c.id));
    EXPECT_EQ(server.ReplayPush(c.id, Pt(0, 0)).code(), c.code);
    EXPECT_EQ(server.ReplayFinish(c.id).code(), c.code);
    EXPECT_EQ(server.ReplaySetDeadline(c.id, 10).code(), c.code);
  }
  EXPECT_EQ(server.ReplayPush(2, Pt(0, 0)).message(),
            "journaled push names session 2, outside the id space");
  EXPECT_EQ(server.ReplayFinish(2).message(),
            "journaled finish names session 2, outside the id space");
  EXPECT_EQ(server.ReplaySetDeadline(2, 10).message(),
            "journaled deadline names session 2, outside the id space");
  EXPECT_EQ(server.ReplayFinish(0).message(),
            "session 0 was not restored (not checkpointable)");
  EXPECT_EQ(server.ReplayPush(1, Pt(0, 0)).message(),
            "session 1 closed earlier in replay");
}

/// The in-process crash-sim: run part of the workload durably, "crash" (drop
/// the server with no drain or shutdown checkpoint), optionally mangle the
/// storage, Recover, resume each session from its durable pushed count, and
/// demand byte-identical committed output vs the uninterrupted oracle.
struct CrashCase {
  const char* name;
  /// Post-crash storage mangling: 0 none, 1 torn journal tail, 2 bit flip in
  /// the journal, 3 corrupt newest snapshot (+ a partial .tmp) to force
  /// generation fallback.
  int fault;
};

class DurabilityCrashTest : public DurabilityTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(DurabilityCrashTest, KillRecoverResumeIsByteIdentical) {
  const int threads = GetParam();
  const int sessions = 3;
  const int points = 12;
  const auto oracle = Oracle(sessions, points, threads);
  const CrashCase kCases[] = {
      {"clean-kill", 0}, {"torn-tail", 1}, {"bitflip", 2}, {"bad-snapshot", 3}};

  for (const CrashCase& cc : kCases) {
    SCOPED_TRACE(cc.name);
    const std::string dir =
        FreshDir(std::string("durability_crash_") + cc.name + "_" +
                 std::to_string(threads));
    srv::DurabilityConfig durability;
    durability.dir = dir;
    // Every acknowledged event is on stable storage: the crash loses nothing
    // except what the fault injector then destroys.
    durability.journal.fsync = io::FsyncPolicy::kEveryRecord;
    durability.keep_snapshots = 2;

    {  // The victim: checkpoint mid-stream, keep pushing, then vanish.
      srv::MatchServer server(Tiers(), Config(threads));
      ASSERT_TRUE(server.EnableDurability(durability).ok());
      for (int c = 0; c < sessions; ++c) {
        ASSERT_TRUE(server.OpenSession().ok());
      }
      server.Tick(1);
      ASSERT_TRUE(server.Checkpoint().ok());  // Generation 1: covers opens.
      int64_t tick = 1;
      for (int p = 0; p < points / 2; ++p) {
        for (int c = 0; c < sessions; ++c) MustPush(&server, c, Pt(c, p));
        server.Tick(++tick);
      }
      ASSERT_TRUE(server.Checkpoint().ok());  // Generation 2: half-way.
      for (int c = 0; c < sessions; ++c) {
        MustPush(&server, c, Pt(c, points / 2));
      }
      server.Tick(++tick);
      // No drain, no shutdown checkpoint: the destructor is the kill.
    }

    if (cc.fault == 1 || cc.fault == 2) {
      auto scan = io::ScanJournal(dir, /*keep_payloads=*/false);
      ASSERT_TRUE(scan.ok());
      ASSERT_FALSE(scan->segments.empty());
      const std::string tail = scan->segments.back().path;
      auto size = io::FileSize(tail);
      ASSERT_TRUE(size.ok());
      ASSERT_GT(*size, 25);
      if (cc.fault == 1) {
        ASSERT_TRUE(io::TornTail(tail, 7).ok());
      } else {
        ASSERT_TRUE(io::FlipBit(tail, *size - 9, 3).ok());
      }
    } else if (cc.fault == 3) {
      const std::vector<int> gens = srv::ListSnapshotGenerations(dir);
      ASSERT_FALSE(gens.empty());
      const std::string newest = srv::SnapshotGenPath(dir, gens.back());
      ASSERT_TRUE(io::ShortenFileTo(newest, 40).ok());
      std::ofstream(dir + "/snapshot-000099.snap.tmp") << "half a snapshot";
    }

    srv::RecoveryReport report;
    auto recovered = srv::Recover(Tiers(), Config(threads), durability,
                                  &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    srv::MatchServer& server = **recovered;
    if (cc.fault == 1) {
      EXPECT_TRUE(report.journal_torn_tail);
    }
    if (cc.fault == 2) {
      EXPECT_FALSE(report.journal_corruption.empty());
    }
    if (cc.fault == 3) {
      EXPECT_FALSE(report.snapshots_skipped.empty())
          << "the mangled newest generation must be skipped, not fatal";
    }

    // Resume every session from its durable progress and run to the end.
    ASSERT_EQ(server.num_sessions(), sessions);
    int64_t tick = server.clock();
    for (int c = 0; c < sessions; ++c) {
      ASSERT_EQ(server.state(c), matchers::SessionState::kLive);
      const int64_t pushed = server.Stats(c).points_pushed;
      ASSERT_GE(pushed, 0);
      ASSERT_LE(pushed, points);
      for (int p = static_cast<int>(pushed); p < points; ++p) {
        MustPush(&server, c, Pt(c, p));
      }
      server.Tick(++tick);
    }
    for (int c = 0; c < sessions; ++c) {
      ASSERT_TRUE(server.Finish(c).ok());
    }
    server.Barrier();
    for (int c = 0; c < sessions; ++c) {
      EXPECT_EQ(server.Committed(c), oracle[c])
          << "session " << c << " diverged after " << cc.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, DurabilityCrashTest,
                         ::testing::Values(1, 8));

}  // namespace
}  // namespace lhmm
