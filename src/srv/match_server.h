#ifndef LHMM_SRV_MATCH_SERVER_H_
#define LHMM_SRV_MATCH_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "io/journal.h"
#include "matchers/stream_engine.h"
#include "network/faulty_router.h"
#include "srv/admission.h"
#include "srv/degrade.h"
#include "srv/disk_guard.h"
#include "srv/snapshot.h"
#include "srv/watchdog.h"

namespace lhmm::srv {

/// One rung of the degrade ladder: a display name ("LHMM", "IVMM", "STM") and
/// the factory that clones its matcher. Tier 0 is full quality; higher tiers
/// are progressively cheaper fallbacks.
struct TierSpec {
  std::string name;
  matchers::MatcherFactory factory;
};

/// Where and how a server persists itself for crash recovery: one directory
/// holding the write-ahead journal segments (wal-*.seg) and rotated snapshot
/// generations (snapshot-*.snap).
struct DurabilityConfig {
  std::string dir;
  io::JournalOptions journal;
  /// Snapshot generations kept after a checkpoint (>= 1). Older generations
  /// are deleted; recovery falls back from a corrupt newest generation to the
  /// next one, so keeping 2+ is what makes a torn/corrupt snapshot survivable.
  int keep_snapshots = 2;
  /// Syscall boundary for every durable write (journal, snapshots). nullptr =
  /// io::Env::Default(); tests inject an io::FaultEnv. Also used as
  /// journal.env when that is unset.
  io::Env* env = nullptr;
  /// Disk-space watermarks driving the degraded-nondurable state machine.
  DiskGuardConfig disk_guard;
};

struct ServerConfig {
  /// The shared StreamEngine under the server (threads, lag, backpressure,
  /// TTL). Its shared_router may be a FaultyRouter to inject faults.
  matchers::StreamEngineConfig engine;
  AdmissionConfig admission;
  DegradeConfig degrade;
  WatchdogConfig watchdog;
  /// Deadline armed on every session at open, in logical ticks from the
  /// current clock; 0 = no default deadline. Clients may override per session
  /// with SetDeadline.
  int64_t default_deadline_ticks = 0;
  /// Optional fault-signal source for the degrade ladder: when set, injected
  /// route failures observed between ticks count as pressure. Usually the
  /// same FaultyRouter installed as engine.shared_router.
  network::FaultyRouter* fault_signal = nullptr;
};

/// Aggregate serving counters, all producer-side.
struct ServerMetrics {
  int64_t opens_admitted = 0;
  int64_t opens_shed = 0;
  int64_t pushes_admitted = 0;
  int64_t pushes_shed = 0;      ///< Refused by admission (typed rejects).
  int64_t pushes_rejected = 0;  ///< Refused by the engine (validation/backpressure).
  int64_t expired_sessions = 0;
  int64_t quarantined_sessions = 0;
  int64_t evicted_sessions = 0;
  int64_t downgrades = 0;
  int64_t upgrades = 0;
  int active_tier = 0;
  int64_t live_sessions = 0;
  int64_t queue_depth = 0;
  int64_t clock = 0;
  /// Live sessions skipped by the last Checkpoint() because their matcher
  /// family is not checkpointable (they keep serving but are not crash-durable).
  int64_t sessions_not_durable = 0;
};

/// Durability state a durable server publishes (the `status` verb of
/// lhmm_serve reports these). All zero when durability is disabled.
struct DurabilityStatus {
  bool enabled = false;
  int64_t journal_segments = 0;
  int64_t journal_bytes = 0;
  /// Highest journal record index written and flushed per the fsync policy.
  int64_t last_durable_index = 0;
  /// Clock value of the last tick record flushed to the journal (under
  /// FsyncPolicy::kNone this means "handed to the OS", not on stable storage).
  int64_t last_durable_tick = 0;
  /// Newest snapshot generation written by Checkpoint(); 0 before the first.
  int snapshot_generation = 0;
  /// Events applied but not journaled because the journal write failed, plus
  /// tick-commit failures. Non-zero means recovery may not cover everything
  /// the server acknowledged — alert on it.
  int64_t journal_errors = 0;
  /// True while the server is explicitly serving without durability: the
  /// disk guard tripped (or the journal wedged / kept failing) and
  /// journaling is suspended until space frees and a fresh checkpoint
  /// succeeds. Under FsyncPolicy::kEveryRecord, pushes in this state are
  /// acked with kDataLoss so clients know the promise is off.
  bool degraded_nondurable = false;
  /// Times the server entered / left degraded-nondurable mode.
  int64_t degraded_entered = 0;
  int64_t degraded_exited = 0;
  /// Events applied while degraded and therefore never journaled. They are
  /// covered by the checkpoint that exits degraded mode, but a crash inside
  /// the window (or a fallback to an older snapshot generation) loses them.
  int64_t events_not_journaled = 0;
  /// Failed commits survived by sealing the tail segment and rotating.
  int64_t journal_seal_events = 0;
  /// True once the journal could not even repair a failed commit; the server
  /// stays degraded-nondurable until restarted.
  bool journal_wedged = false;
  /// Last free-space sample the disk guard saw (-1 before the first).
  int64_t disk_free_bytes = -1;
};

/// The serving front end over matchers::StreamEngine: what turns the matching
/// library into something that survives production traffic. Layers, outermost
/// first:
///
///  1. Admission control (srv::AdmissionController) — token-bucket rate
///     limits and queue-depth load shedding decide *before* any work is
///     queued. Refusals are typed Statuses (kResourceExhausted /
///     kUnavailable), never silent drops.
///  2. Deadlines — every session can carry an absolute logical-clock
///     deadline; when Tick passes it the session is closed through the
///     engine's normal flush path, so Committed() still returns the partial
///     prefix and SessionStatus() reports kDeadlineExceeded.
///  3. Degrade ladder (srv::DegradeLadder) — under sustained overload or
///     injected route failures, new sessions are opened with progressively
///     cheaper matcher tiers (LHMM -> IVMM -> STM) and recover when pressure
///     clears. The active tier is published via active_tier()/metrics().
///  4. Watchdog (srv::Watchdog) — wedged session pumps (queued events, no
///     heartbeat progress) are quarantined through the engine's SessionError
///     path so the rest of the fleet keeps serving.
///  5. Drain/restore — Drain() checkpoints every live session to a versioned
///     snapshot file; Restore() brings up a server that resumes those
///     sessions with byte-identical continued output.
///  6. Crash durability (EnableDurability) — every externally visible event
///     (open/push/finish/deadline/tick) is appended to an io::JournalWriter
///     after it is applied, and Checkpoint() writes rotated snapshot
///     generations then compacts the journal behind them. srv::Recover()
///     rebuilds a kill -9'd server from newest-valid-snapshot + journal
///     suffix; because replay applies a prefix of the original event order,
///     the recovered committed output is byte-identical to an uninterrupted
///     run (see src/srv/recovery.h for the full argument and caveats).
///
/// Threading contract: all methods are producer-side (one thread, or
/// externally synchronized), exactly like StreamEngine; worker parallelism
/// lives inside the engine. Every control decision (admission, deadline,
/// tier, quarantine) is made on the producer thread from producer state, so
/// token-bucket shedding, expiry, and tier moves are deterministic across
/// thread counts; only queue-depth shedding is load-dependent (see
/// AdmissionConfig).
class MatchServer {
 public:
  /// `tiers` must be non-empty; tier 0 is the default (full-quality) tier.
  MatchServer(std::vector<TierSpec> tiers, const ServerConfig& config);
  ~MatchServer();

  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// Admits and opens a session at the active degrade tier. Typed failures:
  /// kUnavailable (draining or session limit), kResourceExhausted (rate
  /// limit), kUnimplemented (the tier's family has no streaming form).
  core::Result<int64_t> OpenSession();

  /// Admits and enqueues one point. Typed failures: kNotFound (no session
  /// `id`), kUnavailable (draining / overload), kResourceExhausted (rate
  /// limit), kDeadlineExceeded (session expired; Committed() holds the partial
  /// prefix), kInvalidArgument (malformed point), kFailedPrecondition (closed
  /// session).
  core::Status Push(int64_t id, const traj::TrajPoint& point);

  /// Ends a session's stream; its committed path becomes final. kNotFound
  /// when there is no session `id`.
  core::Status Finish(int64_t id);

  /// Arms (0 disarms) an absolute logical-clock deadline on a live session.
  /// kNotFound when there is no session `id`.
  core::Status SetDeadline(int64_t id, int64_t deadline_tick);

  /// The server's heartbeat: advances the logical clock, refills admission
  /// buckets, expires deadlines, runs the watchdog over session heartbeats,
  /// samples pressure, and moves the degrade ladder. Call at a steady cadence
  /// (the tick is the server's only notion of time).
  void Tick(int64_t now);

  /// Blocks until every enqueued event is processed (engine barrier).
  void Barrier();

  int64_t num_sessions() const;
  /// kNotFound ("no session <id>") unless `id` names a session of this
  /// server. Push, Finish and SetDeadline apply it themselves; callers of the
  /// read accessors below must, since those CHECK the id.
  core::Status CheckId(int64_t id) const;
  matchers::SessionState state(int64_t id) const;
  bool finished(int64_t id) const;

  /// The session's serving status: OK for live/finished sessions, otherwise
  /// the typed reason it stopped (kDeadlineExceeded with partial results,
  /// kUnavailable for quarantine/eviction/non-restored, or the pump error).
  core::Status SessionStatus(int64_t id) const;

  std::vector<network::SegmentId> Committed(int64_t id) const;
  matchers::SessionStats Stats(int64_t id) const;

  /// Events the session's pump has fully processed (lock-free; safe to poll
  /// while the pump runs). 0 for sessions without a live engine slot.
  int64_t ProcessedEvents(int64_t id) const;

  /// The degrade tier this session was opened at.
  int session_tier(int64_t id) const;
  const std::string& tier_name(int tier) const { return tiers_[tier].name; }

  int active_tier() const { return ladder_.tier(); }
  const std::string& active_tier_name() const {
    return tiers_[ladder_.tier()].name;
  }
  int64_t clock() const { return clock_; }
  bool draining() const { return draining_; }

  ServerMetrics metrics() const;

  /// Graceful drain: stops admitting (subsequent opens/pushes fail with
  /// kUnavailable "draining"), flushes every inbox, checkpoints every live
  /// session, and writes the versioned snapshot to `path` atomically. Live
  /// sessions whose family cannot checkpoint are finished instead (their
  /// output is final, not resumable). The server stays queryable afterwards.
  /// On failure no state changes: the server resumes serving (draining()
  /// stays false, every session stays open), so the caller can retry with a
  /// writable path or fall through to its shutdown drain.
  core::Status Drain(const std::string& path);

  /// Brings up a server from a Drain() snapshot: every checkpointed session
  /// is reopened at its original tier and resumes with byte-identical
  /// continued output; session ids are preserved. Ids that were not
  /// resumable report kUnavailable from SessionStatus().
  static core::Result<std::unique_ptr<MatchServer>> Restore(
      const std::string& path, std::vector<TierSpec> tiers,
      const ServerConfig& config);

  /// Restore() from an already-loaded snapshot (srv::Recover loads it with
  /// generation fallback before calling this). `origin` names the snapshot's
  /// source file for error messages.
  static core::Result<std::unique_ptr<MatchServer>> FromSnapshot(
      const ServerSnapshot& snap, std::vector<TierSpec> tiers,
      const ServerConfig& config, const std::string& origin);

  /// Turns on crash durability: opens (and repairs, after a crash) the
  /// write-ahead journal in `config.dir` and starts journaling every
  /// externally visible event. Precondition: any records already in the
  /// journal are already applied to this server — true for a fresh directory
  /// and for a server built by srv::Recover(), which replays them first.
  /// Calling it on some other populated directory double-applies history.
  core::Status EnableDurability(const DurabilityConfig& config);

  bool durable() const { return journal_ != nullptr; }
  DurabilityStatus durability_status() const;

  /// Live checkpoint (durable servers only): flushes the journal, barriers
  /// the engine, snapshots every live checkpointable session WITHOUT closing
  /// anything, writes the next snapshot generation atomically, prunes
  /// generations beyond keep_snapshots, and compacts journal segments the new
  /// snapshot covers. Sessions whose family cannot checkpoint keep serving
  /// but are not crash-durable (counted in metrics().sessions_not_durable).
  /// Refused with a typed kUnavailable while the server is
  /// degraded-nondurable: a checkpoint taken on a full disk would fail half
  /// way at best, and pretending to checkpoint is exactly the lie the
  /// degraded state exists to avoid (recovery exits the state internally).
  core::Status Checkpoint();

  /// True while serving without durability after resource exhaustion; see
  /// DurabilityStatus::degraded_nondurable.
  bool degraded_nondurable() const { return degraded_nondurable_; }

  /// Replay entry points used by srv::Recover() to re-apply journaled events
  /// after a crash. They bypass admission, the degrade ladder, and default
  /// deadlines armed from the current clock (the journal already recorded the
  /// admitted outcome: the open's tier, the deadline's absolute tick), never
  /// journal, and wait out inbox backpressure — a journaled event was
  /// accepted once, so replay must accept it too. ReplayOpen checks that ids
  /// come back dense in recorded order (kInternal otherwise).
  core::Status ReplayOpen(int64_t id, int tier);
  core::Status ReplayPush(int64_t id, const traj::TrajPoint& point);
  core::Status ReplayFinish(int64_t id);
  core::Status ReplaySetDeadline(int64_t id, int64_t deadline_tick);
  void ReplayTick(int64_t now);

 private:
  struct Sess {
    matchers::SessionId engine_id = -1;
    int tier = 0;
    bool open = false;     ///< Server-side: still accepting pushes.
    bool missing = false;  ///< Existed pre-drain but was not restored.
  };

  /// The session a replayed push/finish/deadline (`event`) names: typed
  /// kInvalidArgument outside the id space, kUnavailable when it was not
  /// restored, kFailedPrecondition when it closed earlier in replay.
  core::Result<Sess*> ReplaySession(int64_t id, const char* event);
  /// Total queued events across sessions with a live engine slot.
  int64_t QueueDepth() const;
  const Sess& sess(int64_t id) const;

  /// Captures clock/tier/id-space plus a checkpoint of every live session
  /// (engine must be quiescent — callers barrier first). Non-destructive.
  /// Sessions whose family cannot checkpoint go to `unsupported` instead.
  core::Result<ServerSnapshot> CaptureSnapshot(
      std::vector<int64_t>* unsupported);
  /// Appends one event line to the journal when durability is on. The event
  /// has already been applied, so the server stays live on failure; but
  /// under FsyncPolicy::kEveryRecord a failed append/fsync (or a suspended
  /// journal in degraded-nondurable mode) broke the per-record durability
  /// promise for this event, and the caller gets a typed kDataLoss status
  /// to forward as the ack.
  core::Status JournalAppend(const std::string& line);
  /// Samples the disk guard (statvfs via the Env) and applies its
  /// transitions; also forces degraded mode on journal wedge or a streak of
  /// failed tick-commits, and attempts restoration once conditions clear.
  void UpdateDiskGuard();
  /// Flips into degraded-nondurable mode (idempotent).
  void EnterDegraded(const std::string& why);
  /// Leaves degraded-nondurable mode by taking a fresh checkpoint that
  /// covers the un-journaled window. No-op (stays degraded) on failure.
  void TryRestoreDurability();
  /// Checkpoint() without the degraded-mode refusal (the restore path).
  core::Status DoCheckpoint();
  /// Deletes snapshot generations older than the newest keep_snapshots.
  void PruneSnapshots();

  std::vector<TierSpec> tiers_;
  ServerConfig config_;
  std::unique_ptr<matchers::StreamEngine> engine_;
  AdmissionController admission_;
  DegradeLadder ladder_;
  Watchdog watchdog_;
  bool draining_ = false;
  int64_t clock_ = 0;
  std::vector<Sess> sessions_;
  int64_t opens_admitted_ = 0;
  int64_t pushes_admitted_ = 0;
  /// Deltas for pressure sampling.
  int64_t last_route_failures_ = 0;
  int64_t last_rejected_pushes_ = 0;
  /// Crash durability (null/zero until EnableDurability).
  std::unique_ptr<io::JournalWriter> journal_;
  DurabilityConfig durability_;
  io::Env* env_ = nullptr;  ///< Resolved durability Env (never null after
                            ///< EnableDurability).
  std::unique_ptr<DiskGuard> disk_guard_;
  int64_t last_durable_tick_ = 0;
  int snapshot_gen_ = 0;
  int64_t sessions_not_durable_ = 0;
  int64_t journal_errors_ = 0;
  bool degraded_nondurable_ = false;
  int64_t degraded_entered_ = 0;
  int64_t degraded_exited_ = 0;
  int64_t events_not_journaled_ = 0;
  int commit_fail_streak_ = 0;  ///< Consecutive failed tick-commits.
};

/// Path of snapshot generation `gen` inside the durability directory
/// (snapshot-<gen 6-digit>.snap).
std::string SnapshotGenPath(const std::string& dir, int gen);

/// Snapshot generations present in `dir`, ascending. In-progress ".tmp"
/// files and anything else are ignored.
std::vector<int> ListSnapshotGenerations(const std::string& dir);

}  // namespace lhmm::srv

#endif  // LHMM_SRV_MATCH_SERVER_H_
