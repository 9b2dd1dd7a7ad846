#ifndef LHMM_MATCHERS_STREAM_ENGINE_H_
#define LHMM_MATCHERS_STREAM_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "matchers/batch_matcher.h"
#include "matchers/matcher.h"
#include "network/path_cache.h"

namespace lhmm::matchers {

/// What happens to a Push() when a session's inbox is at max_inbox.
enum class BackpressurePolicy {
  kReject,     ///< Push returns kUnavailable; the point is not queued.
  kDropOldest  ///< The oldest queued point is discarded to make room.
};

struct StreamEngineConfig {
  /// Worker threads; 0 means core::ThreadPool::DefaultThreadCount(); 1 runs
  /// every event inline on the caller thread (no pool).
  int num_threads = 0;
  /// Fixed lag of every session opened by this engine.
  int lag = 8;
  /// Optional thread-safe route cache shared by all sessions (installed into
  /// each session's matcher clone via MapMatcher::UseSharedRouter), so route
  /// results amortize across concurrent trajectories. Pre-heating it with
  /// CachedRouter::WarmAll removes first-query latency spikes.
  network::CachedRouter* shared_router = nullptr;
  /// Bound on each session's pending-event queue; 0 = unbounded. When a
  /// producer outruns the pump, `backpressure` decides what gives. The
  /// end-of-stream sentinel is never rejected or dropped.
  int max_inbox = 0;
  BackpressurePolicy backpressure = BackpressurePolicy::kReject;
  /// Idle-session TTL in logical-clock ticks (see AdvanceClock); a live
  /// session with no Push for `session_ttl` ticks is evicted (flushed and
  /// closed as if Finish had been called). 0 disables TTL eviction.
  int64_t session_ttl = 0;
  /// Cap on concurrently live sessions; when Open() would exceed it, the
  /// least-recently-active live session is evicted first. 0 = uncapped.
  int64_t max_live_sessions = 0;
};

/// Handle of one live session; dense, assigned by Open() in call order.
using SessionId = int64_t;

/// Lifecycle of a session, queryable at any time via state().
enum class SessionState {
  kLive,      ///< Open and accepting pushes (or still draining its inbox).
  kFinished,  ///< Finish() processed; Committed()/Stats() are final.
  kEvicted,   ///< Closed by TTL or the live-session cap; output is final.
  kExpired,   ///< Closed by its deadline; Committed() is the partial prefix.
  kPoisoned   ///< A pump error or Quarantine() isolated it; see SessionError().
};

/// Everything needed to resume one live session in another engine (or
/// process): the session's resumable matching state plus the engine's
/// producer-side validation state. Produced by CheckpointSession, consumed by
/// OpenRestored.
struct SessionCheckpoint {
  SessionSnapshot session;
  double last_time = 0.0;  ///< Timestamp of the last accepted point.
  bool seen_point = false;
};

/// Multiplexes many concurrent fixed-lag streaming sessions over one
/// core::ThreadPool. Each session gets its own matcher clone from the
/// factory (sessions borrow their matcher's per-trajectory model state, so
/// clones are what make concurrency safe — same design as BatchMatcher).
///
/// Ordering contract: events of one session are processed in the exact order
/// they were enqueued (an actor-style inbox with at most one pump task per
/// session in flight), while different sessions interleave freely across the
/// pool. Because each session's computation only depends on its own ordered
/// event stream — and the shared route cache is semantically transparent —
/// committed outputs are byte-identical for any thread count and any
/// cross-session arrival interleaving (see tests/stream_test.cc).
///
/// Serving hardening on top of that contract:
///  - Bounded inboxes with a backpressure policy, so one slow session cannot
///    take down the process. Which points get dropped under kDropOldest
///    depends on pump timing and is NOT deterministic across thread counts.
///  - A logical clock (AdvanceClock) drives idle-TTL eviction, and Open()
///    enforces max_live_sessions by evicting the least-recently-active
///    session. Both decisions are made on the producer thread from producer
///    state only, so eviction IS deterministic across thread counts.
///  - Per-session error quarantine: an exception while processing a session's
///    events poisons that session (its Status is kept, its queue discarded,
///    its resources freed) and never crashes the pump or other sessions.
///    Poisoned sessions never report finished(); check state().
///  - A finished session's matcher and session objects are freed immediately;
///    the final committed path and stats stay queryable. Memory therefore
///    scales with live sessions, not with sessions ever opened.
///
/// Thread safety: Open/Push/Finish/AdvanceClock/Barrier may be called from
/// one producer thread (or externally synchronized producers). Committed()/
/// Stats() may be called from any thread at any time: they return copies of
/// what the pump published after the session's last processed event, final
/// once finished(id) is true or after Barrier().
class StreamEngine {
 public:
  explicit StreamEngine(MatcherFactory factory,
                        const StreamEngineConfig& config = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Creates a new session (matcher clone + fixed-lag session) and returns
  /// its id. The clone is built on the calling thread. May first evict the
  /// least-recently-active live session to honor max_live_sessions.
  /// Crashes (CHECK) when the factory's family has no streaming form; serving
  /// front ends should use TryOpen instead.
  SessionId Open();

  /// Like Open(), but an unsupported matcher family (SupportsStreaming()
  /// false / OpenSession() == nullptr — the seq2seq contract) comes back as a
  /// typed kUnimplemented Status instead of a crash. The overload taking a
  /// factory opens the session from that factory instead of the engine's own
  /// — the degrade ladder of srv::MatchServer uses it to mix matcher tiers
  /// inside one engine.
  core::Result<SessionId> TryOpen();
  core::Result<SessionId> TryOpen(const MatcherFactory& factory);

  /// Snapshots a live, fully drained session (call Barrier() first; a session
  /// with queued or in-flight events fails with kFailedPrecondition).
  /// kUnimplemented when the session's family is not checkpointable.
  core::Result<SessionCheckpoint> CheckpointSession(SessionId id);

  /// Opens a fresh session and restores `checkpoint` into it before any
  /// event is processed, so its continued committed output is byte-identical
  /// to the checkpointed session's future. Same typed errors as TryOpen.
  core::Result<SessionId> OpenRestored(const SessionCheckpoint& checkpoint);
  core::Result<SessionId> OpenRestored(const SessionCheckpoint& checkpoint,
                                       const MatcherFactory& factory);

  /// Enqueues the next point of session `id`. Fails (without crashing) with
  /// kInvalidArgument for a malformed point, kFailedPrecondition for a
  /// closed/full session, or the stored error for a poisoned one.
  core::Status Push(SessionId id, const traj::TrajPoint& point);

  /// Push() that waits out inbox backpressure instead of rejecting: on
  /// kUnavailable (inbox full) it drains the engine with Barrier() and
  /// retries, so the point is either accepted or fails for a real reason
  /// (closed, expired, poisoned, invalid). Crash-recovery replay uses this —
  /// a journaled point was accepted once, so replay must accept it too
  /// regardless of pump timing. Producer-side, like Push.
  core::Status PushBlocking(SessionId id, const traj::TrajPoint& point);

  /// Enqueues end-of-stream for session `id`: pending points flush and the
  /// session's committed path becomes final. Fails with kFailedPrecondition
  /// if the session is already closed.
  core::Status Finish(SessionId id);

  /// Advances the engine's logical clock to max(current, now), evicts every
  /// live session idle for >= session_ttl ticks, and expires every live
  /// session past its deadline (see SetDeadline). The clock only moves when
  /// the producer calls this, so eviction and expiry are reproducible: they
  /// depend on the producer's call sequence, never on worker timing.
  void AdvanceClock(int64_t now);

  /// Arms (or with 0 disarms) an absolute logical-clock deadline for a live
  /// session. When AdvanceClock reaches the deadline the session is closed
  /// through the normal end-of-stream pump — its pending window flushes and
  /// Committed() holds the partial prefix — and deadline_expired(id) turns
  /// true (state() == kExpired once the flush is processed).
  core::Status SetDeadline(SessionId id, int64_t deadline_tick);

  /// True once the session was closed by its deadline.
  bool deadline_expired(SessionId id) const;

  /// The absolute deadline currently armed on the session (0 = none).
  /// Producer-side, like SetDeadline; checkpointing persists this so a
  /// restored session expires at the original tick, not a re-derived one.
  int64_t deadline_tick(SessionId id) const;

  /// Isolates a session whose pump appears wedged (srv::Watchdog's lever):
  /// the session is closed and poisoned with kUnavailable through the same
  /// SessionError path as a pump exception, its queue is discarded, and its
  /// resources are freed as soon as no pump task holds them. Fails with
  /// kFailedPrecondition on an already-finished session; quarantining an
  /// already-poisoned session is a no-op.
  core::Status Quarantine(SessionId id, const std::string& reason);

  /// Pump progress heartbeat: events of this session fully processed so far
  /// (points and the end-of-stream sentinel). Monotonic; a session with a
  /// non-empty inbox whose count stops moving has a wedged pump.
  int64_t processed_events(SessionId id) const;

  /// Events currently queued for this session (points + sentinel).
  int64_t inbox_depth(SessionId id) const;

  /// Blocks until every enqueued event has been processed. Producers must be
  /// quiescent while waiting. The engine remains usable afterwards.
  void Barrier();

  /// True once Finish(id) (or an eviction) has been fully processed. Stays
  /// false forever for poisoned sessions — use state() for liveness checks.
  bool finished(SessionId id) const;

  SessionState state(SessionId id) const;

  /// OK unless the session is poisoned, in which case the quarantined error.
  core::Status SessionError(SessionId id) const;

  /// The session's committed path as of its last processed event (empty for
  /// a poisoned session). Final after finished(id) / Barrier().
  std::vector<network::SegmentId> Committed(SessionId id) const;

  SessionStats Stats(SessionId id) const;

  /// Sum of all sessions' stats (valid under the same conditions).
  SessionStats TotalStats() const;

  int64_t num_sessions() const;
  /// Sessions currently open (not yet finished, evicted, or poisoned-closed).
  int64_t live_sessions() const { return live_; }
  int64_t clock() const { return clock_; }
  int64_t evicted_sessions() const { return evicted_sessions_; }
  int64_t expired_sessions() const { return expired_sessions_; }
  int64_t quarantined_sessions() const { return quarantined_sessions_; }
  /// Points discarded by kDropOldest backpressure, across all sessions.
  int64_t dropped_points() const {
    return dropped_points_.load(std::memory_order_relaxed);
  }
  /// Pushes refused at the producer boundary (validation or kReject).
  int64_t rejected_pushes() const {
    return rejected_pushes_.load(std::memory_order_relaxed);
  }
  int num_threads() const { return num_threads_; }

 private:
  /// One session's actor state. `inbox` holds pending events in arrival
  /// order (nullopt = end-of-stream); `scheduled` is true while a pump task
  /// for this slot is queued or running, which is what guarantees per-session
  /// FIFO processing: there is never more than one. `mu` guards the inbox,
  /// the published `committed`/`stats` and the release of session/matcher
  /// when the slot winds down. The last_* fields are producer-side only.
  struct Slot {
    std::mutex mu;
    std::deque<std::optional<traj::TrajPoint>> inbox;
    bool scheduled = false;
    std::unique_ptr<MapMatcher> matcher;
    std::unique_ptr<StreamingSession> session;
    /// Guarded by mu. The session's committed path and counters as of the
    /// last processed event (final after end of stream): the pump publishes
    /// them here, so Committed()/Stats() never read a session another thread
    /// is advancing.
    std::vector<network::SegmentId> committed;
    SessionStats stats;
    core::Status error;                 ///< Guarded by mu; set when poisoned.
    std::atomic<bool> closed{false};    ///< Finish()/eviction was enqueued.
    std::atomic<bool> finished{false};  ///< End-of-stream was processed.
    std::atomic<bool> evicted{false};   ///< Closed by TTL or the cap.
    std::atomic<bool> expired{false};   ///< Closed by its deadline.
    std::atomic<bool> poisoned{false};  ///< Quarantined after an error.
    /// Pump heartbeat: events fully processed (watchdog progress signal).
    std::atomic<int64_t> processed{0};
    int64_t last_activity = 0;  ///< Logical time of Open()/last Push().
    int64_t deadline_tick = 0;  ///< Absolute deadline; 0 = none. Producer-side.
    double last_time = 0.0;     ///< Timestamp of the last accepted point.
    bool seen_point = false;
  };

  Slot* slot(SessionId id) const;
  core::Status Enqueue(Slot* s, std::optional<traj::TrajPoint> event);
  void Pump(Slot* s);
  void Process(Slot* s, std::optional<traj::TrajPoint>& event);
  /// Publishes the session's committed suffix beyond `s->committed` and its
  /// stats. Runs on the thread that owns the session, under s->mu once the
  /// slot is visible to other threads.
  static void Publish(Slot* s);
  /// Quarantines the slot: stores the error, frees its matcher/session,
  /// discards queued events. Later events for the slot are ignored.
  void Poison(Slot* s, const std::string& what);
  /// Closes a live slot as evicted and enqueues its end-of-stream sentinel.
  void Evict(Slot* s);
  /// Closes a live slot as deadline-expired; same flush path as Evict.
  void Expire(Slot* s);
  /// Shared body of TryOpen/OpenRestored: clones from `factory`, optionally
  /// restores `checkpoint` before the session can see any event.
  core::Result<SessionId> OpenInternal(const MatcherFactory& factory,
                                       const SessionCheckpoint* checkpoint);

  MatcherFactory factory_;
  StreamEngineConfig config_;
  int num_threads_;
  std::unique_ptr<core::ThreadPool> pool_;  ///< Null when num_threads_ == 1.
  mutable std::mutex slots_mu_;             ///< Guards the slots_ container.
  std::vector<std::unique_ptr<Slot>> slots_;
  int64_t clock_ = 0;             ///< Producer-side logical time.
  int64_t live_ = 0;              ///< Producer-side live-session count.
  int64_t evicted_sessions_ = 0;  ///< Producer-side eviction count.
  int64_t expired_sessions_ = 0;  ///< Producer-side deadline-expiry count.
  int64_t quarantined_sessions_ = 0;  ///< Producer-side Quarantine() count.
  std::atomic<int64_t> dropped_points_{0};
  std::atomic<int64_t> rejected_pushes_{0};
};

}  // namespace lhmm::matchers

#endif  // LHMM_MATCHERS_STREAM_ENGINE_H_
