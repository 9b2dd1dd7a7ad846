#include "matchers/stream_engine.h"

#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "core/logging.h"

namespace lhmm::matchers {

StreamEngine::StreamEngine(MatcherFactory factory,
                           const StreamEngineConfig& config)
    : factory_(std::move(factory)), config_(config) {
  CHECK(factory_ != nullptr);
  CHECK_GE(config_.max_inbox, 0);
  CHECK_GE(config_.session_ttl, 0);
  CHECK_GE(config_.max_live_sessions, 0);
  num_threads_ = config_.num_threads > 0 ? config_.num_threads
                                         : core::ThreadPool::DefaultThreadCount();
  if (num_threads_ > 1) {
    pool_ = std::make_unique<core::ThreadPool>(num_threads_);
  }
}

StreamEngine::~StreamEngine() {
  if (pool_ != nullptr) pool_->Wait();
}

SessionId StreamEngine::Open() {
  core::Result<SessionId> id = TryOpen();
  CHECK_OK(id);
  return *id;
}

core::Result<SessionId> StreamEngine::TryOpen() {
  return OpenInternal(factory_, nullptr);
}

core::Result<SessionId> StreamEngine::TryOpen(const MatcherFactory& factory) {
  return OpenInternal(factory, nullptr);
}

core::Result<SessionId> StreamEngine::OpenRestored(
    const SessionCheckpoint& checkpoint) {
  return OpenInternal(factory_, &checkpoint);
}

core::Result<SessionId> StreamEngine::OpenRestored(
    const SessionCheckpoint& checkpoint, const MatcherFactory& factory) {
  return OpenInternal(factory, &checkpoint);
}

core::Result<SessionId> StreamEngine::OpenInternal(
    const MatcherFactory& factory, const SessionCheckpoint* checkpoint) {
  // Enforce the live-session cap before admitting a new session. The victim
  // scan runs on the producer thread over producer-side fields, with session
  // id as the tie-break, so the eviction sequence is a pure function of the
  // producer's call history — identical for every thread count.
  if (config_.max_live_sessions > 0) {
    while (live_ >= config_.max_live_sessions) {
      Slot* lru = nullptr;
      {
        std::lock_guard<std::mutex> lock(slots_mu_);
        for (const std::unique_ptr<Slot>& s : slots_) {
          if (s->closed.load(std::memory_order_relaxed)) continue;
          if (lru == nullptr || s->last_activity < lru->last_activity) {
            lru = s.get();
          }
        }
      }
      if (lru == nullptr) break;
      Evict(lru);
    }
  }

  auto s = std::make_unique<Slot>();
  s->matcher = factory();
  CHECK(s->matcher != nullptr);
  if (!s->matcher->SupportsStreaming()) {
    return core::Status::Unimplemented(
        s->matcher->name() +
        " has no streaming session form (SupportsStreaming() is false)");
  }
  if (config_.shared_router != nullptr) {
    s->matcher->UseSharedRouter(config_.shared_router);
  }
  StreamConfig sc;
  sc.lag = config_.lag;
  s->session = s->matcher->OpenSession(sc);
  if (s->session == nullptr) {
    // A matcher claiming SupportsStreaming() but returning nullptr violates
    // the OpenSession contract; report it as unsupported rather than crashing.
    return core::Status::Unimplemented(s->matcher->name() +
                                       " OpenSession() returned nullptr");
  }
  if (checkpoint != nullptr) {
    if (!s->session->SupportsCheckpoint()) {
      return core::Status::Unimplemented(
          s->matcher->name() + " sessions are not checkpointable");
    }
    if (!s->session->Restore(checkpoint->session)) {
      return core::Status::Internal("checkpoint restore failed for " +
                                    s->matcher->name());
    }
    s->last_time = checkpoint->last_time;
    s->seen_point = checkpoint->seen_point;
    Publish(s.get());
  }
  s->last_activity = clock_;
  ++live_;
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_.push_back(std::move(s));
  return static_cast<SessionId>(slots_.size()) - 1;
}

core::Result<SessionCheckpoint> StreamEngine::CheckpointSession(SessionId id) {
  Slot* s = slot(id);
  if (s->poisoned.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(s->mu);
    return s->error;
  }
  if (s->closed.load(std::memory_order_acquire)) {
    return core::Status::FailedPrecondition(
        "session " + std::to_string(id) + " is closed; nothing to checkpoint");
  }
  std::lock_guard<std::mutex> lock(s->mu);
  if (!s->inbox.empty() || s->scheduled) {
    return core::Status::FailedPrecondition(
        "session " + std::to_string(id) +
        " has queued or in-flight events; call Barrier() before checkpointing");
  }
  CHECK(s->session != nullptr);
  if (!s->session->SupportsCheckpoint()) {
    return core::Status::Unimplemented("session " + std::to_string(id) +
                                       " is not checkpointable");
  }
  SessionCheckpoint cp;
  if (!s->session->Checkpoint(&cp.session)) {
    return core::Status::Internal("checkpoint failed for session " +
                                  std::to_string(id));
  }
  cp.last_time = s->last_time;
  cp.seen_point = s->seen_point;
  return cp;
}

StreamEngine::Slot* StreamEngine::slot(SessionId id) const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  CHECK_GE(id, 0);
  CHECK_LT(id, static_cast<SessionId>(slots_.size()));
  return slots_[id].get();
}

core::Status StreamEngine::Push(SessionId id, const traj::TrajPoint& point) {
  Slot* s = slot(id);
  if (s->poisoned.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(s->mu);
    return s->error;
  }
  if (s->closed.load(std::memory_order_acquire)) {
    if (s->expired.load(std::memory_order_acquire)) {
      return core::Status::DeadlineExceeded(
          "session " + std::to_string(id) +
          " passed its deadline; Committed() holds the partial prefix");
    }
    return core::Status(core::StatusCode::kFailedPrecondition,
                        "push on closed session " + std::to_string(id));
  }
  // Obviously broken points are rejected at the producer boundary instead of
  // being fed to the matcher.
  if (!std::isfinite(point.pos.x) || !std::isfinite(point.pos.y) ||
      !std::isfinite(point.t)) {
    rejected_pushes_.fetch_add(1, std::memory_order_relaxed);
    return core::Status(core::StatusCode::kInvalidArgument,
                        "non-finite point pushed to session " + std::to_string(id));
  }
  if (s->seen_point && point.t < s->last_time) {
    rejected_pushes_.fetch_add(1, std::memory_order_relaxed);
    return core::Status(core::StatusCode::kInvalidArgument,
                        "timestamp moved backwards in session " + std::to_string(id));
  }
  core::Status status = Enqueue(s, point);
  if (status.ok()) {
    s->seen_point = true;
    s->last_time = point.t;
    s->last_activity = clock_;
  }
  return status;
}

core::Status StreamEngine::PushBlocking(SessionId id,
                                        const traj::TrajPoint& point) {
  for (;;) {
    core::Status status = Push(id, point);
    // Only inbox backpressure is worth waiting out; a poisoned session may
    // also carry kUnavailable (quarantine), so check state, not just code.
    if (status.code() != core::StatusCode::kUnavailable ||
        state(id) == SessionState::kPoisoned) {
      return status;
    }
    // After the barrier every inbox is empty, so the retry cannot be full
    // again (the loop runs at most twice unless other producers interleave,
    // which the producer-side contract forbids).
    Barrier();
  }
}

core::Status StreamEngine::Finish(SessionId id) {
  Slot* s = slot(id);
  if (s->closed.exchange(true, std::memory_order_acq_rel)) {
    return core::Status(core::StatusCode::kFailedPrecondition,
                        "session " + std::to_string(id) + " already closed");
  }
  --live_;
  return Enqueue(s, std::nullopt);
}

void StreamEngine::Evict(Slot* s) {
  if (s->closed.exchange(true, std::memory_order_acq_rel)) return;
  s->evicted.store(true, std::memory_order_release);
  --live_;
  ++evicted_sessions_;
  Enqueue(s, std::nullopt);
}

void StreamEngine::Expire(Slot* s) {
  if (s->closed.exchange(true, std::memory_order_acq_rel)) return;
  s->expired.store(true, std::memory_order_release);
  --live_;
  ++expired_sessions_;
  Enqueue(s, std::nullopt);
}

void StreamEngine::AdvanceClock(int64_t now) {
  if (now > clock_) clock_ = now;
  std::vector<Slot*> idle;
  std::vector<Slot*> overdue;
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    for (const std::unique_ptr<Slot>& s : slots_) {
      if (s->closed.load(std::memory_order_relaxed)) continue;
      if (config_.session_ttl > 0 &&
          clock_ - s->last_activity >= config_.session_ttl) {
        idle.push_back(s.get());
      } else if (s->deadline_tick > 0 && clock_ >= s->deadline_tick) {
        overdue.push_back(s.get());
      }
    }
  }
  for (Slot* s : idle) Evict(s);
  for (Slot* s : overdue) Expire(s);
}

core::Status StreamEngine::SetDeadline(SessionId id, int64_t deadline_tick) {
  Slot* s = slot(id);
  if (s->poisoned.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(s->mu);
    return s->error;
  }
  if (s->closed.load(std::memory_order_acquire)) {
    return core::Status::FailedPrecondition(
        "session " + std::to_string(id) + " is closed; cannot arm a deadline");
  }
  s->deadline_tick = deadline_tick;
  return core::Status::Ok();
}

bool StreamEngine::deadline_expired(SessionId id) const {
  return slot(id)->expired.load(std::memory_order_acquire);
}

int64_t StreamEngine::deadline_tick(SessionId id) const {
  return slot(id)->deadline_tick;
}

core::Status StreamEngine::Quarantine(SessionId id, const std::string& reason) {
  Slot* s = slot(id);
  if (s->poisoned.load(std::memory_order_acquire)) return core::Status::Ok();
  if (s->finished.load(std::memory_order_acquire)) {
    return core::Status::FailedPrecondition(
        "session " + std::to_string(id) + " already finished");
  }
  if (!s->closed.exchange(true, std::memory_order_acq_rel)) --live_;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->poisoned.load(std::memory_order_relaxed)) return core::Status::Ok();
    s->error = core::Status::Unavailable("session " + std::to_string(id) +
                                         " quarantined: " + reason);
    s->inbox.clear();
    s->committed.clear();
    s->poisoned.store(true, std::memory_order_release);
    // A pump task may still be inside this slot's session (that is exactly
    // the wedged case the watchdog quarantines for), so the session/matcher
    // pair can only be freed when no task holds them: immediately when no
    // pump is scheduled, otherwise by the pump's own exit path.
    if (!s->scheduled) {
      s->session.reset();
      s->matcher.reset();
    }
  }
  ++quarantined_sessions_;
  return core::Status::Ok();
}

int64_t StreamEngine::processed_events(SessionId id) const {
  return slot(id)->processed.load(std::memory_order_acquire);
}

int64_t StreamEngine::inbox_depth(SessionId id) const {
  Slot* s = slot(id);
  std::lock_guard<std::mutex> lock(s->mu);
  return static_cast<int64_t>(s->inbox.size());
}

void StreamEngine::Publish(Slot* s) {
  s->stats = s->session->stats();
  // A quarantine that hit mid-event owns the slot's (cleared) output.
  if (s->poisoned.load(std::memory_order_relaxed)) return;
  // The committed path only ever grows, so only the new suffix is copied.
  const std::vector<network::SegmentId>& all = s->session->committed();
  CHECK_GE(all.size(), s->committed.size());
  s->committed.insert(s->committed.end(), all.begin() + s->committed.size(),
                      all.end());
}

void StreamEngine::Process(Slot* s, std::optional<traj::TrajPoint>& event) {
  if (event.has_value()) {
    s->session->Push(*event);
    {
      std::lock_guard<std::mutex> lock(s->mu);
      Publish(s);
    }
    s->processed.fetch_add(1, std::memory_order_release);
    return;
  }
  // End of stream: publish the final output, then free the session and its
  // matcher clone so memory tracks live sessions, not total sessions.
  s->session->Finish();
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->poisoned.load(std::memory_order_relaxed)) {
      // Quarantined while the flush ran; the quarantine wins and owns the
      // slot's final state. Free the deferred resources and stay poisoned.
      s->session.reset();
      s->matcher.reset();
      return;
    }
    Publish(s);
    s->session.reset();
    s->matcher.reset();
  }
  s->finished.store(true, std::memory_order_release);
  s->processed.fetch_add(1, std::memory_order_release);
}

void StreamEngine::Poison(Slot* s, const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->error = core::Status(core::StatusCode::kInternal,
                            "session poisoned: " + what);
    s->inbox.clear();
    s->committed.clear();
    s->session.reset();
    s->matcher.reset();
  }
  s->poisoned.store(true, std::memory_order_release);
}

core::Status StreamEngine::Enqueue(Slot* s, std::optional<traj::TrajPoint> event) {
  if (pool_ == nullptr) {
    if (s->poisoned.load(std::memory_order_acquire)) return core::Status::Ok();
    try {
      Process(s, event);
    } catch (const std::exception& e) {
      Poison(s, e.what());
    } catch (...) {
      Poison(s, "unknown exception");
    }
    return core::Status::Ok();
  }
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->poisoned.load(std::memory_order_relaxed)) return core::Status::Ok();
    if (event.has_value() && config_.max_inbox > 0 &&
        static_cast<int>(s->inbox.size()) >= config_.max_inbox) {
      if (config_.backpressure == BackpressurePolicy::kReject) {
        rejected_pushes_.fetch_add(1, std::memory_order_relaxed);
        // kUnavailable: the pump is behind, so the typed answer is "retry
        // with backoff", not "you broke the contract".
        return core::Status::Unavailable("session inbox full (" +
                                         std::to_string(s->inbox.size()) +
                                         " events)");
      }
      // kDropOldest. The session is open (Push checked closed), so the inbox
      // holds only points — the end-of-stream sentinel can never be dropped.
      s->inbox.pop_front();
      dropped_points_.fetch_add(1, std::memory_order_relaxed);
    }
    s->inbox.push_back(std::move(event));
    if (!s->scheduled) {
      s->scheduled = true;
      schedule = true;
    }
  }
  if (schedule) {
    pool_->Submit([this, s] { Pump(s); });
  }
  return core::Status::Ok();
}

void StreamEngine::Pump(Slot* s) {
  // Drains the inbox in arrival order. `scheduled` stays true until the
  // inbox is observed empty under the lock, so no second pump for this slot
  // can be queued while this one runs — that exclusivity is the per-session
  // FIFO guarantee. An exception from the matcher quarantines the session
  // (Poison) instead of propagating into the pool.
  for (;;) {
    std::deque<std::optional<traj::TrajPoint>> batch;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->inbox.empty() || s->poisoned.load(std::memory_order_relaxed)) {
        s->inbox.clear();
        s->scheduled = false;
        if (s->poisoned.load(std::memory_order_relaxed)) {
          // Deferred cleanup for a quarantine that hit while this pump held
          // the session (Quarantine cannot free what a task may be using).
          s->session.reset();
          s->matcher.reset();
        }
        return;
      }
      batch.swap(s->inbox);
    }
    for (std::optional<traj::TrajPoint>& event : batch) {
      if (s->poisoned.load(std::memory_order_relaxed)) break;
      try {
        Process(s, event);
      } catch (const std::exception& e) {
        Poison(s, e.what());
        break;
      } catch (...) {
        Poison(s, "unknown exception");
        break;
      }
    }
  }
}

void StreamEngine::Barrier() {
  if (pool_ != nullptr) pool_->Wait();
}

bool StreamEngine::finished(SessionId id) const {
  return slot(id)->finished.load(std::memory_order_acquire);
}

SessionState StreamEngine::state(SessionId id) const {
  Slot* s = slot(id);
  if (s->poisoned.load(std::memory_order_acquire)) return SessionState::kPoisoned;
  if (s->finished.load(std::memory_order_acquire)) {
    if (s->expired.load(std::memory_order_acquire)) return SessionState::kExpired;
    return s->evicted.load(std::memory_order_acquire) ? SessionState::kEvicted
                                                      : SessionState::kFinished;
  }
  return SessionState::kLive;
}

core::Status StreamEngine::SessionError(SessionId id) const {
  Slot* s = slot(id);
  if (!s->poisoned.load(std::memory_order_acquire)) return core::Status::Ok();
  std::lock_guard<std::mutex> lock(s->mu);
  return s->error;
}

std::vector<network::SegmentId> StreamEngine::Committed(SessionId id) const {
  Slot* s = slot(id);
  std::lock_guard<std::mutex> lock(s->mu);
  return s->committed;
}

SessionStats StreamEngine::Stats(SessionId id) const {
  Slot* s = slot(id);
  std::lock_guard<std::mutex> lock(s->mu);
  return s->stats;
}

SessionStats StreamEngine::TotalStats() const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  SessionStats total;
  for (const std::unique_ptr<Slot>& s : slots_) {
    SessionStats one;
    {
      std::lock_guard<std::mutex> slot_lock(s->mu);
      one = s->stats;
    }
    total.points_pushed += one.points_pushed;
    total.points_committed += one.points_committed;
    total.latency_points_sum += one.latency_points_sum;
    total.breaks += one.breaks;
  }
  return total;
}

int64_t StreamEngine::num_sessions() const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  return static_cast<int64_t>(slots_.size());
}

}  // namespace lhmm::matchers
