#include "srv/match_server.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "core/logging.h"
#include "core/strings.h"
#include "srv/journal_events.h"
#include "srv/snapshot.h"

namespace lhmm::srv {

MatchServer::MatchServer(std::vector<TierSpec> tiers,
                         const ServerConfig& config)
    : tiers_(std::move(tiers)),
      config_(config),
      admission_(config.admission),
      ladder_(static_cast<int>(tiers_.size()), config.degrade),
      watchdog_(config.watchdog) {
  CHECK(!tiers_.empty());
  for (const TierSpec& t : tiers_) CHECK(t.factory != nullptr);
  engine_ = std::make_unique<matchers::StreamEngine>(tiers_[0].factory,
                                                     config_.engine);
}

MatchServer::~MatchServer() = default;

const MatchServer::Sess& MatchServer::sess(int64_t id) const {
  CHECK_GE(id, 0);
  CHECK_LT(id, static_cast<int64_t>(sessions_.size()));
  return sessions_[id];
}

core::Status MatchServer::CheckId(int64_t id) const {
  if (id >= 0 && id < static_cast<int64_t>(sessions_.size())) {
    return core::Status::Ok();
  }
  return core::Status::NotFound("no session " + std::to_string(id));
}

int64_t MatchServer::QueueDepth() const {
  int64_t depth = 0;
  for (const Sess& s : sessions_) {
    if (s.engine_id >= 0 && s.open) depth += engine_->inbox_depth(s.engine_id);
  }
  return depth;
}

core::Result<int64_t> MatchServer::OpenSession() {
  if (draining_) {
    return core::Status::Unavailable("server is draining");
  }
  LHMM_RETURN_IF_ERROR(admission_.AdmitOpen(engine_->live_sessions()));
  const int tier = ladder_.tier();
  core::Result<matchers::SessionId> engine_id =
      engine_->TryOpen(tiers_[tier].factory);
  if (!engine_id.ok()) return engine_id.status();
  if (config_.default_deadline_ticks > 0) {
    CHECK_OK(engine_->SetDeadline(*engine_id,
                                  clock_ + config_.default_deadline_ticks));
  }
  Sess s;
  s.engine_id = *engine_id;
  s.tier = tier;
  s.open = true;
  sessions_.push_back(s);
  ++opens_admitted_;
  const int64_t id = static_cast<int64_t>(sessions_.size()) - 1;
  LHMM_RETURN_IF_ERROR(JournalAppend(FormatOpenEvent(id, tier)));
  return id;
}

core::Status MatchServer::Push(int64_t id, const traj::TrajPoint& point) {
  LHMM_RETURN_IF_ERROR(CheckId(id));
  const Sess& s = sess(id);
  if (s.missing) {
    return core::Status::Unavailable("session " + std::to_string(id) +
                                     " was not restored from the snapshot");
  }
  if (draining_) {
    return core::Status::Unavailable("server is draining");
  }
  if (!s.open) {
    // The engine knows why it closed (deadline, quarantine, finish).
    core::Status why = SessionStatus(id);
    if (!why.ok()) return why;
    return core::Status::FailedPrecondition("session " + std::to_string(id) +
                                            " is closed");
  }
  LHMM_RETURN_IF_ERROR(admission_.AdmitPush(QueueDepth()));
  core::Status status = engine_->Push(s.engine_id, point);
  if (status.ok()) {
    ++pushes_admitted_;
    // Journal after the engine accepted it: backpressure rejects are
    // load-dependent, so only accepted points may enter the replayed history.
    LHMM_RETURN_IF_ERROR(JournalAppend(FormatPushEvent(id, point)));
  }
  return status;
}

core::Status MatchServer::Finish(int64_t id) {
  LHMM_RETURN_IF_ERROR(CheckId(id));
  Sess& s = sessions_[id];
  if (s.missing) {
    return core::Status::Unavailable("session " + std::to_string(id) +
                                     " was not restored from the snapshot");
  }
  if (!s.open) {
    return core::Status::FailedPrecondition("session " + std::to_string(id) +
                                            " is already closed");
  }
  s.open = false;
  LHMM_RETURN_IF_ERROR(engine_->Finish(s.engine_id));
  return JournalAppend(FormatFinishEvent(id));
}

core::Status MatchServer::SetDeadline(int64_t id, int64_t deadline_tick) {
  LHMM_RETURN_IF_ERROR(CheckId(id));
  const Sess& s = sess(id);
  if (s.missing || !s.open) {
    return core::Status::FailedPrecondition("session " + std::to_string(id) +
                                            " is not live");
  }
  LHMM_RETURN_IF_ERROR(engine_->SetDeadline(s.engine_id, deadline_tick));
  return JournalAppend(FormatDeadlineEvent(id, deadline_tick));
}

void MatchServer::Tick(int64_t now) {
  if (now > clock_) clock_ = now;
  admission_.Advance(clock_);
  // Deadline expiry and TTL eviction run inside the engine; both are
  // producer-side and deterministic.
  engine_->AdvanceClock(clock_);

  // Reconcile the server-side view of sessions the engine closed (expired,
  // evicted) and feed the watchdog the live pumps' heartbeats.
  std::vector<Heartbeat> beats;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    Sess& s = sessions_[i];
    if (!s.open || s.engine_id < 0) continue;
    const matchers::SessionState st = engine_->state(s.engine_id);
    if (st == matchers::SessionState::kExpired ||
        st == matchers::SessionState::kEvicted ||
        st == matchers::SessionState::kPoisoned) {
      s.open = false;
      continue;
    }
    Heartbeat hb;
    hb.session = static_cast<int64_t>(i);
    hb.inbox_depth = engine_->inbox_depth(s.engine_id);
    hb.processed = engine_->processed_events(s.engine_id);
    beats.push_back(hb);
  }
  for (const int64_t wedged : watchdog_.Observe(clock_, beats)) {
    Sess& s = sessions_[wedged];
    const core::Status st = engine_->Quarantine(
        s.engine_id, "wedged pump: no progress for " +
                         std::to_string(config_.watchdog.stall_ticks) +
                         " ticks with queued events");
    if (st.ok()) s.open = false;
  }

  // Sample pressure and move the degrade ladder.
  PressureSample sample;
  sample.queue_depth = QueueDepth();
  sample.shed = admission_.TakeShedWindow();
  if (config_.fault_signal != nullptr) {
    const int64_t failures = config_.fault_signal->injected_failures();
    sample.route_failures = failures - last_route_failures_;
    last_route_failures_ = failures;
  }
  const int64_t rejected = engine_->rejected_pushes();
  sample.rejected_pushes = rejected - last_rejected_pushes_;
  last_rejected_pushes_ = rejected;
  ladder_.Observe(sample);

  // The tick is the group-commit heartbeat: sample the disk guard first so a
  // scheduled exhaustion window takes effect on its exact tick, then journal
  // the clock move and flush everything buffered since the last tick per the
  // fsync policy. While degraded-nondurable, journaling is suspended
  // entirely — appending to a full disk would just tear segments.
  if (journal_ != nullptr) {
    UpdateDiskGuard();
    if (degraded_nondurable_) {
      ++events_not_journaled_;  // The tick record itself.
    } else {
      core::Status js;
      core::Result<int64_t> idx = journal_->Append(FormatTickEvent(clock_));
      if (!idx.ok()) js = idx.status();
      if (js.ok()) js = journal_->Commit();
      if (js.ok()) {
        last_durable_tick_ = clock_;
        commit_fail_streak_ = 0;
      } else {
        ++journal_errors_;
        ++commit_fail_streak_;
        const int streak = durability_.disk_guard.journal_failure_streak;
        if (journal_->wedged()) {
          EnterDegraded("journal wedged: " + js.message());
        } else if (streak > 0 && commit_fail_streak_ >= streak) {
          EnterDegraded("journal failed " + std::to_string(streak) +
                        " consecutive tick-commits: " + js.message());
        }
      }
    }
  }
}

void MatchServer::Barrier() { engine_->Barrier(); }

int64_t MatchServer::num_sessions() const {
  return static_cast<int64_t>(sessions_.size());
}

matchers::SessionState MatchServer::state(int64_t id) const {
  const Sess& s = sess(id);
  if (s.missing) return matchers::SessionState::kEvicted;
  return engine_->state(s.engine_id);
}

bool MatchServer::finished(int64_t id) const {
  const Sess& s = sess(id);
  if (s.missing || s.engine_id < 0) return false;
  return engine_->finished(s.engine_id);
}

core::Status MatchServer::SessionStatus(int64_t id) const {
  const Sess& s = sess(id);
  if (s.missing) {
    return core::Status::Unavailable("session " + std::to_string(id) +
                                     " was not restored from the snapshot");
  }
  switch (engine_->state(s.engine_id)) {
    case matchers::SessionState::kLive:
    case matchers::SessionState::kFinished:
      return core::Status::Ok();
    case matchers::SessionState::kExpired:
      return core::Status::DeadlineExceeded(
          "session " + std::to_string(id) +
          " passed its deadline; Committed() holds the partial prefix");
    case matchers::SessionState::kEvicted:
      return core::Status::Unavailable("session " + std::to_string(id) +
                                       " was evicted (idle TTL or cap)");
    case matchers::SessionState::kPoisoned:
      return engine_->SessionError(s.engine_id);
  }
  return core::Status::Internal("unreachable");
}

std::vector<network::SegmentId> MatchServer::Committed(int64_t id) const {
  const Sess& s = sess(id);
  if (s.missing || s.engine_id < 0) return {};
  return engine_->Committed(s.engine_id);
}

matchers::SessionStats MatchServer::Stats(int64_t id) const {
  const Sess& s = sess(id);
  if (s.missing || s.engine_id < 0) return {};
  return engine_->Stats(s.engine_id);
}

int64_t MatchServer::ProcessedEvents(int64_t id) const {
  const Sess& s = sess(id);
  if (s.missing || s.engine_id < 0) return 0;
  return engine_->processed_events(s.engine_id);
}

int MatchServer::session_tier(int64_t id) const { return sess(id).tier; }

ServerMetrics MatchServer::metrics() const {
  ServerMetrics m;
  m.opens_admitted = opens_admitted_;
  m.opens_shed = admission_.shed_opens();
  m.pushes_admitted = pushes_admitted_;
  m.pushes_shed = admission_.shed_pushes();
  m.pushes_rejected = engine_->rejected_pushes();
  m.expired_sessions = engine_->expired_sessions();
  m.quarantined_sessions = engine_->quarantined_sessions();
  m.evicted_sessions = engine_->evicted_sessions();
  m.downgrades = ladder_.downgrades();
  m.upgrades = ladder_.upgrades();
  m.active_tier = ladder_.tier();
  m.live_sessions = engine_->live_sessions();
  m.queue_depth = QueueDepth();
  m.clock = clock_;
  m.sessions_not_durable = sessions_not_durable_;
  return m;
}

core::Result<ServerSnapshot> MatchServer::CaptureSnapshot(
    std::vector<int64_t>* unsupported) {
  ServerSnapshot snap;
  snap.clock = clock_;
  snap.tier = ladder_.tier();
  snap.total_sessions = static_cast<int64_t>(sessions_.size());

  for (size_t i = 0; i < sessions_.size(); ++i) {
    Sess& s = sessions_[i];
    if (!s.open || s.engine_id < 0) continue;
    if (engine_->state(s.engine_id) != matchers::SessionState::kLive) {
      // Reconcile: the engine closed it (deadline, eviction, quarantine).
      s.open = false;
      continue;
    }
    core::Result<matchers::SessionCheckpoint> cp =
        engine_->CheckpointSession(s.engine_id);
    if (!cp.ok()) {
      if (cp.status().code() == core::StatusCode::kUnimplemented) {
        unsupported->push_back(static_cast<int64_t>(i));
        continue;
      }
      return cp.status();
    }
    SessionRecord rec;
    rec.server_id = static_cast<int64_t>(i);
    rec.tier = s.tier;
    rec.deadline_tick = engine_->deadline_tick(s.engine_id);
    rec.checkpoint = std::move(cp).value();
    snap.sessions.push_back(std::move(rec));
  }
  return snap;
}

core::Status MatchServer::Drain(const std::string& path) {
  draining_ = true;
  // Flush every inbox so each live session is quiescent and checkpointable.
  engine_->Barrier();

  std::vector<int64_t> finish_instead;
  core::Result<ServerSnapshot> snap = CaptureSnapshot(&finish_instead);
  if (!snap.ok()) {
    draining_ = false;
    return snap.status();
  }
  // Write the snapshot BEFORE committing any session-state change: a drain
  // that cannot complete (unwritable path, full disk) must leave the server
  // serving, not wedged in a draining state with its sessions closed and no
  // snapshot on disk. Concretely, lhmm_serve's EOF/SIGTERM shutdown skips
  // its own --snapshot drain when draining() is already true — before this
  // ordering, a failed `drain` verb made that skip silently lose every live
  // session. Now drain-vs-EOF is deterministic: a successful drain verb wins
  // (shutdown skips), a failed one leaves the server live so shutdown
  // completes the drain itself.
  const core::Status saved = SaveServerSnapshot(*snap, path, env_);
  if (!saved.ok()) {
    draining_ = false;
    return saved;
  }
  for (const SessionRecord& rec : snap->sessions) {
    sessions_[rec.server_id].open = false;
  }
  for (const int64_t id : finish_instead) {
    // Not a resumable family: complete it now so its output is final.
    Sess& s = sessions_[id];
    s.open = false;
    LHMM_RETURN_IF_ERROR(engine_->Finish(s.engine_id));
  }
  if (!finish_instead.empty()) engine_->Barrier();

  return core::Status::Ok();
}

core::Result<std::unique_ptr<MatchServer>> MatchServer::Restore(
    const std::string& path, std::vector<TierSpec> tiers,
    const ServerConfig& config) {
  core::Result<ServerSnapshot> snap = LoadServerSnapshot(path);
  if (!snap.ok()) return snap.status();
  return FromSnapshot(*snap, std::move(tiers), config, path);
}

core::Result<std::unique_ptr<MatchServer>> MatchServer::FromSnapshot(
    const ServerSnapshot& snap, std::vector<TierSpec> tiers,
    const ServerConfig& config, const std::string& origin) {
  auto server = std::make_unique<MatchServer>(std::move(tiers), config);
  server->clock_ = snap.clock;
  server->admission_.Advance(snap.clock);
  server->engine_->AdvanceClock(snap.clock);
  if (snap.tier >= static_cast<int>(server->tiers_.size())) {
    return core::Status::InvalidArgument(
        origin + ": snapshot tier " + std::to_string(snap.tier) +
        " but only " + std::to_string(server->tiers_.size()) +
        " tiers configured");
  }
  server->ladder_.ForceTier(snap.tier);

  // Ids are dense and preserved: unrestored ids stay addressable but report
  // kUnavailable, so clients holding stale handles get a typed answer.
  server->sessions_.assign(static_cast<size_t>(snap.total_sessions), Sess{});
  for (Sess& s : server->sessions_) s.missing = true;

  for (const SessionRecord& rec : snap.sessions) {
    if (rec.tier >= static_cast<int>(server->tiers_.size())) {
      return core::Status::InvalidArgument(
          origin + ": session " + std::to_string(rec.server_id) +
          " uses tier " + std::to_string(rec.tier) + ", not configured");
    }
    core::Result<matchers::SessionId> engine_id = server->engine_->OpenRestored(
        rec.checkpoint, server->tiers_[rec.tier].factory);
    if (!engine_id.ok()) return engine_id.status();
    Sess& s = server->sessions_[rec.server_id];
    s.engine_id = *engine_id;
    s.tier = rec.tier;
    s.open = true;
    s.missing = false;
    if (rec.deadline_tick >= 0) {
      // v2: the exact deadline the session had, so it expires at the
      // original tick — required for byte-identical crash recovery.
      if (rec.deadline_tick > 0) {
        CHECK_OK(server->engine_->SetDeadline(*engine_id, rec.deadline_tick));
      }
    } else if (config.default_deadline_ticks > 0) {
      // v1 snapshots predate the field: re-arm the default (legacy behavior).
      CHECK_OK(server->engine_->SetDeadline(
          *engine_id, server->clock_ + config.default_deadline_ticks));
    }
  }
  return server;
}

core::Status MatchServer::EnableDurability(const DurabilityConfig& config) {
  if (journal_ != nullptr) {
    return core::Status::FailedPrecondition("durability already enabled");
  }
  if (config.dir.empty()) {
    return core::Status::InvalidArgument("durability dir is empty");
  }
  if (config.keep_snapshots < 1) {
    return core::Status::InvalidArgument("keep_snapshots must be >= 1");
  }
  DurabilityConfig resolved = config;
  if (resolved.env == nullptr) resolved.env = io::Env::Default();
  if (resolved.journal.env == nullptr) resolved.journal.env = resolved.env;
  core::Result<std::unique_ptr<io::JournalWriter>> journal =
      io::JournalWriter::Open(resolved.dir, resolved.journal);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(*journal);
  durability_ = resolved;
  env_ = resolved.env;
  if (resolved.disk_guard.low_watermark_bytes > 0) {
    disk_guard_ = std::make_unique<DiskGuard>(resolved.disk_guard);
  }
  const std::vector<int> gens = ListSnapshotGenerations(config.dir);
  snapshot_gen_ = gens.empty() ? 0 : gens.back();
  return core::Status::Ok();
}

core::Status MatchServer::JournalAppend(const std::string& line) {
  if (journal_ == nullptr) return core::Status::Ok();
  const bool every_record =
      durability_.journal.fsync == io::FsyncPolicy::kEveryRecord;
  if (degraded_nondurable_) {
    ++events_not_journaled_;
    // Group-commit policies never promised per-record durability, so the
    // ack stays ok and the degraded state is what clients must watch. Under
    // kEveryRecord the ack itself was the promise — break it loudly.
    if (every_record) {
      return core::Status::DataLoss(
          "event applied but not durable: journaling suspended "
          "(degraded-nondurable)");
    }
    return core::Status::Ok();
  }
  core::Result<int64_t> index = journal_->Append(line);
  if (!index.ok()) {
    ++journal_errors_;
    if (journal_->wedged()) {
      EnterDegraded("journal wedged: " + index.status().message());
    }
    if (every_record) {
      return core::Status::DataLoss("event applied but not durable: " +
                                    index.status().message());
    }
    // Buffered-append failures outside kEveryRecord only happen once the
    // journal is wedged; the tick path owns degraded-mode bookkeeping.
  }
  return core::Status::Ok();
}

void MatchServer::UpdateDiskGuard() {
  if (disk_guard_ != nullptr) {
    core::Result<io::DiskSpace> space = env_->GetDiskSpace(durability_.dir);
    // An unstat-able filesystem counts as exhausted: if statvfs fails we
    // cannot promise durability either.
    const int64_t free = space.ok() ? space->available_bytes : 0;
    switch (disk_guard_->Observe(free)) {
      case DiskGuard::Transition::kEnterDegraded:
        EnterDegraded("disk free " + std::to_string(free) +
                      " bytes below low watermark");
        break;
      case DiskGuard::Transition::kExitDegraded:
      case DiskGuard::Transition::kNone:
        break;
    }
  }
  // Restoration: space is back (or the guard is off) and the journal can
  // still be written — take the fresh checkpoint that re-covers state.
  if (degraded_nondurable_ && !journal_->wedged() &&
      (disk_guard_ == nullptr || !disk_guard_->degraded())) {
    TryRestoreDurability();
  }
}

void MatchServer::EnterDegraded(const std::string& why) {
  if (degraded_nondurable_) return;
  degraded_nondurable_ = true;
  ++degraded_entered_;
  commit_fail_streak_ = 0;
  LOG_WARNING << "entering degraded-nondurable mode: " << why;
}

void MatchServer::TryRestoreDurability() {
  // The checkpoint is the exit gate: it flushes anything still buffered in
  // the journal, snapshots full server state (covering every event applied
  // while journaling was suspended), and compacts. Only a *complete*
  // success restores the durability claim; any failure leaves the server
  // degraded and the next tick retries.
  const core::Status st = DoCheckpoint();
  if (!st.ok()) return;
  degraded_nondurable_ = false;
  ++degraded_exited_;
  LOG_INFO << "degraded-nondurable mode exited: checkpoint generation "
            << snapshot_gen_ << " restored durability";
}

DurabilityStatus MatchServer::durability_status() const {
  DurabilityStatus d;
  if (journal_ == nullptr) return d;
  d.enabled = true;
  d.journal_segments = journal_->segment_count();
  d.journal_bytes = journal_->total_bytes();
  d.last_durable_index = journal_->last_committed_index();
  d.last_durable_tick = last_durable_tick_;
  d.snapshot_generation = snapshot_gen_;
  d.journal_errors = journal_errors_;
  d.degraded_nondurable = degraded_nondurable_;
  d.degraded_entered = degraded_entered_;
  d.degraded_exited = degraded_exited_;
  d.events_not_journaled = events_not_journaled_;
  d.journal_seal_events = journal_->seal_events();
  d.journal_wedged = journal_->wedged();
  d.disk_free_bytes =
      disk_guard_ != nullptr ? disk_guard_->last_free_bytes() : -1;
  return d;
}

core::Status MatchServer::Checkpoint() {
  if (journal_ == nullptr) {
    return core::Status::FailedPrecondition(
        "durability not enabled (EnableDurability)");
  }
  if (degraded_nondurable_) {
    return core::Status::Unavailable(
        "degraded-nondurable: checkpoint refused until disk space frees "
        "(durability restores itself with a fresh checkpoint)");
  }
  return DoCheckpoint();
}

core::Status MatchServer::DoCheckpoint() {
  // Flush the journal first so journal_pos below is on disk, then quiesce the
  // engine so every live session is checkpointable.
  LHMM_RETURN_IF_ERROR(journal_->Commit());
  engine_->Barrier();

  std::vector<int64_t> unsupported;
  core::Result<ServerSnapshot> snap = CaptureSnapshot(&unsupported);
  if (!snap.ok()) return snap.status();
  sessions_not_durable_ = static_cast<int64_t>(unsupported.size());
  snap->journal_pos = journal_->next_index() - 1;

  const int gen = snapshot_gen_ + 1;
  LHMM_RETURN_IF_ERROR(
      SaveServerSnapshot(*snap, SnapshotGenPath(durability_.dir, gen), env_));
  snapshot_gen_ = gen;
  last_durable_tick_ = clock_;
  PruneSnapshots();

  // Compact only the journal prefix covered by EVERY kept generation, not
  // just the newest: recovery falls back to an older snapshot when the newest
  // is corrupt, and that fallback needs its own journal suffix intact.
  int64_t covered = snap->journal_pos;
  for (const int g : ListSnapshotGenerations(durability_.dir)) {
    if (g == gen) continue;
    core::Result<ServerSnapshot> old = LoadServerSnapshot(
        SnapshotGenPath(durability_.dir, g));
    // A kept generation that no longer loads can't be a fallback; it doesn't
    // hold any journal back.
    if (old.ok()) covered = std::min(covered, old->journal_pos);
  }
  return journal_->CompactThrough(covered);
}

void MatchServer::PruneSnapshots() {
  namespace fs = std::filesystem;
  for (const int gen : ListSnapshotGenerations(durability_.dir)) {
    if (gen <= snapshot_gen_ - durability_.keep_snapshots) {
      std::error_code ec;
      fs::remove(SnapshotGenPath(durability_.dir, gen), ec);
    }
  }
}

core::Status MatchServer::ReplayOpen(int64_t id, int tier) {
  if (tier < 0 || tier >= static_cast<int>(tiers_.size())) {
    return core::Status::InvalidArgument(
        "journaled open uses tier " + std::to_string(tier) + ", but only " +
        std::to_string(tiers_.size()) + " tiers configured");
  }
  if (id != static_cast<int64_t>(sessions_.size())) {
    return core::Status::Internal(
        "journaled open has id " + std::to_string(id) + " but replay is at " +
        std::to_string(sessions_.size()) +
        " (journal does not continue this snapshot)");
  }
  core::Result<matchers::SessionId> engine_id =
      engine_->TryOpen(tiers_[tier].factory);
  if (!engine_id.ok()) return engine_id.status();
  if (config_.default_deadline_ticks > 0) {
    // Replayed ticks put clock_ at the value the original open saw, so the
    // default deadline lands on the original tick.
    CHECK_OK(engine_->SetDeadline(*engine_id,
                                  clock_ + config_.default_deadline_ticks));
  }
  Sess s;
  s.engine_id = *engine_id;
  s.tier = tier;
  s.open = true;
  sessions_.push_back(s);
  ++opens_admitted_;
  return core::Status::Ok();
}

core::Result<MatchServer::Sess*> MatchServer::ReplaySession(int64_t id,
                                                          const char* event) {
  if (id < 0 || id >= static_cast<int64_t>(sessions_.size())) {
    return core::Status::InvalidArgument(std::string("journaled ") + event +
                                         " names session " + std::to_string(id) +
                                         ", outside the id space");
  }
  Sess& s = sessions_[id];
  if (s.missing || s.engine_id < 0) {
    return core::Status::Unavailable("session " + std::to_string(id) +
                                     " was not restored (not checkpointable)");
  }
  if (!s.open) {
    return core::Status::FailedPrecondition("session " + std::to_string(id) +
                                            " closed earlier in replay");
  }
  return &s;
}

core::Status MatchServer::ReplayPush(int64_t id, const traj::TrajPoint& point) {
  core::Result<Sess*> s = ReplaySession(id, "push");
  if (!s.ok()) return s.status();
  return engine_->PushBlocking((*s)->engine_id, point);
}

core::Status MatchServer::ReplayFinish(int64_t id) {
  core::Result<Sess*> s = ReplaySession(id, "finish");
  if (!s.ok()) return s.status();
  (*s)->open = false;
  return engine_->Finish((*s)->engine_id);
}

core::Status MatchServer::ReplaySetDeadline(int64_t id, int64_t deadline_tick) {
  core::Result<Sess*> s = ReplaySession(id, "deadline");
  if (!s.ok()) return s.status();
  return engine_->SetDeadline((*s)->engine_id, deadline_tick);
}

void MatchServer::ReplayTick(int64_t now) {
  if (now > clock_) clock_ = now;
  admission_.Advance(clock_);
  // Deadline expiry and TTL eviction are producer-side and deterministic, so
  // replaying them reproduces the original closures exactly. The watchdog and
  // degrade ladder are deliberately NOT run: both react to load/timing the
  // replay does not reproduce, and neither affects committed output (the
  // ladder only changes future opens, whose tier the journal records).
  engine_->AdvanceClock(clock_);
  for (Sess& s : sessions_) {
    if (!s.open || s.engine_id < 0) continue;
    const matchers::SessionState st = engine_->state(s.engine_id);
    if (st == matchers::SessionState::kExpired ||
        st == matchers::SessionState::kEvicted ||
        st == matchers::SessionState::kPoisoned) {
      s.open = false;
    }
  }
}

std::string SnapshotGenPath(const std::string& dir, int gen) {
  return dir + "/" + core::StrFormat("snapshot-%06d.snap", gen);
}

std::vector<int> ListSnapshotGenerations(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<int> gens;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return gens;
  for (const fs::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    // snapshot-NNNNNN.snap, exactly; .tmp in-progress files never match.
    if (name.size() != 20 || name.rfind("snapshot-", 0) != 0 ||
        name.compare(15, 5, ".snap") != 0) {
      continue;
    }
    bool digits = true;
    for (int i = 9; i < 15; ++i) {
      if (name[i] < '0' || name[i] > '9') digits = false;
    }
    if (!digits) continue;
    gens.push_back(std::atoi(name.substr(9, 6).c_str()));
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

}  // namespace lhmm::srv
