#include "srv/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/strings.h"

namespace lhmm::srv {

namespace {

std::string ErrLine(const core::Status& s) {
  return "err " + std::string(core::StatusCodeName(s.code())) + " " +
         s.message();
}

const char* StateName(matchers::SessionState s) {
  switch (s) {
    case matchers::SessionState::kLive: return "live";
    case matchers::SessionState::kFinished: return "finished";
    case matchers::SessionState::kEvicted: return "evicted";
    case matchers::SessionState::kExpired: return "expired";
    case matchers::SessionState::kPoisoned: return "poisoned";
  }
  return "unknown";
}

/// Poll rounds the listener sits out after an unshed-able EMFILE. One round
/// is one poll_interval_ms timeout, so the pause is short — just long enough
/// that a starved server waits in poll() instead of spinning on a
/// permanently-readable listen fd.
constexpr int kAcceptPauseRounds = 5;

core::Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return core::Status::IoError(
        core::StrFormat("fcntl(O_NONBLOCK): %s", strerror(errno)));
  }
  return core::Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// CommandProcessor
// ---------------------------------------------------------------------------

CommandProcessor::CommandProcessor(MatchServer* server,
                                   const CommandOptions& options)
    : server_(server),
      options_(options),
      start_(std::chrono::steady_clock::now()) {}

bool CommandProcessor::Process(const std::string& line, std::string* response,
                               bool* quit) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return false;
  if (cmd == "quit") {
    *quit = true;
    return false;
  }
  if (cmd == "open") {
    core::Result<int64_t> id = server_->OpenSession();
    if (!id.ok()) {
      *response = ErrLine(id.status());
    } else {
      *response = core::StrFormat(
          "ok open %lld tier=%s", static_cast<long long>(*id),
          server_->tier_name(server_->session_tier(*id)).c_str());
    }
    return true;
  }
  if (cmd == "push") {
    int64_t id;
    traj::TrajPoint p;
    long tower;
    if (!(in >> id >> p.pos.x >> p.pos.y >> p.t >> tower)) {
      *response = ErrLine(
          core::Status::InvalidArgument("usage: push <id> <x> <y> <t> <tower>"));
      return true;
    }
    p.tower = static_cast<traj::TowerId>(tower);
    const core::Status st = server_->Push(id, p);
    *response = st.ok() ? core::StrFormat("ok push %lld",
                                          static_cast<long long>(id))
                        : ErrLine(st);
    return true;
  }
  if (cmd == "finish") {
    int64_t id;
    if (!(in >> id)) {
      *response = ErrLine(core::Status::InvalidArgument("usage: finish <id>"));
      return true;
    }
    const core::Status st = server_->Finish(id);
    *response = st.ok() ? core::StrFormat("ok finish %lld",
                                          static_cast<long long>(id))
                        : ErrLine(st);
    return true;
  }
  if (cmd == "deadline") {
    int64_t id, tick;
    if (!(in >> id >> tick)) {
      *response =
          ErrLine(core::Status::InvalidArgument("usage: deadline <id> <tick>"));
      return true;
    }
    const core::Status st = server_->SetDeadline(id, tick);
    *response = st.ok() ? core::StrFormat("ok deadline %lld",
                                          static_cast<long long>(id))
                        : ErrLine(st);
    return true;
  }
  if (cmd == "tick") {
    int64_t now;
    if (!(in >> now)) {
      *response = ErrLine(core::Status::InvalidArgument("usage: tick <now>"));
      return true;
    }
    server_->Tick(now);
    if (server_->durable() && options_.checkpoint_every > 0 &&
        server_->clock() % options_.checkpoint_every == 0) {
      const core::Status st = server_->Checkpoint();
      if (!st.ok()) {
        fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      }
    }
    *response = core::StrFormat("ok tick %lld tier=%s",
                                static_cast<long long>(server_->clock()),
                                server_->active_tier_name().c_str());
    return true;
  }
  if (cmd == "await") {
    server_->Barrier();
    *response = "ok await";
    return true;
  }
  if (cmd == "committed") {
    int64_t id;
    if (!(in >> id)) {
      *response =
          ErrLine(core::Status::InvalidArgument("usage: committed <id>"));
      return true;
    }
    if (const core::Status known = server_->CheckId(id); !known.ok()) {
      *response = ErrLine(known);
      return true;
    }
    const std::vector<network::SegmentId> path = server_->Committed(id);
    *response = core::StrFormat("ok committed %lld %zu",
                                static_cast<long long>(id), path.size());
    for (const network::SegmentId s : path) {
      response->append(core::StrFormat(" %d", s));
    }
    return true;
  }
  if (cmd == "status") {
    int64_t id;
    if (!(in >> id)) {
      // No id: server-level status, durability included. The crash harness
      // and operators read the journal/snapshot fields from here.
      const DurabilityStatus d = server_->durability_status();
      // store_* reports the data plane: which store generation this worker
      // maps (mapped mode) or -1 with mode=owned when every asset is a
      // private heap copy. lhmm_fleet reads these to surface generation skew.
      const store::StoreStatus ss =
          options_.store ? options_.store->Status() : store::StoreStatus{-1, -1, 0};
      *response = core::StrFormat(
          "ok status clock=%lld tier=%s durable=%d"
          " journal_segments=%lld journal_bytes=%lld"
          " last_durable_index=%lld last_durable_tick=%lld"
          " snapshot_gen=%d journal_errors=%lld"
          " store_gen=%lld store_bytes=%lld store_mode=%s",
          static_cast<long long>(server_->clock()),
          server_->active_tier_name().c_str(), d.enabled ? 1 : 0,
          static_cast<long long>(d.journal_segments),
          static_cast<long long>(d.journal_bytes),
          static_cast<long long>(d.last_durable_index),
          static_cast<long long>(d.last_durable_tick), d.snapshot_generation,
          static_cast<long long>(d.journal_errors),
          static_cast<long long>(ss.generation),
          static_cast<long long>(ss.bytes),
          options_.store ? "mapped" : "owned");
      // Resource-exhaustion state rides at the end of the line (existing
      // parsers key on field names, so appending is compatible): degraded=1
      // means journaling is suspended and pushes ack DataLoss under
      // kEveryRecord until disk space frees and the exit checkpoint lands.
      response->append(core::StrFormat(
          " degraded=%d degraded_entered=%lld degraded_exited=%lld"
          " events_not_journaled=%lld journal_sealed=%lld journal_wedged=%d"
          " disk_free=%lld",
          d.degraded_nondurable ? 1 : 0,
          static_cast<long long>(d.degraded_entered),
          static_cast<long long>(d.degraded_exited),
          static_cast<long long>(d.events_not_journaled),
          static_cast<long long>(d.journal_seal_events),
          d.journal_wedged ? 1 : 0,
          static_cast<long long>(d.disk_free_bytes)));
      return true;
    }
    if (const core::Status known = server_->CheckId(id); !known.ok()) {
      *response = ErrLine(known);
      return true;
    }
    // pushed= lets a client resume a session after a crash: recovery rolls
    // back to the durable prefix, and this is where it ends.
    const core::Status st = server_->SessionStatus(id);
    *response = core::StrFormat(
        "ok status %lld %s %s pushed=%lld", static_cast<long long>(id),
        StateName(server_->state(id)), core::StatusCodeName(st.code()),
        static_cast<long long>(server_->Stats(id).points_pushed));
    return true;
  }
  if (cmd == "health") {
    // Liveness probe for supervisors: tier (where on the degrade ladder the
    // server is), logical clock, and durability generation. Everything comes
    // from the shared MatchServer, so stdin and socket transports answer
    // byte-identically — srv::Supervisor keys on the "ok health " prefix.
    const DurabilityStatus d = server_->durability_status();
    *response = core::StrFormat(
        "ok health tier=%s clock=%lld durable=%d gen=%d live=%lld",
        server_->active_tier_name().c_str(),
        static_cast<long long>(server_->clock()), d.enabled ? 1 : 0,
        d.snapshot_generation,
        static_cast<long long>(server_->metrics().live_sessions));
    // Only mapped-mode workers carry the field; the response is otherwise
    // unchanged so existing probes (and their exact-match tests) still hold.
    if (options_.store != nullptr) {
      response->append(core::StrFormat(
          " store=%lld",
          static_cast<long long>(options_.store->Status().generation)));
    }
    return true;
  }
  if (cmd == "pid") {
    // Lets supervisors and scripts address the worker process behind either
    // transport; uptime is integer seconds since this processor was built.
    const long long uptime =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    *response = core::StrFormat("ok pid %d uptime=%lld",
                                static_cast<int>(getpid()), uptime);
    return true;
  }
  if (cmd == "stats") {
    const ServerMetrics m = server_->metrics();
    *response = core::StrFormat(
        "ok stats clock=%lld tier=%s live=%lld queue=%lld opens=%lld/%lld"
        " pushes=%lld/%lld expired=%lld quarantined=%lld evicted=%lld"
        " downgrades=%lld upgrades=%lld",
        static_cast<long long>(m.clock), server_->active_tier_name().c_str(),
        static_cast<long long>(m.live_sessions),
        static_cast<long long>(m.queue_depth),
        static_cast<long long>(m.opens_admitted),
        static_cast<long long>(m.opens_shed),
        static_cast<long long>(m.pushes_admitted),
        static_cast<long long>(m.pushes_shed),
        static_cast<long long>(m.expired_sessions),
        static_cast<long long>(m.quarantined_sessions),
        static_cast<long long>(m.evicted_sessions),
        static_cast<long long>(m.downgrades),
        static_cast<long long>(m.upgrades));
    return true;
  }
  if (cmd == "checkpoint") {
    const core::Status st = server_->Checkpoint();
    *response = st.ok()
                    ? core::StrFormat(
                          "ok checkpoint gen=%d",
                          server_->durability_status().snapshot_generation)
                    : ErrLine(st);
    return true;
  }
  if (cmd == "swap") {
    // Hot model swap: flip to store generation <gen>. The manager validates
    // the candidate fully (header, CRCs, fingerprint against the live
    // network) before anything changes, so a reject leaves the serving
    // generation untouched — the typed error names the file and byte offset.
    long long gen = -1;
    if (!(in >> gen)) {
      *response = ErrLine(core::Status::InvalidArgument("usage: swap <gen>"));
      return true;
    }
    if (options_.store == nullptr) {
      *response = ErrLine(core::Status::FailedPrecondition(
          "no store attached (start with --store)"));
      return true;
    }
    const core::Result<store::StoreStatus> r = options_.store->Swap(gen);
    *response = r.ok()
                    ? core::StrFormat(
                          "ok swap gen=%lld prev=%lld bytes=%lld",
                          static_cast<long long>(r->generation),
                          static_cast<long long>(r->previous_generation),
                          static_cast<long long>(r->bytes))
                    : ErrLine(r.status());
    return true;
  }
  if (cmd == "rollback") {
    if (options_.store == nullptr) {
      *response = ErrLine(core::Status::FailedPrecondition(
          "no store attached (start with --store)"));
      return true;
    }
    const core::Result<store::StoreStatus> r = options_.store->Rollback();
    *response = r.ok()
                    ? core::StrFormat(
                          "ok rollback gen=%lld prev=%lld bytes=%lld",
                          static_cast<long long>(r->generation),
                          static_cast<long long>(r->previous_generation),
                          static_cast<long long>(r->bytes))
                    : ErrLine(r.status());
    return true;
  }
  if (cmd == "drain") {
    std::string path;
    if (!(in >> path)) {
      *response = ErrLine(core::Status::InvalidArgument("usage: drain <path>"));
      return true;
    }
    const core::Status st = server_->Drain(path);
    *response = st.ok() ? "ok drain " + path : ErrLine(st);
    return true;
  }
  *response =
      ErrLine(core::Status::InvalidArgument("unknown command '" + cmd + "'"));
  return true;
}

// ---------------------------------------------------------------------------
// NetServer
// ---------------------------------------------------------------------------

NetServer::NetServer(MatchServer* server, const CommandOptions& cmd_options,
                     const NetServerConfig& config)
    : server_(server),
      processor_(server, cmd_options),
      config_(config),
      env_(config.env != nullptr ? config.env : io::Env::Default()) {}

NetServer::~NetServer() {
  for (auto& c : conns_) {
    if (c->fd >= 0) close(c->fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (reserve_fd_ >= 0) close(reserve_fd_);
}

core::Status NetServer::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return core::Status::IoError(
        core::StrFormat("socket: %s", strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (config_.reuse_port) {
#ifdef SO_REUSEPORT
    if (setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
        0) {
      return core::Status::IoError(
          core::StrFormat("setsockopt(SO_REUSEPORT): %s", strerror(errno)));
    }
#else
    return core::Status::Unimplemented("SO_REUSEPORT not available");
#endif
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return core::Status::InvalidArgument(
        "bad listen host '" + config_.host + "' (numeric IPv4 expected)");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return core::Status::IoError(core::StrFormat(
        "bind %s:%d: %s", config_.host.c_str(), config_.port,
        strerror(errno)));
  }
  if (listen(listen_fd_, config_.backlog) < 0) {
    return core::Status::IoError(
        core::StrFormat("listen: %s", strerror(errno)));
  }
  LHMM_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    return core::Status::IoError(
        core::StrFormat("getsockname: %s", strerror(errno)));
  }
  port_ = ntohs(bound.sin_port);
  // Arm the reserve descriptor for the EMFILE shed path (see Accept). Best
  // effort: if even this open fails the server still runs, it just falls
  // back to accept-pausing under fd exhaustion.
  if (reserve_fd_ < 0) reserve_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
  return core::Status::Ok();
}

void NetServer::Accept() {
  for (;;) {
    const core::Result<int> accepted = env_->AcceptFd(listen_fd_);
    if (accepted.ok() && *accepted < 0) return;  // Backlog drained (EAGAIN).
    if (!accepted.ok()) {
      if (accepted.status().code() != core::StatusCode::kResourceExhausted) {
        // Transient per-connection failure (ECONNABORTED, ...): the next
        // poll round retries; nothing to clean up.
        ++metrics_.accept_failures;
        return;
      }
      // EMFILE/ENFILE. The pending connection cannot be accepted, but the
      // listen fd stays readable, so simply returning would make poll() a
      // busy loop. Surrender the reserve fd to free one descriptor slot,
      // accept the connection, close it immediately (the peer gets a clean
      // RST/EOF instead of hanging in the backlog until timeout), then
      // re-arm the reserve.
      if (reserve_fd_ >= 0) {
        close(reserve_fd_);
        reserve_fd_ = -1;
      }
      const core::Result<int> shed = env_->AcceptFd(listen_fd_);
      const bool shed_ok = shed.ok() && *shed >= 0;
      if (shed_ok) {
        close(*shed);
        ++metrics_.accepted_shed;
      } else {
        ++metrics_.accept_failures;
      }
      if (reserve_fd_ < 0) {
        reserve_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
      }
      if (shed_ok && reserve_fd_ >= 0) continue;  // Keep draining the storm.
      // Could not shed (another thread raced the freed slot) or could not
      // re-arm the reserve: stop polling the listener for a few rounds so
      // the loop blocks in poll() instead of spinning on POLLIN.
      accept_pause_rounds_ = kAcceptPauseRounds;
      return;
    }
    const int fd = *accepted;
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.so_sndbuf > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                 sizeof(config_.so_sndbuf));
    }
    auto conn = std::make_unique<Conn>(config_.max_frame_bytes);
    conn->fd = fd;
    conn->last_active = server_->clock();
    ++metrics_.accepted;
    conns_.push_back(std::move(conn));
  }
}

void NetServer::QueueResponse(Conn* conn, std::string_view response) {
  AppendFrame(response, &conn->out);
  ++metrics_.frames_out;
}

bool NetServer::HandleReadable(Conn* conn, bool* quit) {
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      ++metrics_.peer_disconnects;
      return false;
    }
    if (n == 0) {
      // Peer closed — possibly mid-frame; the partial dies with the conn and
      // nothing else is affected (sessions are server state, not conn state).
      ++metrics_.peer_disconnects;
      return false;
    }
    std::vector<std::string> lines;
    const core::Status decoded =
        conn->decoder.Feed(buf, static_cast<size_t>(n), &lines);
    for (const std::string& line : lines) {
      ++metrics_.frames_in;
      // Write-queue backpressure: a reader that stopped draining responses
      // gets typed kResourceExhausted rejects (same contract as admission)
      // instead of unbounded buffering; each reject costs one small frame
      // and no server work, so queue growth stays bounded by what the
      // client itself sends.
      if (conn->pending() > config_.max_write_queue_bytes) {
        ++metrics_.frames_shed;
        QueueResponse(conn,
                      "err ResourceExhausted connection write queue full");
        continue;
      }
      std::string response;
      bool q = false;
      if (processor_.Process(line, &response, &q)) {
        QueueResponse(conn, response);
      }
      conn->last_active = server_->clock();
      if (q) {
        // quit: stop dispatching (frames behind a quit are dropped by
        // design); the Run loop flushes every queued response and exits.
        *quit = true;
        return true;
      }
    }
    if (!decoded.ok()) {
      // Framing is unrecoverable: answer with the typed error, then close
      // once it is flushed.
      ++metrics_.codec_errors;
      QueueResponse(conn, ErrLine(decoded));
      conn->closing = true;
      return true;
    }
  }
}

bool NetServer::FlushWrites(Conn* conn) {
  while (conn->pending() > 0) {
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                           conn->pending(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      ++metrics_.peer_disconnects;
      return false;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  if (conn->pending() == 0) {
    conn->out.clear();
    conn->out_off = 0;
    if (conn->closing) return false;  // Fully flushed: graceful close.
  } else if (conn->out_off > (1u << 20)) {
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  return true;
}

void NetServer::CloseConn(Conn* conn) {
  if (conn->fd < 0) return;
  close(conn->fd);
  conn->fd = -1;
  ++metrics_.closed;
}

core::Status NetServer::Run(const std::atomic<bool>& stop) {
  if (listen_fd_ < 0) {
    return core::Status::FailedPrecondition("Listen() must succeed before Run");
  }
  bool stopping = false;
  bool quit = false;
  std::vector<pollfd> pfds;
  for (;;) {
    if (!stopping && (quit || stop.load(std::memory_order_relaxed))) {
      // Graceful drain: stop accepting, flush every queued response, then
      // close. The caller runs the checkpoint/snapshot shutdown afterwards.
      stopping = true;
      for (auto& c : conns_) c->closing = true;
    }
    for (auto& c : conns_) {
      if (c->fd >= 0 && c->closing && c->pending() == 0) CloseConn(c.get());
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->fd < 0;
                                }),
                 conns_.end());
    if (stopping && conns_.empty()) break;

    ++metrics_.poll_wakeups;
    pfds.clear();
    // Under fd exhaustion the listener is dropped from the poll set for a
    // few rounds (Accept sets accept_pause_rounds_ when it cannot shed);
    // otherwise poll() would return POLLIN instantly forever and the loop
    // would busy-spin.
    const bool poll_listener = !stopping && accept_pause_rounds_ == 0;
    if (accept_pause_rounds_ > 0) --accept_pause_rounds_;
    const size_t base = poll_listener ? 1 : 0;
    if (poll_listener) pfds.push_back({listen_fd_, POLLIN, 0});
    const size_t n_conns = conns_.size();
    for (size_t k = 0; k < n_conns; ++k) {
      short events = 0;
      if (!conns_[k]->closing) events |= POLLIN;
      if (conns_[k]->pending() > 0) events |= POLLOUT;
      pfds.push_back({conns_[k]->fd, events, 0});
    }
    const int rc = poll(pfds.data(), pfds.size(), config_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;  // A signal: re-check the stop flag.
      return core::Status::IoError(
          core::StrFormat("poll: %s", strerror(errno)));
    }
    for (size_t k = 0; k < n_conns; ++k) {
      Conn* c = conns_[k].get();
      if (c->fd < 0) continue;
      const short re = pfds[base + k].revents;
      bool alive = true;
      if (re & POLLNVAL) {
        alive = false;
      } else if (!c->closing && (re & (POLLIN | POLLHUP | POLLERR))) {
        alive = HandleReadable(c, &quit);
      } else if (c->closing && (re & (POLLHUP | POLLERR))) {
        ++metrics_.peer_disconnects;
        alive = false;
      }
      if (alive) alive = FlushWrites(c);
      if (!alive) CloseConn(c);
    }
    if (poll_listener && (pfds[0].revents & POLLIN)) Accept();
    // Half-open/idle reaping rides the server's logical clock: only `tick`
    // verbs advance it, so a fleet that stops ticking also stops reaping —
    // exactly the semantics of the engine's session idle TTL.
    if (config_.conn_idle_ttl > 0 && !stopping) {
      const int64_t now = server_->clock();
      for (auto& c : conns_) {
        if (c->fd >= 0 && !c->closing &&
            now - c->last_active >= config_.conn_idle_ttl) {
          ++metrics_.reaped_idle;
          CloseConn(c.get());
        }
      }
    }
  }
  close(listen_fd_);
  listen_fd_ = -1;
  return core::Status::Ok();
}

}  // namespace lhmm::srv
