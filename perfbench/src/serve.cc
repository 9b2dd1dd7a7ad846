// serve-tcp: a real lhmm_serve process on the LHMM tier (--data --model),
// listening on loopback with a durable journal (--fsync tick, periodic
// checkpoints), driven by one thread of this process over two connections
// with the frame protocol, one round trip at a time, in two phases that
// alternate over kRounds rounds like stream-hz's:
//
//   Phase 1 (capacity): every session opened up front and its points pushed
//   round-robin as fast as the replies come; each connection then polls its
//   sessions' status in order until all have finished. The throughput is
//   the server's, not the schedule's.
//   Phase 2 (latency): an open loop. Session k opens at k * A and pushes its
//   points kPointGapS apart, all on a fixed wall-clock schedule. After its
//   finish, a session's status is polled until it reports finished; then its
//   committed path is fetched.
//
// `tick` heartbeats go out every kTickS on connection 0 in both phases.
// Session ids are taken only from "ok open" replies: push/finish with an
// unknown id aborts lhmm_serve (see the notes).
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <queue>
#include <sstream>
#include <thread>

#include "core/logging.h"
#include "core/strings.h"
#include "srv/resilient_client.h"
#include "workloads.h"

namespace perfbench {

namespace matchers = ::lhmm::matchers;
namespace fs = std::filesystem;

namespace {

constexpr int kSmokeSessions = 4;
constexpr int kConnections = 2;
constexpr double kTickS = 0.1;
/// A checkpoint tick stalls the server's network loop until every inbox is
/// flushed; every 5 s keeps checkpoints in both phases without putting one
/// in the way of every tenth session.
constexpr int kCheckpointEvery = 50;
constexpr double kPollS = 0.002;
/// A session still live this long after its phase's last event is due has
/// failed.
constexpr double kGiveUpS = 60.0;
constexpr int kIoTimeoutMs = 30000;
constexpr double kStartTimeoutS = 120.0;

/// One lhmm_serve child. The destructor kills and reaps it if it still runs.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits for its port file. Returns false (with the
  /// child reaped) when it exits or times out first.
  bool Start(const std::vector<std::string>& argv, const std::string& port_file,
             const std::string& log_file) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = open("/dev/null", O_RDWR);
      const int log = open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (devnull >= 0) {
        dup2(devnull, 0);
        dup2(devnull, 1);
      }
      if (log >= 0) dup2(log, 2);
      execv(cargv[0], cargv.data());
      _exit(127);
    }
    if (pid_ < 0) return false;
    const double deadline = NowS() + kStartTimeoutS;
    while (NowS() < deadline) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port) return true;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Kill();
    return false;
  }

  /// Graceful stop (SIGTERM: the server flushes, checkpoints and exits).
  /// Returns true when it exited with status 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }

  /// User + system CPU seconds so far, from /proc/<pid>/stat.
  double CpuS() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string f;
    long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::stoll(f);
      if (i == 15) stime = std::stoll(f);
    }
    return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
};

/// One timed round trip, no retry. Returns false on a lost reply.
bool Call(lhmm::srv::ResilientClient* client, const std::string& line,
          std::string* reply, double* rtt_ms) {
  const int64_t t0 = NowNs();
  lhmm::core::Result<std::string> r = client->TryCmd(line);
  *rtt_ms = 1e-6 * static_cast<double>(NowNs() - t0);
  if (!r.ok()) return false;
  *reply = std::move(r).value();
  return true;
}

/// Client-side state of one session.
struct Session {
  int64_t id = -1;
  bool failed = false;
  bool done = false;
  std::string tier;
  double last_due = 0.0;  ///< Phase 2 only.
  double traj_ms = 0.0;   ///< Phase 2 only.
  double done_s = 0.0;    ///< When its committed path arrived (NowS).
  Path committed;
};

/// Everything the client measured, over both phases and both connections.
struct ClientStats {
  std::vector<double> late_ms;
  std::vector<double> open_ms, push_ms, finish_ms, status_ms, tick_ms, checkpoint_ms;
  int64_t err_replies = 0;
  int64_t lost_replies = 0;
  int64_t shed = 0;      ///< Push refused by admission (typed shed codes).
  int64_t rejected = 0;  ///< Push refused by the engine.
  int64_t events = 0;    ///< Journaled verbs sent: open, push, finish, tick.
};

enum class Kind { kOpen, kPush, kFinish, kPoll, kTick };

struct Event {
  double due;
  int64_t seq;  ///< Tie-break: schedule order.
  Kind kind;
  int conn;     ///< Connection it is sent on.
  int k;        ///< Session index (or tick number).
  int j;        ///< Point index (or, for a chained poll, position in the chain).
  bool operator>(const Event& o) const {
    return due != o.due ? due > o.due : seq > o.seq;
  }
};

/// How one phase runs.
struct Phase {
  /// Phase 1: each connection polls its sessions one at a time, in opening
  /// order, after sending all their events. Phase 2: each session is polled
  /// from its finish on.
  bool chain_polls = false;
  /// Events run on a wall-clock schedule; their lateness is recorded.
  bool scheduled = false;
  /// A session still live at this time (NowS) has failed.
  double give_up_s = 0.0;
};

/// One connection's share of a phase: its session events in schedule order
/// and its sessions in opening order.
struct ConnPlan {
  std::vector<Event> events;
  std::vector<int> sessions;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Runs one phase to completion on the calling thread: every event goes out
/// on its connection, one round trip at a time, in due order. Connection 0
/// also sends a `tick` every kTickS from `first_tick_s` on, until every
/// session event is done; `*clock` is the last tick number sent.
void RunPhase(const std::vector<ConnPlan>& plans, double first_tick_s, const Phase& phase,
              const std::vector<Input>& inputs,
              std::vector<std::unique_ptr<lhmm::srv::ResilientClient>>* conns,
              std::vector<Session>* sessions, ClientStats* stats, int64_t* clock) {
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  int64_t seq = 0;
  int64_t pending = 0;  // Session events (not ticks) in the queue.
  const auto push = [&](Event e) {
    e.seq = seq++;
    if (e.kind != Kind::kTick) ++pending;
    queue.push(e);
  };
  for (const ConnPlan& plan : plans) {
    for (const Event& e : plan.events) push(e);
  }
  push({first_tick_s, 0, Kind::kTick, 0, static_cast<int>(*clock + 1), 0});
  // A chained poll for connection c's first session still in the running,
  // from position `from` of its chain on.
  const auto chain = [&](int c, size_t from) {
    const std::vector<int>& order = plans[c].sessions;
    for (size_t pos = from; pos < order.size(); ++pos) {
      const Session& s = (*sessions)[order[pos]];
      if (!s.failed && s.id >= 0) {
        push({NowS(), 0, Kind::kPoll, c, order[pos], static_cast<int>(pos)});
        return;
      }
    }
  };
  // The chains start behind every event already due: the sessions are not
  // open yet.
  for (int c = 0; c < static_cast<int>(plans.size()); ++c) {
    if (phase.chain_polls && !plans[c].sessions.empty()) {
      push({NowS(), 0, Kind::kPoll, c, plans[c].sessions[0], 0});
    }
  }

  // Sends one event; returns true when a live session must be polled again.
  std::string reply;
  double rtt = 0.0;
  const auto handle = [&](const Event& e) -> bool {
    Session* s = e.kind == Kind::kTick ? nullptr : &(*sessions)[e.k];
    if (s != nullptr && (s->failed || (e.kind != Kind::kOpen && s->id < 0))) {
      return false;  // Never send an id the server did not hand out.
    }
    std::string line;
    switch (e.kind) {
      case Kind::kOpen: line = "open"; break;
      case Kind::kPush: {
        const lhmm::traj::TrajPoint& p = inputs[e.k].points[e.j];
        line = lhmm::core::StrFormat("push %lld %.17g %.17g %.17g %d",
                                     static_cast<long long>(s->id), p.pos.x, p.pos.y,
                                     p.t, static_cast<int>(p.tower));
        break;
      }
      case Kind::kFinish: line = "finish " + std::to_string(s->id); break;
      case Kind::kPoll: line = "status " + std::to_string(s->id); break;
      case Kind::kTick: line = "tick " + std::to_string(e.k); break;
    }
    lhmm::srv::ResilientClient* client = (*conns)[e.conn].get();
    if (!Call(client, line, &reply, &rtt)) {
      ++stats->lost_replies;
      if (s != nullptr) s->failed = true;
      return false;
    }
    const bool ok = StartsWith(reply, "ok ");
    if (!ok) ++stats->err_replies;
    switch (e.kind) {
      case Kind::kOpen: {
        stats->open_ms.push_back(rtt);
        ++stats->events;
        std::istringstream in(reply);
        std::string word, verb;
        if (!ok || !(in >> word >> verb >> s->id >> s->tier)) {
          s->id = -1;
          s->failed = true;
        }
        return false;
      }
      case Kind::kPush:
        stats->push_ms.push_back(rtt);
        ++stats->events;
        if (!ok) {
          s->failed = true;
          if (reply.find("ResourceExhausted") != std::string::npos ||
              reply.find("Unavailable") != std::string::npos) {
            ++stats->shed;
          } else {
            ++stats->rejected;
          }
        }
        return false;
      case Kind::kFinish:
        stats->finish_ms.push_back(rtt);
        ++stats->events;
        if (!ok) {
          s->failed = true;
        } else if (!phase.chain_polls) {
          push({NowS() + kPollS, 0, Kind::kPoll, e.conn, e.k, 0});
        }
        return false;
      case Kind::kPoll: {
        stats->status_ms.push_back(rtt);
        std::istringstream in(reply);
        std::string word, verb, state;
        int64_t id = 0;
        if (!ok || !(in >> word >> verb >> id >> state)) {
          s->failed = true;
        } else if (state == "live") {
          if (NowS() < phase.give_up_s) return true;
          s->failed = true;
        } else if (state != "finished") {
          s->failed = true;
        } else if (!Call(client, "committed " + std::to_string(s->id), &reply, &rtt) ||
                   !StartsWith(reply, "ok committed ")) {
          s->failed = true;
        } else {
          s->done_s = NowS();
          s->traj_ms = 1e3 * (s->done_s - s->last_due);
          std::istringstream path(reply);
          size_t count = 0;
          path >> word >> verb >> id >> count;
          SegmentId seg = 0;
          while (path >> seg) s->committed.push_back(seg);
          if (s->committed.size() != count) s->failed = true;
          s->done = true;
        }
        return false;
      }
      case Kind::kTick:
        ++stats->events;
        *clock = e.k;
        (e.k % kCheckpointEvery == 0 ? stats->checkpoint_ms : stats->tick_ms)
            .push_back(rtt);
        return false;
    }
    return false;
  };

  while (pending > 0) {
    const Event e = queue.top();
    queue.pop();
    if (e.kind != Kind::kTick) --pending;
    SleepUntil(e.due);
    if (phase.scheduled && e.kind != Kind::kPoll) {
      stats->late_ms.push_back(1e3 * (NowS() - e.due));
    }
    const bool again = handle(e);
    if (e.kind == Kind::kPoll) {
      if (again) {
        push({NowS() + kPollS, 0, Kind::kPoll, e.conn, e.k, e.j});
      } else if (phase.chain_polls) {
        chain(e.conn, e.j + 1);
      }
    } else if (e.kind == Kind::kTick) {
      push({e.due + kTickS, 0, Kind::kTick, 0, e.k + 1, 0});
    }
  }
}

/// key=value field of a status/stats reply; 0 when absent.
int64_t Field(const std::string& reply, const std::string& key) {
  const size_t at = reply.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::atoll(reply.c_str() + at + key.size() + 2);
}

/// stats' "pushes=<admitted>/<shed>" pair.
int64_t PushesShed(const std::string& stats) {
  const size_t at = stats.find(" pushes=");
  if (at == std::string::npos) return 0;
  const size_t slash = stats.find('/', at);
  return slash == std::string::npos ? 0 : std::atoll(stats.c_str() + slash + 1);
}

}  // namespace

int RunServe(const Options& opt) {
  Report report;
  if (opt.serve_bin.empty()) {
    fprintf(stderr, "serve-tcp needs --serve-bin\n");
    return 2;
  }
  // The in-process world scores the committed paths and computes the
  // streaming references; its load is not part of setup_s here.
  SetupTimes local;
  const std::unique_ptr<World> world = LoadWorld(opt.data_dir, &local);
  // Phase-2 sessions arrive over the rest of --seconds, less the last
  // session's own length in each round.
  const int n1 = opt.smoke ? kSmokeSessions
                           : std::max(1, static_cast<int>(kPhase1Share * opt.seconds *
                                                          kPhase1SessionsPerS));
  const int n2 = opt.smoke ? kSmokeSessions
                           : std::max(1, static_cast<int>(((1 - kPhase1Share) * opt.seconds -
                                                           1.5 * kRounds) *
                                                          kOfferedPointsPerS /
                                                          kPointsPerTrajectory));
  const int n = n1 + n2;
  const std::vector<Input> inputs = SelectInputs(opt.data_dir, opt.seed, n);
  ReferenceStore refs(opt.data_dir);
  bool correct = true;
  int64_t failed = 0;

  const std::string dir = opt.work_dir + "/serve";
  const std::string port_file = dir + "/port";
  const std::string log_file = opt.work_dir + "/lhmm_serve.log";
  fs::remove(log_file);
  const auto args = [&] {
    return std::vector<std::string>{
        opt.serve_bin, "--data", opt.data_dir + "/world", "--model",
        opt.data_dir + "/model.bin", "--listen", "127.0.0.1:0", "--port-file",
        port_file, "--threads", std::to_string(kMatcherThreads), "--lag",
        std::to_string(kLag), "--durable", dir + "/durable", "--fsync", "tick",
        "--checkpoint-every", std::to_string(kCheckpointEvery)};
  };

  // setup_s: spawn -> port file, the median of kSetupRepeats fresh starts;
  // the last server carries the load.
  std::vector<double> ready_ms;
  ServerProcess server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0 && !server.Stop()) {
      report.Info("lhmm_serve did not exit cleanly; see " + log_file);
      return 1;
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    const double t0 = NowS();
    if (!server.Start(args(), port_file, log_file)) {
      fprintf(stderr, "lhmm_serve failed to start; see %s\n", log_file.c_str());
      return 1;
    }
    ready_ms.push_back(1e3 * (NowS() - t0));
  }

  const double cpu0 = server.CpuS();
  std::vector<Session> sessions(n);
  ClientStats client_stats;
  // Both connections stay open through both phases. A checkpoint tick
  // flushes every session's inbox before it replies, which in phase 1 takes
  // seconds, hence the long socket timeout.
  std::vector<std::unique_ptr<lhmm::srv::ResilientClient>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<lhmm::srv::ResilientClient>(
        lhmm::srv::ResilientClientConfig{.port_file = port_file,
                                         .io_timeout_ms = kIoTimeoutMs}));
    // A connection that fails here makes every event sent on it a lost reply.
    (void)conns.back()->Connect();
  }
  int64_t clock = 0;

  // Phase 1: sessions [a, b), session k on connection k % kConnections,
  // everything due at once; opens, then pushes round-robin, each finish
  // right after its session's last point. Returns the time until the last
  // path arrived; a failed batch (counted below) still gives a finite time.
  const auto run_batch = [&](int a, int b) {
    const double start = NowS();
    std::vector<ConnPlan> plans(kConnections);
    size_t longest = 0;
    for (int k = a; k < b; ++k) {
      plans[k % kConnections].sessions.push_back(k);
      plans[k % kConnections].events.push_back(
          {start, 0, Kind::kOpen, k % kConnections, k, 0});
      longest = std::max<size_t>(longest, inputs[k].points.size());
    }
    for (size_t j = 0; j < std::max<size_t>(longest, 1); ++j) {
      for (int k = a; k < b; ++k) {
        const size_t len = inputs[k].points.size();
        const int c = k % kConnections;
        std::vector<Event>& events = plans[c].events;
        if (j < len) {
          events.push_back({start, 0, Kind::kPush, c, k, static_cast<int>(j)});
        }
        if (j + 1 == std::max<size_t>(len, 1)) {
          events.push_back({start, 0, Kind::kFinish, c, k, 0});
        }
      }
    }
    Phase phase;
    phase.chain_polls = true;
    phase.give_up_s = start + kGiveUpS;
    RunPhase(plans, start + kTickS, phase, inputs, &conns, &sessions, &client_stats,
             &clock);
    double wall = 1e-9;
    for (int k = a; k < b; ++k) {
      if (sessions[k].done) wall = std::max(wall, sessions[k].done_s - start);
    }
    return wall;
  };
  // Phase 2: sessions [a, b), an open loop on a fixed wall-clock schedule.
  const auto run_open_loop = [&](int a, int b) {
    if (a == b) return;
    int64_t points = 0;
    for (int k = a; k < b; ++k) points += inputs[k].points.size();
    const double arrival_gap = static_cast<double>(points) / (b - a) / kOfferedPointsPerS;
    const double start = NowS() + 0.05;
    std::vector<ConnPlan> plans(kConnections);
    double last_due = start;
    for (int k = a; k < b; ++k) {
      const int c = k % kConnections;
      ConnPlan& plan = plans[c];
      plan.sessions.push_back(k);
      const double open_at = start + (k - a) * arrival_gap;
      plan.events.push_back({open_at, 0, Kind::kOpen, c, k, 0});
      const int len = inputs[k].points.size();
      for (int j = 0; j < len; ++j) {
        plan.events.push_back({open_at + j * kPointGapS, 0, Kind::kPush, c, k, j});
      }
      sessions[k].last_due = open_at + std::max(0, len - 1) * kPointGapS;
      plan.events.push_back({sessions[k].last_due, 0, Kind::kFinish, c, k, 0});
      last_due = std::max(last_due, sessions[k].last_due);
    }
    Phase phase;
    phase.scheduled = true;
    phase.give_up_s = last_due + kGiveUpS;
    RunPhase(plans, start + kTickS, phase, inputs, &conns, &sessions, &client_stats,
             &clock);
  };
  // The phases alternate, as in stream-hz: phase-1 sessions are [0, n1),
  // phase-2 sessions [n1, n), each split evenly over the rounds.
  double wall1 = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    wall1 += run_batch(r * n1 / kRounds, (r + 1) * n1 / kRounds);
    run_open_loop(n1 + r * n2 / kRounds, n1 + (r + 1) * n2 / kRounds);
  }
  conns.clear();
  const double srv_cpu_s = server.CpuS() - cpu0;
  const double srv_rss_mb = PeakRssMb(server.pid());
  std::string stats_reply, status_reply;
  {
    lhmm::srv::ResilientClient client({.port_file = port_file});
    double rtt = 0.0;
    if (!client.Connect().ok() || !Call(&client, "stats", &stats_reply, &rtt) ||
        !Call(&client, "status", &status_reply, &rtt)) {
      correct = false;
    }
  }
  if (!server.Stop()) {
    report.Info("lhmm_serve did not exit cleanly; see " + log_file);
    correct = false;
  }
  fs::remove_all(dir);

  // References: sessions without one get it from an in-process StreamEngine
  // at the same lag; every committed path must equal its reference.
  std::vector<Input> missing;
  for (const Input& in : inputs) {
    if (!refs.Has("stream8", in.pool_index)) missing.push_back(in);
  }
  if (!missing.empty()) {
    lhmm::network::CachedRouter router(&world->bundle.net);
    matchers::StreamEngine engine(LhmmFactory(world.get()),
                                  EngineConfig(kMatcherThreads, &router));
    int64_t ref_failed = 0;
    const std::vector<matchers::SessionId> ids = RunSaturated(&engine, missing, &ref_failed);
    for (size_t i = 0; i < ids.size(); ++i) {
      refs.Check("stream8", missing[i].pool_index, PathDigest(engine.Committed(ids[i])));
    }
    if (ref_failed > 0) correct = false;
  }
  report.Info("references computed in process: " + std::to_string(missing.size()));

  std::vector<Path> paths;
  std::vector<uint64_t> digests;
  // Latency of the phase-2 sessions longer than kLag, as in stream-hz.
  std::vector<double> traj_ms;
  int64_t completed = 0, points1 = 0;
  int64_t not_lhmm = 0;
  for (int k = 0; k < n; ++k) {
    Session& s = sessions[k];
    if (s.tier != "tier=LHMM") ++not_lhmm;
    const uint64_t d = PathDigest(s.committed);
    const bool matches = s.done && refs.Check("stream8", inputs[k].pool_index, d);
    if (s.done && !matches) {
      report.Info("committed path differs from the in-process reference, pool index " +
                  std::to_string(inputs[k].pool_index));
      correct = false;
    }
    if (s.failed || !s.done || !matches || s.tier != "tier=LHMM") ++failed;
    paths.push_back(s.committed);
    digests.push_back(d);
    completed += s.done;
    if (k < n1) {
      points1 += inputs[k].points.size();
    } else if (s.done && inputs[k].points.size() > kLag) {
      traj_ms.push_back(s.traj_ms);
    }
  }
  const int64_t downgrades = Field(stats_reply, "downgrades");
  failed += downgrades;
  const int64_t events = client_stats.events, errs = client_stats.err_replies,
                lost = client_stats.lost_replies, shed = client_stats.shed,
                rejected = client_stats.rejected;
  report.Info("failures err_replies=" + std::to_string(errs) +
              " lost_replies=" + std::to_string(lost) + " shed=" + std::to_string(shed) +
              " rejected=" + std::to_string(rejected) +
              " not_lhmm=" + std::to_string(not_lhmm) +
              " downgrades=" + std::to_string(downgrades));
  refs.Save();

  if (!opt.trace) {
    const Accuracy acc = Score(world->bundle.net, inputs, paths);
    report.Add("traj_per_s", n1 / wall1, "1/s");
    report.Add("points_per_s", points1 / wall1, "1/s");
    report.Add("traj_ms_p50", Percentile(traj_ms, 0.5), "ms");
    report.Add("traj_ms_p80", Percentile(traj_ms, 0.8), "ms");
    report.Add("cpu_ms_per_traj", 1e3 * srv_cpu_s / n, "ms");
    report.Add("path_precision", acc.precision, "ratio");
    report.Add("path_recall", acc.recall, "ratio");
    report.Add("peak_rss_mb", srv_rss_mb, "MB");
    report.Add("setup_s", Median(ready_ms) / 1e3, "s");
    report.Info("samples sessions=" + std::to_string(completed) +
                " phase1_wall_s=" + std::to_string(wall1) +
                " phase2_timed_sessions=" + std::to_string(traj_ms.size()));
  } else {
    PerLayer layers;
    layers.gen_late_ms_p99 = Percentile(client_stats.late_ms, 0.99);
    layers.rpc_open_ms_p50 = Median(client_stats.open_ms);
    layers.rpc_push_ms_p50 = Percentile(client_stats.push_ms, 0.5);
    layers.rpc_push_ms_p99 = Percentile(client_stats.push_ms, 0.99);
    layers.rpc_finish_ms_p50 = Median(client_stats.finish_ms);
    layers.rpc_status_ms_p50 = Median(client_stats.status_ms);
    layers.rpc_tick_ms_p50 = Median(client_stats.tick_ms);
    layers.checkpoint_ms_p50 = Median(client_stats.checkpoint_ms);
    layers.journal_segments = Field(status_reply, "journal_segments");
    layers.journal_bytes_per_event =
        events > 0 ? static_cast<double>(Field(status_reply, "journal_bytes")) / events
                   : 0.0;
    layers.srv_cpu_s = srv_cpu_s;
    layers.pushes_rejected = rejected;
    layers.pushes_shed = PushesShed(stats_reply);
    layers.downgrades = downgrades;
    AddPerLayerMetrics(layers, &report);
    local.ready_ms = Median(ready_ms);
    AddSetupMetrics({local}, true, &report);
  }
  if (!CheckModelHash(opt.data_dir, &report)) correct = false;
  report.Info("digest serve-tcp seed=" + std::to_string(opt.seed) +
              " paths=" + std::to_string(digests.size()) + " " +
              Hex(CombineDigests(digests)));
  report.Print(correct && failed == 0, n, failed);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace perfbench
