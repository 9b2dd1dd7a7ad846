// lhmm_loadgen — deterministic, fault-injecting load generator for
// srv::MatchServer. It drives the serving front end in-process with a fleet
// of simulated clients that open sessions, stream points, and react to typed
// rejects the way a well-behaved client should: retry with exponential
// backoff plus jitter on kResourceExhausted/kUnavailable, give up on
// non-retryable codes. Route failures and latency are injected underneath
// via network::FaultyRouter, so the degrade ladder and quarantine paths see
// real pressure.
//
// Everything runs on the server's logical clock with a seeded core::Rng, so
// a given flag set replays the exact same offered load (worker timing only
// affects queue-depth shedding, never the token buckets or the ladder's
// sample sequence at a barrier).
//
//   lhmm_loadgen --smoke 1          # small run + accounting invariants; CI
//   lhmm_loadgen --sessions 200 --points 40 --route-failure-rate 0.05
//
// Exit status is nonzero when an accounting invariant breaks (a shed request
// not matched by a typed reject, a session stuck non-terminal — i.e. a
// silent drop or a deadlock) so the binary doubles as an end-to-end check.
//
// Crash gauntlet (--crash-at): drives a REAL lhmm_serve subprocess over its
// line protocol, SIGKILLs it after the k-th acknowledged push for each k in
// the comma-separated list, optionally mangles the journal the way a dying
// disk would (--crash-fault none|torn|bitflip|cycle), restarts the server on
// the same --durable directory, resumes every session from the server's
// reported pushed= progress, and diffs the final committed output against an
// uninterrupted oracle run of the same binary. Byte-identical or exit 1.
//
//   lhmm_loadgen --crash-at 5,23,57 --crash-fault cycle \
//                --serve-bin build/tools/lhmm_serve --threads 8
//
// With --transport socket the same gauntlet drives lhmm_serve over its TCP
// frame protocol (--listen 127.0.0.1:0 --port-file, length-prefixed frames)
// instead of stdin pipes — same verbs, same kill points, same byte-identity
// requirement, so the socket transport earns exactly the durability story the
// stdin path already has.
//
// Net smoke (--net-smoke 1): spawns lhmm_serve on a loopback listener and
// drives it with a fleet of REAL concurrent TCP connections (--connections,
// default 256) — every connection established before the first timed request,
// each running an open/push*/finish session over frames — then reports
// p50/p99/p999 round-trip latency. Any protocol failure, typed reject, or
// lost response is a nonzero exit, so CI runs it as a socket soak test.
//
//   lhmm_loadgen --net-smoke 1 --connections 256 \
//                --serve-bin build/tools/lhmm_serve --threads 4
//
// Fleet gauntlet (--fleet-gauntlet 1): runs a real multi-process fleet —
// N durable lhmm_serve workers plus one deliberately crash-looping worker —
// under srv::Supervisor, drives every worker concurrently through
// srv::ResilientClient while killing each one at least once under load
// (SIGKILL, a SIGKILL with a partial frame in flight, and a SIGSTOP wedge
// that only the supervisor's health probes can detect), and asserts: zero
// acknowledged-response loss (the durable pushed= watermark never falls
// below what the client saw acked), final committed output byte-identical
// to an uninterrupted single-process oracle, the crash-loop breaker parking
// the bad worker while the rest keep serving, and a clean whole-fleet
// SIGTERM drain.
//
//   lhmm_loadgen --fleet-gauntlet 1 --workers 4 \
//                --serve-bin build/tools/lhmm_serve --threads 8
//
// Swap gauntlet (--swap-gauntlet 1): a 4-worker fleet all mapping ONE shared
// versioned store (--store) serves continuous srv::ResilientClient load while
// a new store generation is built on disk, hot-swapped in (`swap 2` fanned to
// every worker), attacked with five corrupt swap candidates (torn tail, bit
// flip, garbage header, future format version, wrong-network fingerprint —
// each must be a typed file+offset reject that leaves the serving generation
// untouched), and finally rolled back. Requires zero acknowledged-response
// loss and committed output byte-identical to an uninterrupted owned-mode
// oracle — the store-backed data plane must be invisible to results.
//
//   lhmm_loadgen --swap-gauntlet 1 --workers 4 \
//                --serve-bin build/tools/lhmm_serve --threads 8
//
// Chaos gauntlet (--chaos-gauntlet 1): scheduled resource exhaustion. Every
// durable write path runs against an io::FaultEnv that injects ENOSPC,
// failed fsyncs, and EMFILE on exact, scripted syscalls: a statvfs-scheduled
// low-disk window must flip the server into degraded-nondurable mode on its
// exact tick (kDataLoss push acks under --fsync record, checkpoints refused,
// durability restored by the exit checkpoint), a persistent journal ENOSPC
// storm must seal-and-rotate without ever tearing a segment, failed
// snapshot/store publishes must never advance a generation pointer or leave
// a readable partial, and an EMFILE accept storm must shed connections with
// a clean EOF instead of busy-spinning the poll loop. Committed output after
// each storm must be byte-identical to an uninterrupted oracle and to a
// post-storm srv::Recover() of the durable directory. With --serve-bin the
// gauntlet additionally starves a REAL lhmm_serve of file descriptors
// (RLIMIT_NOFILE in the child) under a loopback connection storm.
//
//   lhmm_loadgen --chaos-gauntlet 1 \
//                --serve-bin build/tools/lhmm_serve --threads 8

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/strings.h"
#include "hmm/classic_models.h"
#include "io/env.h"
#include "io/fault_file.h"
#include "io/journal.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "network/faulty_router.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "srv/frame.h"
#include "srv/match_server.h"
#include "srv/net_server.h"
#include "srv/recovery.h"
#include "srv/resilient_client.h"
#include "srv/supervisor.h"
#include "store/format.h"
#include "store/generations.h"
#include "store/store_writer.h"
#include "traj/trajectory.h"

using namespace lhmm;  // NOLINT(build/namespaces): CLI driver.

namespace {

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> out;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    out[key] = argv[i + 1];
  }
  return out;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int GetInt(const std::map<std::string, std::string>& args,
           const std::string& key, int fallback) {
  int v = 0;
  return core::ParseInt(Get(args, key, ""), &v) ? v : fallback;
}

double GetDouble(const std::map<std::string, std::string>& args,
                 const std::string& key, double fallback) {
  const std::string s = Get(args, key, "");
  if (s.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' ? v : fallback;
}

/// One simulated client streaming one trajectory, with retry + exponential
/// backoff + jitter against typed rejects.
struct Client {
  enum class Phase { kOpening, kStreaming, kFinishing, kDone };

  traj::Trajectory traj;
  Phase phase = Phase::kOpening;
  int64_t session = -1;
  int next_point = 0;
  int attempts = 0;        ///< Consecutive retryable failures of the current op.
  int64_t ready_at = 0;    ///< Tick the current op may be (re)tried.
  bool abandons = false;   ///< Fault injection: walks away mid-stream.
  std::string outcome;     ///< Terminal label for the summary.
};

bool Retryable(const core::Status& s) {
  return s.code() == core::StatusCode::kResourceExhausted ||
         s.code() == core::StatusCode::kUnavailable;
}

/// Exponential backoff with jitter, in ticks: base * 2^attempts, capped,
/// plus a uniform jitter of up to half the backoff. Deterministic via rng.
int64_t Backoff(int attempts, core::Rng* rng) {
  const int64_t base = 2;
  const int64_t cap = 64;
  int64_t wait = base << std::min(attempts, 5);
  wait = std::min(wait, cap);
  return wait + rng->UniformInt(0, static_cast<int>(wait / 2));
}

struct Tally {
  int64_t attempted_opens = 0;
  int64_t ok_opens = 0;
  int64_t shed_opens = 0;
  int64_t attempted_pushes = 0;
  int64_t ok_pushes = 0;
  int64_t shed_pushes = 0;     ///< Typed retryable rejects observed.
  int64_t hard_pushes = 0;     ///< Typed non-retryable rejects observed.
  int64_t gave_up = 0;
};

// ---------------------------------------------------------------------------
// Crash gauntlet: SIGKILL a real lhmm_serve mid-stream, recover, diff.
// ---------------------------------------------------------------------------

/// Blocking loopback connect with retry: 256 simultaneous dials can overflow
/// the listener's accept backlog, so a refused/failed attempt backs off and
/// tries again instead of failing the run.
int DialLoopback(int port, int attempts = 200) {
  for (int i = 0; i < attempts; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    close(fd);
    usleep(2000);
  }
  return -1;
}

/// A spawned lhmm_serve with a pipe pair for its line protocol (the default)
/// or a loopback socket speaking the frame protocol (StartSocket). The
/// child's stderr is inherited so recovery reports land in the harness log.
struct ServeProc {
  pid_t pid = -1;
  FILE* to = nullptr;    ///< Our write end of the child's stdin.
  FILE* from = nullptr;  ///< Our read end of the child's stdout.
  int sock = -1;         ///< Frame-protocol connection; -1 = pipe transport.
  int port = 0;          ///< Bound port in socket mode.
  std::string port_file;
  /// When > 0, RLIMIT_NOFILE is clamped to this in the child before exec —
  /// the chaos gauntlet's way of starving a REAL server of descriptors.
  int rlimit_nofile = 0;

  void ClampFds() const {
    if (rlimit_nofile <= 0) return;
    rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(rlimit_nofile);
    rl.rlim_max = static_cast<rlim_t>(rlimit_nofile);
    setrlimit(RLIMIT_NOFILE, &rl);
  }

  bool Start(const std::vector<std::string>& argv_strs) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
      perror("pipe");
      return false;
    }
    pid = fork();
    if (pid < 0) {
      perror("fork");
      return false;
    }
    if (pid == 0) {
      dup2(in_pipe[0], 0);
      dup2(out_pipe[1], 1);
      close(in_pipe[0]);
      close(in_pipe[1]);
      close(out_pipe[0]);
      close(out_pipe[1]);
      ClampFds();
      std::vector<char*> argv;
      argv.reserve(argv_strs.size() + 1);
      for (const std::string& a : argv_strs) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      perror("execv");
      _exit(127);
    }
    close(in_pipe[0]);
    close(out_pipe[1]);
    to = fdopen(in_pipe[1], "w");
    from = fdopen(out_pipe[0], "r");
    return to != nullptr && from != nullptr;
  }

  /// Socket transport: spawns the server with --listen 127.0.0.1:0 and a
  /// --port-file, waits for the atomically-published port, and connects one
  /// frame-protocol client. Cmd() then speaks frames over this socket.
  bool StartSocket(std::vector<std::string> argv_strs) {
    char tmpl[] = "/tmp/lhmm-port-XXXXXX";
    const int tfd = mkstemp(tmpl);
    if (tfd < 0) {
      perror("mkstemp");
      return false;
    }
    close(tfd);
    unlink(tmpl);  // The child publishes it fresh via rename.
    port_file = tmpl;
    const std::vector<std::string> extra = {"--listen", "127.0.0.1:0",
                                            "--port-file", port_file};
    argv_strs.insert(argv_strs.end(), extra.begin(), extra.end());
    pid = fork();
    if (pid < 0) {
      perror("fork");
      return false;
    }
    if (pid == 0) {
      ClampFds();
      std::vector<char*> argv;
      argv.reserve(argv_strs.size() + 1);
      for (const std::string& a : argv_strs) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      perror("execv");
      _exit(127);
    }
    // Poll for the published port (rename makes a partial read impossible).
    for (int i = 0; i < 5000; ++i) {
      FILE* f = fopen(port_file.c_str(), "r");
      if (f != nullptr) {
        const int got = fscanf(f, "%d", &port);
        fclose(f);
        if (got == 1 && port > 0) break;
      }
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        fprintf(stderr, "socket transport: server died before publishing "
                        "its port\n");
        pid = -1;
        return false;
      }
      usleep(2000);
    }
    if (port <= 0) {
      fprintf(stderr, "socket transport: no port published in %s\n",
              port_file.c_str());
      return false;
    }
    sock = DialLoopback(port);
    if (sock < 0) {
      fprintf(stderr, "socket transport: cannot connect to 127.0.0.1:%d\n",
              port);
      return false;
    }
    return true;
  }

  /// One protocol round trip — a line over the pipes or a frame over the
  /// socket, whichever transport this ServeProc runs. Empty string means the
  /// child is gone.
  std::string Cmd(const std::string& line) {
    if (sock >= 0) {
      if (!srv::WriteFrame(sock, line).ok()) return "";
      core::Result<std::string> resp = srv::ReadFrame(sock);
      return resp.ok() ? *resp : "";
    }
    fprintf(to, "%s\n", line.c_str());
    fflush(to);
    char* buf = nullptr;
    size_t cap = 0;
    const ssize_t n = getline(&buf, &cap, from);
    std::string out;
    if (n > 0) out.assign(buf, buf[n - 1] == '\n' ? n - 1 : n);
    free(buf);
    return out;
  }

  void Kill9() {
    if (pid > 0) kill(pid, SIGKILL);
  }

  /// Closes the transport and reaps the child; returns its raw wait status.
  int Wait() {
    if (to != nullptr) fclose(to);
    if (from != nullptr) fclose(from);
    to = nullptr;
    from = nullptr;
    if (sock >= 0) close(sock);
    sock = -1;
    if (!port_file.empty()) unlink(port_file.c_str());
    port_file.clear();
    int status = 0;
    if (pid > 0) waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }

  /// Graceful shutdown; true when the child exited 0 (its shutdown
  /// checkpoint, if durable, succeeded).
  bool Quit() {
    if (sock >= 0) {
      (void)srv::WriteFrame(sock, "quit");  // No response frame by design.
    } else {
      fprintf(to, "quit\n");
      fflush(to);
    }
    const int status = Wait();
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
};

/// The p-th push line of session `c`: a walk across grid row c, kept inside
/// lhmm_serve's default 10x10/200m network so every point has candidates.
/// Pure function of (c, p, points), so the oracle run, the crashed run, and
/// the resumed run all emit byte-identical event text.
std::string PushLine(int c, int p, int points) {
  const double x = 10.0 + (1780.0 / (points - 1)) * p;
  const double y = 200.0 * (c % 10) + 10.0;
  return core::StrFormat("push %d %.17g %.17g %.17g %d", c, x, y, 15.0 * p, p);
}

struct DriveResult {
  bool ok = false;       ///< Protocol ran as expected (including the kill).
  bool crashed = false;  ///< The SIGKILL fired at the requested push count.
  std::vector<std::string> committed;  ///< "ok committed ..." lines, by id.
};

/// Opens `sessions` sessions, checkpoints (durable mode — so the id mapping
/// is snapshot-covered and fault injection can only hurt pushes), then
/// streams all points round-robin with a tick per round. With crash_after
/// >= 0, SIGKILLs the server right after that many acknowledged pushes;
/// otherwise runs to finish/await/committed.
DriveResult Drive(ServeProc* sp, int sessions, int points, int crash_after,
                  bool durable) {
  DriveResult r;
  auto fail = [&r](const std::string& what, const std::string& got) {
    fprintf(stderr, "crash-gauntlet: expected %s, got '%s'\n", what.c_str(),
            got.c_str());
    return r;
  };
  for (int c = 0; c < sessions; ++c) {
    const std::string resp = sp->Cmd("open");
    long long id = -1;
    if (sscanf(resp.c_str(), "ok open %lld", &id) != 1 || id != c) {
      return fail("ok open " + std::to_string(c), resp);
    }
  }
  std::string resp = sp->Cmd("tick 1");
  if (resp.rfind("ok tick", 0) != 0) return fail("ok tick", resp);
  if (durable) {
    resp = sp->Cmd("checkpoint");
    if (resp.rfind("ok checkpoint", 0) != 0) return fail("ok checkpoint", resp);
  }
  int acked = 0;
  int64_t tick = 1;
  for (int p = 0; p < points; ++p) {
    for (int c = 0; c < sessions; ++c) {
      resp = sp->Cmd(PushLine(c, p, points));
      if (resp.rfind("ok push", 0) != 0) return fail("ok push", resp);
      if (++acked == crash_after) {
        sp->Kill9();
        sp->Wait();
        r.ok = true;
        r.crashed = true;
        return r;
      }
    }
    resp = sp->Cmd(core::StrFormat("tick %" PRId64, ++tick));
    if (resp.rfind("ok tick", 0) != 0) return fail("ok tick", resp);
  }
  for (int c = 0; c < sessions; ++c) {
    resp = sp->Cmd(core::StrFormat("finish %d", c));
    if (resp.rfind("ok finish", 0) != 0) return fail("ok finish", resp);
  }
  resp = sp->Cmd("await");
  if (resp != "ok await") return fail("ok await", resp);
  for (int c = 0; c < sessions; ++c) {
    resp = sp->Cmd(core::StrFormat("committed %d", c));
    if (resp.rfind("ok committed", 0) != 0) return fail("ok committed", resp);
    r.committed.push_back(resp);
  }
  r.ok = true;
  return r;
}

/// Resumes a recovered server: reads each session's durable pushed= progress,
/// replays the remainder of its trajectory, finishes everything, and collects
/// the committed lines. Exactly what a well-behaved client does after a
/// server crash rolls its stream back to the fsynced prefix.
bool Resume(ServeProc* sp, int sessions, int points,
            std::vector<std::string>* committed, int64_t* resumed_pushes) {
  auto fail = [](const std::string& what, const std::string& got) {
    fprintf(stderr, "crash-gauntlet: resume expected %s, got '%s'\n",
            what.c_str(), got.c_str());
    return false;
  };
  std::string resp = sp->Cmd("status");
  const char* clk = strstr(resp.c_str(), "clock=");
  if (resp.rfind("ok status", 0) != 0 || clk == nullptr) {
    return fail("ok status clock=...", resp);
  }
  int64_t tick = atoll(clk + 6);
  std::vector<int> next(static_cast<size_t>(sessions), 0);
  for (int c = 0; c < sessions; ++c) {
    resp = sp->Cmd(core::StrFormat("status %d", c));
    const char* pushed = strstr(resp.c_str(), "pushed=");
    if (resp.rfind("ok status", 0) != 0 || pushed == nullptr) {
      return fail("ok status ... pushed=", resp);
    }
    next[c] = atoi(pushed + 7);
    if (next[c] < 0 || next[c] > points) {
      return fail("pushed in [0," + std::to_string(points) + "]", resp);
    }
  }
  for (int c = 0; c < sessions; ++c) {
    for (int p = next[c]; p < points; ++p) {
      resp = sp->Cmd(PushLine(c, p, points));
      if (resp.rfind("ok push", 0) != 0) return fail("ok push", resp);
      ++*resumed_pushes;
      if (p % 8 == 7) sp->Cmd(core::StrFormat("tick %" PRId64, ++tick));
    }
  }
  sp->Cmd(core::StrFormat("tick %" PRId64, ++tick));
  for (int c = 0; c < sessions; ++c) {
    resp = sp->Cmd(core::StrFormat("finish %d", c));
    if (resp.rfind("ok finish", 0) != 0) return fail("ok finish", resp);
  }
  resp = sp->Cmd("await");
  if (resp != "ok await") return fail("ok await", resp);
  for (int c = 0; c < sessions; ++c) {
    resp = sp->Cmd(core::StrFormat("committed %d", c));
    if (resp.rfind("ok committed", 0) != 0) return fail("ok committed", resp);
    committed->push_back(resp);
  }
  return true;
}

/// Mangles the tail of the journal's final segment the way a dying disk
/// would. "torn" shaves 7 bytes (lands mid-frame: a torn tail the scanner
/// treats as a clean crash); "bitflip" flips a bit near the end (a complete
/// frame whose CRC no longer matches: mid-file corruption the recovery
/// truncates at). Either way the acked-but-mangled suffix rolls back and the
/// client re-pushes it, so the final output must still match the oracle.
bool InjectFault(const std::string& dir, const std::string& kind) {
  if (kind == "none") return true;
  core::Result<io::JournalScan> scan = io::ScanJournal(dir, false);
  if (!scan.ok() || scan->segments.empty()) {
    fprintf(stderr, "crash-gauntlet: no journal segment to mangle in %s\n",
            dir.c_str());
    return false;
  }
  const std::string path = scan->segments.back().path;
  core::Result<int64_t> size = io::FileSize(path);
  if (!size.ok()) return false;
  core::Status st;
  if (kind == "torn") {
    if (*size <= 23) return true;  // Header-only segment: nothing to tear.
    st = io::TornTail(path, 7);
  } else if (kind == "bitflip") {
    if (*size <= 25) return true;
    st = io::FlipBit(path, *size - 9, 3);
  } else {
    fprintf(stderr, "crash-gauntlet: unknown fault '%s'\n", kind.c_str());
    return false;
  }
  if (!st.ok()) {
    fprintf(stderr, "crash-gauntlet: fault injection failed: %s\n",
            st.message().c_str());
    return false;
  }
  return true;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/lhmm-crash-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  return dir == nullptr ? std::string() : std::string(dir);
}

/// The kill -9 gauntlet: one uninterrupted oracle run, then one crash-and-
/// recover run per --crash-at point, each diffed byte-for-byte against the
/// oracle's committed output.
int RunCrashGauntlet(const std::map<std::string, std::string>& args) {
  const std::string serve_bin = Get(args, "serve-bin", "");
  if (serve_bin.empty()) {
    fprintf(stderr, "crash-gauntlet: --crash-at requires --serve-bin\n");
    return 2;
  }
  const int sessions = GetInt(args, "sessions", 6);
  const int points = GetInt(args, "points", 30);
  const int threads = GetInt(args, "threads", 4);
  const std::string fault_mode = Get(args, "crash-fault", "cycle");
  const std::string transport = Get(args, "transport", "stdin");
  if (transport != "stdin" && transport != "socket") {
    fprintf(stderr, "crash-gauntlet: --transport must be stdin or socket\n");
    return 2;
  }
  const bool over_socket = transport == "socket";
  // Same gauntlet, either transport: the dispatcher is shared, so the socket
  // path must survive every kill point the stdin path survives, with
  // byte-identical committed output.
  const auto start = [over_socket](ServeProc* sp,
                                   std::vector<std::string> argv) {
    return over_socket ? sp->StartSocket(std::move(argv)) : sp->Start(argv);
  };
  std::vector<int> crash_at;
  {
    std::stringstream ss(Get(args, "crash-at", ""));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) crash_at.push_back(atoi(tok.c_str()));
    }
  }
  if (crash_at.empty()) {
    fprintf(stderr, "crash-gauntlet: --crash-at needs at least one point\n");
    return 2;
  }
  for (const int k : crash_at) {
    if (k < 1 || k > sessions * points) {
      fprintf(stderr,
              "crash-gauntlet: crash point %d outside the workload's %d "
              "pushes\n",
              k, sessions * points);
      return 2;
    }
  }
  const std::string threads_str = std::to_string(threads);

  printf("crash-gauntlet: %d sessions x %d points, %d threads, %zu crash "
         "points, fault=%s, transport=%s\n",
         sessions, points, threads, crash_at.size(), fault_mode.c_str(),
         transport.c_str());

  // The oracle: same binary, same workload, never interrupted, no journal.
  std::vector<std::string> oracle;
  {
    ServeProc sp;
    if (!start(&sp, {serve_bin, "--threads", threads_str})) return 1;
    DriveResult r = Drive(&sp, sessions, points, /*crash_after=*/-1,
                          /*durable=*/false);
    sp.Quit();
    if (!r.ok) return 1;
    oracle = std::move(r.committed);
  }
  printf("crash-gauntlet: oracle run complete (%zu committed lines)\n",
         oracle.size());

  const char* kCycle[] = {"none", "torn", "bitflip"};
  int failures = 0;
  for (size_t i = 0; i < crash_at.size(); ++i) {
    const int k = crash_at[i];
    const std::string fault =
        fault_mode == "cycle" ? kCycle[i % 3] : fault_mode;
    const std::string dir = MakeTempDir();
    if (dir.empty()) {
      perror("mkdtemp");
      return 1;
    }
    const std::vector<std::string> serve_args = {
        serve_bin, "--threads", threads_str, "--durable", dir,
        "--fsync",  "record"};

    ServeProc victim;
    if (!start(&victim, serve_args)) return 1;
    DriveResult d = Drive(&victim, sessions, points, k, /*durable=*/true);
    if (!d.ok || !d.crashed) {
      fprintf(stderr, "crash-gauntlet: crash-at=%d never fired\n", k);
      ++failures;
      continue;
    }
    if (!InjectFault(dir, fault)) {
      ++failures;
      continue;
    }

    ServeProc revived;
    if (!start(&revived, serve_args)) return 1;
    std::vector<std::string> committed;
    int64_t resumed = 0;
    const bool resumed_ok =
        Resume(&revived, sessions, points, &committed, &resumed);
    const bool clean_exit = revived.Quit();
    if (!resumed_ok || !clean_exit) {
      fprintf(stderr, "crash-gauntlet: crash-at=%d fault=%s recovery failed\n",
              k, fault.c_str());
      ++failures;
      continue;
    }
    int diffs = 0;
    for (int c = 0; c < sessions; ++c) {
      if (committed[c] != oracle[c]) {
        ++diffs;
        fprintf(stderr,
                "crash-gauntlet: crash-at=%d fault=%s session %d diverged\n"
                "  oracle:    %s\n  recovered: %s\n",
                k, fault.c_str(), c, oracle[c].c_str(), committed[c].c_str());
      }
    }
    if (diffs > 0) {
      ++failures;
    } else {
      printf("crash-gauntlet: crash-at=%-4d fault=%-7s OK (%" PRId64
             " pushes resumed, committed output byte-identical)\n",
             k, fault.c_str(), resumed);
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  if (failures > 0) {
    fprintf(stderr, "crash-gauntlet: %d of %zu crash points FAILED\n",
            failures, crash_at.size());
    return 1;
  }
  printf("crash-gauntlet: OK (%zu crash points survived)\n", crash_at.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Net smoke: a concurrent loopback fleet with latency percentiles.
// ---------------------------------------------------------------------------

/// Spawns lhmm_serve on a loopback listener and drives it with `connections`
/// REAL concurrent TCP connections. Every connection is established before
/// the first timed request (a start barrier), then each runs one
/// open/push*/finish session over the frame protocol, timing every round
/// trip. Reports p50/p99/p999; any protocol failure or lost response exits
/// nonzero.
int RunNetSmoke(const std::map<std::string, std::string>& args) {
  const std::string serve_bin = Get(args, "serve-bin", "");
  if (serve_bin.empty()) {
    fprintf(stderr, "net-smoke: --net-smoke requires --serve-bin\n");
    return 2;
  }
  const int connections = GetInt(args, "connections", 256);
  const int pushes = std::max(2, GetInt(args, "pushes", 8));
  const int threads = GetInt(args, "threads", 4);

  ServeProc sp;
  if (!sp.StartSocket({serve_bin, "--threads", std::to_string(threads)})) {
    return 1;
  }
  printf("net-smoke: %d connections x %d pushes, %d server threads, "
         "port %d\n",
         connections, pushes, threads, sp.port);

  std::atomic<int> connected{0};
  std::atomic<int> failures{0};
  std::atomic<bool> go{false};
  std::mutex mu;
  std::vector<double> lat_us;  // Round-trip latencies, microseconds.
  lat_us.reserve(static_cast<size_t>(connections) * (pushes + 2));

  std::vector<std::thread> fleet;
  fleet.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    fleet.emplace_back([&, c] {
      const int fd = DialLoopback(sp.port);
      ++connected;
      if (fd < 0) {
        ++failures;
        return;
      }
      // Barrier: requests start only once the WHOLE fleet is connected, so
      // the percentiles below are measured with `connections` live sockets.
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

      std::vector<double> local;
      local.reserve(pushes + 2);
      const auto trip = [fd, &local](const std::string& line) {
        const auto t0 = std::chrono::steady_clock::now();
        std::string out;
        if (srv::WriteFrame(fd, line).ok()) {
          core::Result<std::string> resp = srv::ReadFrame(fd);
          if (resp.ok()) out = *std::move(resp);
        }
        local.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
        return out;
      };

      bool ok = true;
      long long id = -1;
      if (sscanf(trip("open").c_str(), "ok open %lld", &id) != 1) ok = false;
      for (int p = 0; ok && p < pushes; ++p) {
        ok = trip(PushLine(static_cast<int>(id), p, pushes))
                 .rfind("ok push", 0) == 0;
      }
      if (ok) {
        ok = trip(core::StrFormat("finish %lld", id)).rfind("ok finish", 0) ==
             0;
      }
      close(fd);
      if (!ok) ++failures;
      std::lock_guard<std::mutex> lock(mu);
      lat_us.insert(lat_us.end(), local.begin(), local.end());
    });
  }
  while (connected.load() < connections) std::this_thread::yield();
  const auto t_start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : fleet) t.join();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t_start)
                             .count();

  // Settle the engine through the control connection, then shut down clean.
  const bool awaited = sp.Cmd("await") == "ok await";
  const bool clean_exit = sp.Quit();

  const size_t expected =
      static_cast<size_t>(connections) * (static_cast<size_t>(pushes) + 2);
  std::sort(lat_us.begin(), lat_us.end());
  if (!lat_us.empty()) {
    const auto pct = [&lat_us](double q) {
      const size_t i = static_cast<size_t>(q * lat_us.size());
      return lat_us[std::min(i, lat_us.size() - 1)];
    };
    printf("net-smoke: %zu round trips in %.0f ms, p50=%.0fus p99=%.0fus "
           "p999=%.0fus max=%.0fus\n",
           lat_us.size(), wall_ms, pct(0.50), pct(0.99), pct(0.999),
           lat_us.back());
  }

  int rc = 0;
  if (failures.load() != 0) {
    fprintf(stderr, "net-smoke: %d connections FAILED their session\n",
            failures.load());
    rc = 1;
  }
  if (lat_us.size() != expected) {
    fprintf(stderr, "net-smoke: expected %zu responses, timed %zu — "
                    "requests were lost\n",
            expected, lat_us.size());
    rc = 1;
  }
  if (!awaited || !clean_exit) {
    fprintf(stderr, "net-smoke: shutdown failed (await=%d clean_exit=%d)\n",
            awaited, clean_exit);
    rc = 1;
  }
  if (rc == 0) printf("net-smoke: OK\n");
  return rc;
}

// ---------------------------------------------------------------------------
// Fleet gauntlet: a supervised multi-process fleet under kill fire.
// ---------------------------------------------------------------------------

enum class KillKind {
  kSigkill,   ///< Plain SIGKILL between round trips.
  kMidFrame,  ///< Half a frame header on the wire, THEN SIGKILL.
  kWedge,     ///< SIGSTOP: alive to waitpid, silent to health probes.
};

/// Drives one worker's full workload through srv::ResilientClient, killing
/// the worker once `milestone` pushes have been acknowledged, recovering, and
/// finishing the run. Returns false on any protocol/invariant failure —
/// including the gauntlet's core invariant: after a reconnect the worker's
/// durable pushed= watermark must cover every push this client saw acked.
bool DriveFleetWorker(int w, const std::string& port_file, int sessions,
                      int points, int milestone, KillKind kind,
                      const std::function<pid_t()>& get_pid,
                      const std::vector<std::string>& oracle) {
  srv::ResilientClientConfig cc;
  cc.port_file = port_file;
  cc.max_attempts = 40;
  cc.backoff_base_ms = 10;
  cc.backoff_cap_ms = 250;
  cc.io_timeout_ms = 2000;
  srv::ResilientClient rc(cc);
  auto fail = [w](const std::string& what, const std::string& got) {
    fprintf(stderr, "fleet-gauntlet: w%d expected %s, got '%s'\n", w,
            what.c_str(), got.c_str());
    return false;
  };

  // Per-session durable progress as this client knows it: next[c] points are
  // acked. The zero-ack-loss invariant is checked against it on recovery.
  std::vector<int> next(static_cast<size_t>(sessions), 0);
  int64_t tick_no = 0;
  int total_acked = 0;
  bool killed = false;
  bool need_recover = false;

  auto maybe_kill = [&] {
    if (killed || total_acked < milestone) return;
    killed = true;
    const pid_t pid = get_pid();
    if (pid <= 0) return;
    switch (kind) {
      case KillKind::kMidFrame: {
        // The worker dies holding a partial frame from us: its decoder state
        // and our connection are both garbage, only the journal survives.
        const char partial[3] = {srv::kFrameMagic, srv::kFrameVersion, 0x10};
        if (rc.fd() >= 0) send(rc.fd(), partial, sizeof(partial), MSG_NOSIGNAL);
        kill(pid, SIGKILL);
        rc.CloseConn();
        need_recover = true;
        break;
      }
      case KillKind::kWedge:
        // No exit for waitpid to see; only a health probe finds this one.
        kill(pid, SIGSTOP);
        break;
      case KillKind::kSigkill:
        kill(pid, SIGKILL);
        break;
    }
    fprintf(stderr, "fleet-gauntlet: w%d killed (kind=%d) at %d acked\n", w,
            static_cast<int>(kind), total_acked);
  };

  /// Reconnects (re-reading the port file — the restarted worker has a new
  /// port) and resyncs next[] from the recovered server's pushed= watermarks.
  auto recover = [&]() -> bool {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(90);
    while (std::chrono::steady_clock::now() < deadline) {
      rc.CloseConn();
      if (!rc.Connect().ok()) continue;  // Connect paces its own backoff.
      core::Result<std::string> r = rc.TryCmd("status");
      const char* clk = r.ok() ? strstr(r->c_str(), "clock=") : nullptr;
      if (clk == nullptr || !core::StartsWith(*r, "ok status")) continue;
      const int64_t server_clock = atoll(clk + 6);
      std::vector<int> pushed(static_cast<size_t>(sessions), -1);
      bool all = true;
      for (int c = 0; c < sessions && all; ++c) {
        core::Result<std::string> rs =
            rc.TryCmd(core::StrFormat("status %d", c));
        const char* pu = rs.ok() ? strstr(rs->c_str(), "pushed=") : nullptr;
        if (pu == nullptr) {
          all = false;
        } else {
          pushed[c] = atoi(pu + 7);
        }
      }
      if (!all) continue;
      for (int c = 0; c < sessions; ++c) {
        if (pushed[c] < next[c]) {
          // An acked push did not survive the crash: the exact loss class
          // this gauntlet exists to rule out (--fsync record makes every
          // acked push durable before the ack).
          fprintf(stderr,
                  "fleet-gauntlet: w%d ACK LOSS session %d: client saw %d "
                  "acked, recovered watermark %d\n",
                  w, c, next[c], pushed[c]);
          return false;
        }
        // The watermark may exceed our count: a push acked by the server
        // whose response died with the connection. Resume past it.
        next[c] = std::min(pushed[c], points);
      }
      tick_no = std::max(tick_no, server_clock);
      return true;
    }
    fprintf(stderr, "fleet-gauntlet: w%d recovery deadline exceeded\n", w);
    return false;
  };

  // --- Phase 0 (kill-free): wait for the worker, open dense ids. ---
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    bool ready = false;
    while (!ready && std::chrono::steady_clock::now() < deadline) {
      if (rc.Connect().ok()) {
        core::Result<std::string> r = rc.TryCmd("health");
        ready = r.ok() && core::StartsWith(*r, "ok health ");
      }
      if (!ready) usleep(20 * 1000);
    }
    if (!ready) return fail("ok health (worker up)", "startup timeout");
  }
  for (int c = 0; c < sessions; ++c) {
    core::Result<std::string> r = rc.TryCmd("open");
    long long id = -1;
    if (!r.ok() || sscanf(r->c_str(), "ok open %lld", &id) != 1 || id != c) {
      return fail("ok open " + std::to_string(c),
                  r.ok() ? *r : r.status().ToString());
    }
  }
  {
    core::Result<std::string> r = rc.TryCmd(core::StrFormat("tick %" PRId64,
                                                            ++tick_no));
    if (!r.ok() || !core::StartsWith(*r, "ok tick")) {
      return fail("ok tick", r.ok() ? *r : r.status().ToString());
    }
    // Checkpoint so the id mapping is snapshot-covered before the kill.
    r = rc.TryCmd("checkpoint");
    if (!r.ok() || !core::StartsWith(*r, "ok checkpoint")) {
      return fail("ok checkpoint", r.ok() ? *r : r.status().ToString());
    }
  }

  // --- Phase 1: stream everything; the kill lands mid-phase. ---
  for (int rounds = 0; rounds < 200; ++rounds) {
    if (need_recover) {
      if (!recover()) return false;
      need_recover = false;
    }
    bool done = true;
    for (int c = 0; c < sessions; ++c) done = done && next[c] >= points;
    if (done) break;
    int since_tick = 0;
    for (int c = 0; c < sessions && !need_recover; ++c) {
      for (int p = next[c]; p < points && !need_recover; ++p) {
        core::Result<std::string> r = rc.TryCmd(PushLine(c, p, points));
        if (r.ok() && core::StartsWith(*r, "ok push")) {
          next[c] = p + 1;
          ++total_acked;
          maybe_kill();
          if (!need_recover && ++since_tick % 8 == 0) {
            core::Result<std::string> rt =
                rc.TryCmd(core::StrFormat("tick %" PRId64, ++tick_no));
            if (!rt.ok()) need_recover = true;
          }
        } else if (r.ok()) {
          return fail("ok push", *r);  // A typed reject is a real failure.
        } else {
          need_recover = true;  // Transport death: reconnect and resync.
        }
      }
    }
  }
  for (int c = 0; c < sessions; ++c) {
    if (next[c] < points) return fail("all points pushed", "rounds exhausted");
  }
  if (!killed) return fail("kill to fire before the workload ran out", "");

  // --- Phase 2: finish + committed (kill already fired; transport errors
  // here still recover, and a finish whose ack died with the connection is
  // detected via the session state). ---
  for (int c = 0; c < sessions; ++c) {
    for (int tries = 0;; ++tries) {
      if (tries > 4) return fail("ok finish", "retries exhausted");
      core::Result<std::string> r =
          rc.TryCmd(core::StrFormat("finish %d", c));
      if (r.ok() && core::StartsWith(*r, "ok finish")) break;
      if (!r.ok()) {
        if (!recover()) return false;
        continue;
      }
      core::Result<std::string> rs =
          rc.TryCmd(core::StrFormat("status %d", c));
      if (rs.ok() && rs->find(" finished ") != std::string::npos) break;
      return fail("ok finish", *r);
    }
  }
  for (int tries = 0;; ++tries) {
    if (tries > 4) return fail("ok await", "retries exhausted");
    core::Result<std::string> r = rc.TryCmd("await");
    if (r.ok() && *r == "ok await") break;
    if (!r.ok() && !recover()) return false;
  }
  for (int c = 0; c < sessions; ++c) {
    core::Result<std::string> r =
        rc.TryCmd(core::StrFormat("committed %d", c));
    if (!r.ok() || !core::StartsWith(*r, "ok committed")) {
      return fail("ok committed", r.ok() ? *r : r.status().ToString());
    }
    if (*r != oracle[c]) {
      fprintf(stderr,
              "fleet-gauntlet: w%d session %d diverged from oracle\n"
              "  oracle:    %s\n  recovered: %s\n",
              w, c, oracle[c].c_str(), r->c_str());
      return false;
    }
  }
  fprintf(stderr,
          "fleet-gauntlet: w%d OK (%d acked, %" PRId64
          " reconnects, committed byte-identical)\n",
          w, total_acked, rc.reconnects());
  return true;
}

/// The fleet gauntlet: oracle run, then a supervised 4+1 fleet under
/// concurrent kill fire, then assertions + graceful drain.
int RunFleetGauntlet(const std::map<std::string, std::string>& args) {
  const std::string serve_bin = Get(args, "serve-bin", "");
  if (serve_bin.empty()) {
    fprintf(stderr, "fleet-gauntlet: --fleet-gauntlet requires --serve-bin\n");
    return 2;
  }
  const int workers = std::max(1, GetInt(args, "workers", 4));
  const int sessions = GetInt(args, "sessions", 4);
  const int points = GetInt(args, "points", 24);
  const int threads = GetInt(args, "threads", 4);
  const std::string threads_str = std::to_string(threads);
  const int total = sessions * points;

  printf("fleet-gauntlet: %d workers + 1 crash-looper, %d sessions x %d "
         "points each, %d engine threads\n",
         workers, sessions, points, threads);

  // The oracle: one uninterrupted single-process run of the same workload.
  std::vector<std::string> oracle;
  {
    ServeProc sp;
    if (!sp.Start({serve_bin, "--threads", threads_str})) return 1;
    DriveResult r = Drive(&sp, sessions, points, /*crash_after=*/-1,
                          /*durable=*/false);
    sp.Quit();
    if (!r.ok) return 1;
    oracle = std::move(r.committed);
  }
  printf("fleet-gauntlet: oracle run complete (%zu committed lines)\n",
         oracle.size());

  const std::string base = MakeTempDir();
  if (base.empty()) {
    perror("mkdtemp");
    return 1;
  }
  std::vector<srv::WorkerSpec> specs;
  for (int w = 0; w < workers; ++w) {
    const std::string dir = base + "/w" + std::to_string(w);
    mkdir(dir.c_str(), 0755);
    srv::WorkerSpec spec;
    spec.name = "w" + std::to_string(w);
    spec.port_file = dir + "/port";
    spec.argv = {serve_bin,    "--threads", threads_str,
                 "--durable",  dir,         "--fsync",
                 "record",     "--listen",  "127.0.0.1:0",
                 "--port-file", spec.port_file,
                 "--pid-file", dir + "/pid"};
    specs.push_back(std::move(spec));
  }
  {
    // The crash-looper: a malformed --listen makes lhmm_serve exit 1
    // immediately, every time — exactly the workload the breaker exists for.
    srv::WorkerSpec spec;
    spec.name = "looper";
    spec.argv = {serve_bin, "--listen", "bogus"};
    specs.push_back(std::move(spec));
  }
  const int looper = workers;

  srv::SupervisorConfig scfg;
  scfg.backoff.base_ticks = 2;  // 1 tick = 10ms below.
  scfg.backoff.cap_ticks = 32;
  scfg.breaker.max_crashes = 4;
  scfg.breaker.window_ticks = 1 << 20;  // Any 4 crashes of this run trip it.
  scfg.health_interval_ticks = 10;
  scfg.health_grace_ticks = 100;
  scfg.health_misses = 2;
  scfg.health_timeout_ms = 200;

  // The supervisor is driven from a dedicated supervision thread; client
  // threads touch it only under this mutex (to read a pid to kill).
  std::mutex mu;
  srv::Supervisor sup(std::move(specs), scfg);
  const auto t0 = std::chrono::steady_clock::now();
  const auto tick = [t0] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           10;
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    const core::Status st = sup.StartAll(tick());
    if (!st.ok()) {
      fprintf(stderr, "fleet-gauntlet: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::atomic<bool> stop{false};
  std::thread supervision([&] {
    while (!stop.load(std::memory_order_acquire)) {
      {
        std::lock_guard<std::mutex> lock(mu);
        sup.Poll(tick());
      }
      usleep(5 * 1000);
    }
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    clients.emplace_back([&, w] {
      // Every worker dies once, each by a different mechanism; milestones
      // are staggered through the middle third of the workload so every
      // kill lands with sessions mid-stream.
      const KillKind kind =
          w == 0 ? KillKind::kMidFrame
                 : (w == workers - 1 && workers > 1 ? KillKind::kWedge
                                                    : KillKind::kSigkill);
      const int milestone = total / 3 + (w * total) / (3 * workers);
      const auto get_pid = [&mu, &sup, w]() -> pid_t {
        std::lock_guard<std::mutex> lock(mu);
        return sup.pid(w);
      };
      if (!DriveFleetWorker(w, base + "/w" + std::to_string(w) + "/port",
                            sessions, points, milestone, kind, get_pid,
                            oracle)) {
        ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Fleet-level assertions: breaker parked the looper while everyone else
  // kept serving; every real worker actually died and came back. Then the
  // whole-fleet graceful drain (SIGTERM fan-out, workers checkpoint + exit
  // 0). All of it runs under the mutex with the supervision thread still
  // alive: restarted workers are PDEATHSIG-tied to the thread that spawned
  // them, so joining it first would SIGKILL the fleet mid-drain.
  int rc = failures.load() == 0 ? 0 : 1;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (sup.status(looper).state != srv::WorkerState::kParked) {
      fprintf(stderr, "fleet-gauntlet: crash-looper NOT parked (state=%s)\n",
              srv::WorkerStateName(sup.status(looper).state));
      rc = 1;
    }
    for (int w = 0; w < workers; ++w) {
      const srv::WorkerStatus& st = sup.status(w);
      if (st.restarts < 1) {
        fprintf(stderr, "fleet-gauntlet: w%d was never killed+restarted\n", w);
        rc = 1;
      }
    }
    if (workers > 1 && sup.status(workers - 1).health_kills < 1) {
      fprintf(stderr,
              "fleet-gauntlet: wedged worker was not health-killed "
              "(health probes never fired)\n");
      rc = 1;
    }
    sup.Drain();
    const int stragglers = sup.WaitAll(15000);
    if (stragglers != 0) {
      fprintf(stderr, "fleet-gauntlet: %d workers did not drain in time\n",
              stragglers);
      rc = 1;
    }
  }
  stop.store(true, std::memory_order_release);
  supervision.join();
  for (int w = 0; w < workers; ++w) {
    if (sup.status(w).clean_exits < 1) {
      fprintf(stderr, "fleet-gauntlet: w%d did not exit clean on drain\n", w);
      rc = 1;
    }
  }
  const srv::SupervisorMetrics m = sup.metrics();
  printf("fleet-gauntlet: restarts=%" PRId64 " crashes=%" PRId64
         " clean_exits=%" PRId64 " health_kills=%" PRId64 " parked=%" PRId64
         "\n",
         m.restarts, m.crashes, m.clean_exits, m.health_kills, m.parked);
  if (rc == 0) {
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
    printf("fleet-gauntlet: OK\n");
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Swap gauntlet: hot model swap + crash-safe rollback under continuous load.
// ---------------------------------------------------------------------------

/// Builds one store generation under `root` the way `lhmm_store build` does —
/// grid network, grid index, META — and returns its path ("" on failure).
/// The default 10x10/200m grid is the exact world lhmm_serve builds in owned
/// mode, so PushLine's workload has candidates and the owned-mode oracle is
/// comparable byte for byte.
std::string BuildStoreGen(const std::string& root, int64_t gen, int rows,
                          int cols, double spacing) {
  network::RoadNetwork net = network::GenerateGridNetwork(rows, cols, spacing);
  network::GridIndex index(&net, 300.0);
  store::StoreWriter w;
  w.AddSection(store::kSectionNetwork, store::EncodeNetwork(net));
  w.AddSection(store::kSectionGrid, store::EncodeGridIndex(index));
  w.AddSection(store::kSectionMeta,
               store::EncodeMeta({{"source", "swap-gauntlet"}}));
  mkdir(root.c_str(), 0755);
  mkdir(store::GenerationDir(root, gen).c_str(), 0755);
  const std::string path = store::StorePath(root, gen);
  const core::Status st =
      w.Write(path, network::NetworkFingerprint(net),
              static_cast<uint64_t>(gen));
  if (!st.ok()) {
    fprintf(stderr, "swap-gauntlet: build gen %" PRId64 ": %s\n", gen,
            st.ToString().c_str());
    return "";
  }
  return path;
}

/// Stamps a higher format version into the header and re-seals the header
/// CRC, so the file is bit-perfect except for being "from the future" — the
/// reject must be the version skew, not a CRC mismatch.
bool PatchFutureVersion(const std::string& path) {
  FILE* f = fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  char header[store::kHeaderBytes];
  if (fread(header, 1, sizeof(header), f) != sizeof(header)) {
    fclose(f);
    return false;
  }
  const uint32_t future = store::kFormatVersion + 1;
  memcpy(header + store::kVersionOffset, &future, sizeof(future));
  const uint32_t crc = io::Crc32(header, store::kHeaderCrcOffset);
  memcpy(header + store::kHeaderCrcOffset, &crc, sizeof(crc));
  const bool ok = fseek(f, 0, SEEK_SET) == 0 &&
                  fwrite(header, 1, sizeof(header), f) == sizeof(header);
  fclose(f);
  return ok;
}

/// Cross-thread pacing for the swap gauntlet: clients stream half their
/// points, wait for the hot swap, stream the rest, and hold their sessions
/// open until the corrupt-candidate campaign and the rollback are done — so
/// every protocol step lands with live pinned sessions on every worker.
struct SwapGates {
  std::atomic<int> half_done{0};
  std::atomic<bool> swapped{false};
  std::atomic<int> full_done{0};
  std::atomic<bool> protocol_done{false};
  std::atomic<bool> abort{false};  ///< The protocol driver failed; unblock all.
};

bool AwaitFlag(const std::atomic<bool>& flag, const std::atomic<bool>& abort,
               int seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (flag.load(std::memory_order_acquire)) return true;
    if (abort.load(std::memory_order_acquire)) return false;
    usleep(5 * 1000);
  }
  return false;
}

/// Drives one store-backed worker's full workload through
/// srv::ResilientClient with zero tolerance: no kills fire in this gauntlet,
/// so every round trip must succeed — any transport error or typed reject is
/// acknowledged-response loss and fails the run.
bool DriveSwapWorker(int w, const std::string& port_file, int sessions,
                     int points, const std::vector<std::string>& oracle,
                     SwapGates* gates) {
  srv::ResilientClientConfig cc;
  cc.port_file = port_file;
  cc.max_attempts = 40;
  cc.backoff_base_ms = 10;
  cc.backoff_cap_ms = 250;
  cc.io_timeout_ms = 2000;
  srv::ResilientClient rc(cc);
  auto fail = [w](const std::string& what, const std::string& got) {
    fprintf(stderr, "swap-gauntlet: w%d expected %s, got '%s'\n", w,
            what.c_str(), got.c_str());
    return false;
  };
  auto must = [&](const std::string& line,
                  const char* prefix) -> core::Result<std::string> {
    core::Result<std::string> r = rc.TryCmd(line);
    if (!r.ok()) {
      fail(prefix, r.status().ToString());
      return r.status();
    }
    if (!core::StartsWith(*r, prefix)) {
      fail(prefix, *r);
      return core::Status::Internal("unexpected response");
    }
    return r;
  };

  // Wait for the worker, then open dense session ids.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    bool ready = false;
    while (!ready && std::chrono::steady_clock::now() < deadline) {
      if (rc.Connect().ok()) {
        core::Result<std::string> r = rc.TryCmd("health");
        ready = r.ok() && core::StartsWith(*r, "ok health ");
      }
      if (!ready) usleep(20 * 1000);
    }
    if (!ready) return fail("ok health (worker up)", "startup timeout");
  }
  for (int c = 0; c < sessions; ++c) {
    core::Result<std::string> r = rc.TryCmd("open");
    long long id = -1;
    if (!r.ok() || sscanf(r->c_str(), "ok open %lld", &id) != 1 || id != c) {
      return fail("ok open " + std::to_string(c),
                  r.ok() ? *r : r.status().ToString());
    }
  }
  int64_t tick_no = 0;
  if (!must(core::StrFormat("tick %" PRId64, ++tick_no), "ok tick").ok()) {
    return false;
  }

  // First half of every session, on the bootstrap generation.
  const int half = points / 2;
  int since_tick = 0;
  auto push_range = [&](int from, int to) {
    for (int p = from; p < to; ++p) {
      for (int c = 0; c < sessions; ++c) {
        if (!must(PushLine(c, p, points), "ok push").ok()) return false;
        if (++since_tick % 8 == 0 &&
            !must(core::StrFormat("tick %" PRId64, ++tick_no), "ok tick")
                 .ok()) {
          return false;
        }
      }
    }
    return true;
  };
  if (!push_range(0, half)) return false;
  gates->half_done.fetch_add(1, std::memory_order_acq_rel);
  if (!AwaitFlag(gates->swapped, gates->abort, 180)) {
    return fail("hot swap to land", "timeout/abort waiting at half-stream");
  }

  // Second half: the fleet's CURRENT now points at the new generation while
  // these sessions keep matching on the one they pinned at open — the output
  // must not care.
  if (!push_range(half, points)) return false;
  gates->full_done.fetch_add(1, std::memory_order_acq_rel);
  if (!AwaitFlag(gates->protocol_done, gates->abort, 180)) {
    return fail("corrupt-candidate campaign + rollback",
                "timeout/abort waiting fully streamed");
  }

  // Finish everything and diff committed output against the oracle.
  for (int c = 0; c < sessions; ++c) {
    if (!must(core::StrFormat("finish %d", c), "ok finish").ok()) return false;
  }
  core::Result<std::string> r = rc.TryCmd("await");
  if (!r.ok() || *r != "ok await") {
    return fail("ok await", r.ok() ? *r : r.status().ToString());
  }
  for (int c = 0; c < sessions; ++c) {
    r = must(core::StrFormat("committed %d", c), "ok committed");
    if (!r.ok()) return false;
    if (*r != oracle[c]) {
      fprintf(stderr,
              "swap-gauntlet: w%d session %d diverged from oracle\n"
              "  oracle:       %s\n  store-backed: %s\n",
              w, c, oracle[c].c_str(), r->c_str());
      return false;
    }
  }
  if (rc.reconnects() != 0) {
    fprintf(stderr,
            "swap-gauntlet: w%d needed %" PRId64
            " reconnects with no kill fire — a swap disturbed the transport\n",
            w, rc.reconnects());
    return false;
  }
  fprintf(stderr, "swap-gauntlet: w%d OK (committed byte-identical)\n", w);
  return true;
}

/// One frame-protocol control connection per worker, for fanning swap /
/// rollback / status verbs from the protocol driver while the client threads
/// keep their own load connections busy.
struct ControlConn {
  int fd = -1;
  std::string Cmd(const std::string& line) {
    if (fd < 0) return "";
    if (!srv::WriteFrame(fd, line).ok()) return "";
    core::Result<std::string> resp = srv::ReadFrame(fd);
    return resp.ok() ? *resp : "";
  }
  ~ControlConn() {
    if (fd >= 0) close(fd);
  }
};

/// The swap gauntlet: owned-mode oracle, then a supervised store-backed
/// fleet driven through build → swap → corrupt-candidate rejects → rollback
/// while every worker streams under load.
int RunSwapGauntlet(const std::map<std::string, std::string>& args) {
  const std::string serve_bin = Get(args, "serve-bin", "");
  if (serve_bin.empty()) {
    fprintf(stderr, "swap-gauntlet: --swap-gauntlet requires --serve-bin\n");
    return 2;
  }
  const int workers = std::max(1, GetInt(args, "workers", 4));
  const int sessions = GetInt(args, "sessions", 4);
  const int points = GetInt(args, "points", 24);
  const int threads = GetInt(args, "threads", 4);
  const std::string threads_str = std::to_string(threads);

  printf("swap-gauntlet: %d workers on one shared store, %d sessions x %d "
         "points each, %d engine threads\n",
         workers, sessions, points, threads);

  const std::string base = MakeTempDir();
  if (base.empty()) {
    perror("mkdtemp");
    return 1;
  }
  const std::string root = base + "/store";
  if (BuildStoreGen(root, 1, 10, 10, 200.0).empty()) return 1;
  {
    const core::Status st = store::PublishCurrent(root, 1);
    if (!st.ok()) {
      fprintf(stderr, "swap-gauntlet: publish gen 1: %s\n",
              st.ToString().c_str());
      return 1;
    }
  }

  // The oracle: an uninterrupted owned-mode run (no store at all), so the
  // comparison proves the mapped data plane changes nothing about results.
  std::vector<std::string> oracle;
  {
    ServeProc sp;
    if (!sp.Start({serve_bin, "--threads", threads_str})) return 1;
    DriveResult r = Drive(&sp, sessions, points, /*crash_after=*/-1,
                          /*durable=*/false);
    sp.Quit();
    if (!r.ok) return 1;
    oracle = std::move(r.committed);
  }
  printf("swap-gauntlet: owned-mode oracle complete (%zu committed lines)\n",
         oracle.size());

  std::vector<srv::WorkerSpec> specs;
  for (int w = 0; w < workers; ++w) {
    const std::string dir = base + "/w" + std::to_string(w);
    mkdir(dir.c_str(), 0755);
    srv::WorkerSpec spec;
    spec.name = "w" + std::to_string(w);
    spec.port_file = dir + "/port";
    spec.argv = {serve_bin,     "--threads", threads_str,
                 "--store",     root,        "--listen",
                 "127.0.0.1:0", "--port-file", spec.port_file};
    specs.push_back(std::move(spec));
  }
  srv::SupervisorConfig scfg;
  scfg.backoff.base_ticks = 2;
  scfg.backoff.cap_ticks = 32;
  scfg.health_interval_ticks = 10;
  scfg.health_grace_ticks = 200;
  scfg.health_misses = 4;
  scfg.health_timeout_ms = 500;

  std::mutex mu;
  srv::Supervisor sup(std::move(specs), scfg);
  const auto t0 = std::chrono::steady_clock::now();
  const auto tick = [t0] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           10;
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    const core::Status st = sup.StartAll(tick());
    if (!st.ok()) {
      fprintf(stderr, "swap-gauntlet: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::atomic<bool> stop{false};
  std::thread supervision([&] {
    while (!stop.load(std::memory_order_acquire)) {
      {
        std::lock_guard<std::mutex> lock(mu);
        sup.Poll(tick());
      }
      usleep(5 * 1000);
    }
  });

  SwapGates gates;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    clients.emplace_back([&, w] {
      if (!DriveSwapWorker(w, base + "/w" + std::to_string(w) + "/port",
                           sessions, points, oracle, &gates)) {
        ++failures;
        gates.abort.store(true, std::memory_order_release);
      }
    });
  }

  // --- The protocol driver (this thread). Any failure aborts the gates so
  // client threads unblock and the run fails fast. ---
  int rc = 0;
  auto protocol_fail = [&](const std::string& what, const std::string& got) {
    fprintf(stderr, "swap-gauntlet: expected %s, got '%s'\n", what.c_str(),
            got.c_str());
    rc = 1;
    gates.abort.store(true, std::memory_order_release);
  };
  std::vector<ControlConn> ctl(static_cast<size_t>(workers));
  auto fan = [&](const std::string& line, const std::string& expect_prefix,
                 const std::string& expect_contains) {
    for (int w = 0; w < workers && rc == 0; ++w) {
      const std::string resp = ctl[static_cast<size_t>(w)].Cmd(line);
      if (!core::StartsWith(resp, expect_prefix) ||
          (!expect_contains.empty() &&
           resp.find(expect_contains) == std::string::npos)) {
        protocol_fail("w" + std::to_string(w) + " '" + line + "' -> " +
                          expect_prefix + " ... " + expect_contains,
                      resp);
      }
    }
  };
  /// Every worker must still be serving the given generation — the corrupt
  /// candidates must never disturb the published pointer or the mapping.
  auto expect_serving = [&](int64_t gen) {
    fan("status", "ok status",
        core::StrFormat(" store_gen=%lld ", static_cast<long long>(gen)));
  };

  auto wait_count = [&](std::atomic<int>& counter, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(180);
    while (counter.load(std::memory_order_acquire) < workers) {
      if (failures.load() != 0 ||
          std::chrono::steady_clock::now() >= deadline) {
        protocol_fail(what, "client failure or timeout");
        return false;
      }
      usleep(5 * 1000);
    }
    return true;
  };

  if (wait_count(gates.half_done, "all workers half-streamed")) {
    // Control connections (the port files are published by now).
    for (int w = 0; w < workers && rc == 0; ++w) {
      int port = 0;
      FILE* f = fopen((base + "/w" + std::to_string(w) + "/port").c_str(), "r");
      if (f != nullptr) {
        if (fscanf(f, "%d", &port) != 1) port = 0;
        fclose(f);
      }
      ctl[static_cast<size_t>(w)].fd = port > 0 ? DialLoopback(port) : -1;
      if (ctl[static_cast<size_t>(w)].fd < 0) {
        protocol_fail("control connection to w" + std::to_string(w),
                      "dial failed");
      }
    }

    // Build generation 2 while the fleet serves generation 1, then hot-swap
    // every worker. Same network: a routine model/asset rollout.
    if (rc == 0 && BuildStoreGen(root, 2, 10, 10, 200.0).empty()) {
      protocol_fail("gen 2 build", "StoreWriter failed");
    }
    if (rc == 0) {
      fan("swap 2", "ok swap gen=2 prev=1", "");
      expect_serving(2);
      printf("swap-gauntlet: hot swap to gen 2 landed on all %d workers\n",
             workers);
    }
  }
  gates.swapped.store(true, std::memory_order_release);

  if (rc == 0 && wait_count(gates.full_done, "all workers fully streamed")) {
    // The corrupt-candidate campaign: every fault class a rollout can meet,
    // each fanned to every worker, each a typed file+offset reject with the
    // old generation untouched.
    const std::string gen3 = store::StorePath(root, 3);
    struct Corruption {
      const char* name;
      const char* expect;     ///< Substring of the typed reject.
      bool same_network;      ///< false: built from a different grid.
      std::function<core::Status(const std::string&)> inject;
    };
    const std::vector<Corruption> campaign = {
        {"torn-tail", "torn tail", true,
         [](const std::string& p) { return io::TornTail(p, 5); }},
        {"bit-flip", "CRC mismatch", true,
         [](const std::string& p) { return io::FlipBit(p, 1000, 5); }},
        {"garbage-header", "bad magic", true,
         [](const std::string& p) {
           return io::InjectGarbage(p, 0, "NOTSTORE");
         }},
        {"future-version", "format version skew", true,
         [](const std::string& p) {
           return PatchFutureVersion(p)
                      ? core::Status::Ok()
                      : core::Status::IoError("patch failed");
         }},
        {"wrong-network", "fingerprint mismatch", false,
         [](const std::string&) { return core::Status::Ok(); }},
    };
    for (const Corruption& c : campaign) {
      if (rc != 0) break;
      const std::string built =
          c.same_network ? BuildStoreGen(root, 3, 10, 10, 200.0)
                         : BuildStoreGen(root, 3, 8, 12, 200.0);
      if (built.empty()) {
        protocol_fail("gen 3 candidate build", c.name);
        break;
      }
      const core::Status injected = c.inject(built);
      if (!injected.ok()) {
        protocol_fail("fault injection", injected.ToString());
        break;
      }
      // Typed reject naming the file and byte offset, on every worker...
      fan("swap 3", "err ", c.expect);
      if (rc == 0) {
        fan("swap 3", "err ", "offset");
        // ...and the serving generation is untouched.
        expect_serving(2);
        printf("swap-gauntlet: corrupt candidate '%s' rejected typed, gen 2 "
               "still serving\n",
               c.name);
      }
    }

    // Crash-safe rollback: back to generation 1 on every worker.
    if (rc == 0) {
      fan("rollback", "ok rollback gen=1 prev=2", "");
      expect_serving(1);
      printf("swap-gauntlet: rollback to gen 1 landed on all %d workers\n",
             workers);
    }
  }
  gates.protocol_done.store(true, std::memory_order_release);

  for (std::thread& t : clients) t.join();
  if (failures.load() != 0) rc = 1;

  // Graceful drain under the mutex with the supervision thread still alive
  // (restarted workers would be PDEATHSIG-tied to it; none restart here, but
  // the discipline is the same as the fleet gauntlet's).
  {
    std::lock_guard<std::mutex> lock(mu);
    for (int w = 0; w < workers; ++w) {
      const srv::WorkerStatus& st = sup.status(w);
      if (st.restarts != 0) {
        fprintf(stderr,
                "swap-gauntlet: w%d restarted %" PRId64
                " times — a swap or reject crashed a worker\n",
                w, st.restarts);
        rc = 1;
      }
    }
    sup.Drain();
    const int stragglers = sup.WaitAll(15000);
    if (stragglers != 0) {
      fprintf(stderr, "swap-gauntlet: %d workers did not drain in time\n",
              stragglers);
      rc = 1;
    }
  }
  stop.store(true, std::memory_order_release);
  supervision.join();
  for (int w = 0; w < workers; ++w) {
    if (sup.status(w).clean_exits < 1) {
      fprintf(stderr, "swap-gauntlet: w%d did not exit clean on drain\n", w);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
    printf("swap-gauntlet: OK\n");
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Chaos gauntlet: scheduled resource exhaustion against in-process servers.
// ---------------------------------------------------------------------------

/// Scenario invariant reporter: prints and counts, never aborts — every
/// scenario runs to the end so one violation cannot mask another.
using Check = std::function<void(bool, const std::string&)>;

/// One frame-protocol loopback connection against an in-process NetServer.
struct FrameConn {
  int fd = -1;
  ~FrameConn() { Close(); }
  void Close() {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  bool Dial(int port) {
    fd = DialLoopback(port);
    return fd >= 0;
  }
  std::string Cmd(const std::string& line) {
    if (fd < 0 || !srv::WriteFrame(fd, line).ok()) return "";
    core::Result<std::string> resp = srv::ReadFrame(fd);
    return resp.ok() ? *resp : "";
  }
  /// True when the server closed this connection (clean EOF) within the
  /// timeout — the observable signature of an accepted-then-shed socket.
  bool SawEof(int timeout_ms) {
    pollfd p = {fd, POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return false;
    char b = 0;
    return recv(fd, &b, 1, 0) == 0;
  }
};

/// The deterministic world every in-process chaos scenario runs in. The
/// faulted run, the no-fault oracle run, and the recovered run all share this
/// city and schedule, so committed output is comparable element-for-element.
struct ChaosWorld {
  network::RoadNetwork net = network::GenerateGridNetwork(10, 10, 200.0);
  network::GridIndex index{&net, 150.0};

  std::vector<srv::TierSpec> Tiers() {
    hmm::ClassicModelConfig models;
    const network::RoadNetwork* n = &net;
    const network::GridIndex* ix = &index;
    std::vector<srv::TierSpec> tiers;
    tiers.push_back({"IVMM", [n, ix, models] {
                       return std::make_unique<matchers::IvmmMatcher>(
                           n, ix, models, /*k=*/8);
                     }});
    return tiers;
  }

  static srv::ServerConfig Config(int threads) {
    srv::ServerConfig config;
    config.engine.num_threads = threads;
    config.engine.lag = 4;
    config.engine.max_inbox = 256;
    // Admission stays out of the way: the only pressure in these scenarios
    // is the injected resource exhaustion itself.
    config.admission.open_rate_per_tick = 64.0;
    config.admission.open_burst = 64.0;
    config.admission.push_rate_per_tick = 4096.0;
    config.admission.push_burst = 4096.0;
    config.admission.max_queue_depth = 1 << 20;
    return config;
  }

  /// Point p of session c: a walk across grid row c, inside the city for
  /// every p < points. Pure function of its arguments.
  static traj::TrajPoint Pt(int c, int p, int points) {
    const double x = 10.0 + (1780.0 / (points - 1)) * p;
    const double y = 200.0 * (c % 10) + 10.0;
    return {{x, y}, 15.0 * p, static_cast<traj::TowerId>(p)};
  }
};

/// Collects each session's committed path after quiescing the engine.
std::vector<std::vector<network::SegmentId>> CommittedOf(
    srv::MatchServer* server, int sessions) {
  server->Barrier();
  std::vector<std::vector<network::SegmentId>> out;
  out.reserve(static_cast<size_t>(sessions));
  for (int c = 0; c < sessions; ++c) out.push_back(server->Committed(c));
  return out;
}

/// The scenarios' fixed schedule with no faults: open every session, then one
/// push per session per tick, finish after the last point, two settle ticks.
std::vector<std::vector<network::SegmentId>> ChaosOracle(int threads,
                                                         int sessions,
                                                         int points) {
  ChaosWorld world;
  srv::MatchServer server(world.Tiers(), ChaosWorld::Config(threads));
  for (int c = 0; c < sessions; ++c) (void)server.OpenSession();
  for (int t = 1; t <= points + 2; ++t) {
    server.Tick(t);
    if (t <= points) {
      for (int c = 0; c < sessions; ++c) {
        (void)server.Push(c, ChaosWorld::Pt(c, t - 1, points));
      }
    }
    if (t == points + 1) {
      for (int c = 0; c < sessions; ++c) (void)server.Finish(c);
    }
  }
  return CommittedOf(&server, sessions);
}

/// Recovers the durable directory into a fresh server and requires its
/// committed output to match the live run's exactly.
void CheckRecoveryIdentity(const std::string& scenario, int threads,
                           const srv::DurabilityConfig& durability,
                           const std::vector<std::vector<network::SegmentId>>&
                               live,
                           const Check& check) {
  ChaosWorld world;
  srv::RecoveryReport report;
  core::Result<std::unique_ptr<srv::MatchServer>> recovered = srv::Recover(
      world.Tiers(), ChaosWorld::Config(threads), durability, &report);
  check(recovered.ok(), scenario + ": post-storm recovery succeeds" +
                            (recovered.ok()
                                 ? ""
                                 : " (" + recovered.status().ToString() + ")"));
  if (!recovered.ok()) return;
  const auto after =
      CommittedOf(recovered->get(), static_cast<int>(live.size()));
  check(after == live,
        scenario + ": recovered committed output is identical to the live run");
}

/// Scenario: a scheduled low-disk window. statvfs reports 1000 free bytes on
/// ticks 4..7 (below the 1MB low watermark), then the real filesystem again.
/// The server must enter degraded-nondurable mode on exactly tick 4, ack
/// every in-window push kDataLoss (--fsync record semantics), refuse
/// checkpoints with a typed kUnavailable, restore durability via the exit
/// checkpoint on tick 8, and both the oracle diff and a post-run recovery
/// must be byte-identical — the excursion is observable in acks and status,
/// never in results.
void ChaosDiskFullWindow(int threads, const Check& check) {
  constexpr int kSessions = 4;
  constexpr int kPoints = 12;
  constexpr int kWindowFirst = 4;
  constexpr int kWindowLast = 7;
  const std::string dir = MakeTempDir();
  if (dir.empty()) {
    check(false, "disk-full: mkdtemp");
    return;
  }

  io::FaultEnv env;
  io::EnvFaultRule window;
  window.op = io::EnvOp::kStatvfs;
  window.at_count = kWindowFirst;  // One statvfs sample per tick.
  window.repeat = kWindowLast - kWindowFirst + 1;
  window.free_bytes_override = 1000;
  env.AddRule(window);

  ChaosWorld world;
  auto server = std::make_unique<srv::MatchServer>(world.Tiers(),
                                                   ChaosWorld::Config(threads));
  srv::DurabilityConfig durability;
  durability.dir = dir;
  durability.journal.fsync = io::FsyncPolicy::kEveryRecord;
  durability.env = &env;
  durability.disk_guard.low_watermark_bytes = 1 << 20;
  durability.disk_guard.high_watermark_bytes = 2 << 20;
  durability.disk_guard.enter_after = 1;
  durability.disk_guard.exit_after = 1;
  check(server->EnableDurability(durability).ok(),
        "disk-full: durability enables on a fresh directory");

  for (int c = 0; c < kSessions; ++c) {
    check(server->OpenSession().ok(), "disk-full: session opens");
  }
  int64_t data_loss_acks = 0;
  int64_t wrong_acks = 0;
  int transition_mismatches = 0;
  bool checkpoint_refused = false;
  for (int t = 1; t <= kPoints + 2; ++t) {
    server->Tick(t);
    const bool want_degraded = t >= kWindowFirst && t <= kWindowLast;
    if (server->degraded_nondurable() != want_degraded) {
      ++transition_mismatches;
      fprintf(stderr, "disk-full: after tick %d degraded=%d, schedule says %d\n",
              t, server->degraded_nondurable() ? 1 : 0, want_degraded ? 1 : 0);
    }
    if (t == kWindowFirst + 1) {
      checkpoint_refused =
          server->Checkpoint().code() == core::StatusCode::kUnavailable;
    }
    if (t <= kPoints) {
      for (int c = 0; c < kSessions; ++c) {
        const core::Status st = server->Push(c, ChaosWorld::Pt(c, t - 1, kPoints));
        if (want_degraded) {
          if (st.code() == core::StatusCode::kDataLoss) {
            ++data_loss_acks;
          } else {
            ++wrong_acks;
          }
        } else if (!st.ok()) {
          ++wrong_acks;
        }
      }
    }
    if (t == kPoints + 1) {
      for (int c = 0; c < kSessions; ++c) {
        check(server->Finish(c).ok(), "disk-full: post-window finish acks ok");
      }
    }
  }

  const srv::DurabilityStatus d = server->durability_status();
  check(transition_mismatches == 0,
        "disk-full: degraded transitions happen on exactly the scheduled ticks");
  check(d.degraded_entered == 1 && d.degraded_exited == 1,
        "disk-full: exactly one degraded episode");
  check(checkpoint_refused,
        "disk-full: an in-window checkpoint is a typed kUnavailable");
  constexpr int64_t kWindowPushes =
      static_cast<int64_t>(kSessions) * (kWindowLast - kWindowFirst + 1);
  check(data_loss_acks == kWindowPushes && wrong_acks == 0,
        "disk-full: every in-window push acks kDataLoss, every other push ok");
  check(d.events_not_journaled >= kWindowPushes,
        "disk-full: the un-journaled window is counted in status");
  check(d.snapshot_generation >= 1, "disk-full: the exit checkpoint landed");
  check(!d.journal_wedged, "disk-full: a full disk never wedges the journal");

  const auto live = CommittedOf(server.get(), kSessions);
  server.reset();  // Release the journal before recovery reopens the dir.
  env.ClearRules();
  CheckRecoveryIdentity("disk-full", threads, durability, live, check);
  check(live == ChaosOracle(threads, kSessions, kPoints),
        "disk-full: the degraded excursion is invisible in committed output");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Scenario: a persistent ENOSPC storm on the journal — every wal- write
/// fails for ticks 5..8 under group commit (--fsync tick) with tiny segments,
/// so the storm hits mid-rotation too. The failure streak (2) must force
/// degraded mode with the watermark monitor disabled, group-commit acks stay
/// plain ok throughout, the tail is sealed (truncate repair) rather than left
/// torn, clearing the storm restores durability, and the on-disk journal must
/// scan clean with zero torn bytes afterwards.
void ChaosJournalStorm(int threads, const Check& check) {
  constexpr int kSessions = 4;
  constexpr int kPoints = 12;
  constexpr int kStormFirst = 5;  // Rules added before this tick...
  constexpr int kStormLast = 8;   // ...and cleared after this one.
  const std::string dir = MakeTempDir();
  if (dir.empty()) {
    check(false, "journal-storm: mkdtemp");
    return;
  }

  io::FaultEnv env;
  ChaosWorld world;
  auto server = std::make_unique<srv::MatchServer>(world.Tiers(),
                                                   ChaosWorld::Config(threads));
  srv::DurabilityConfig durability;
  durability.dir = dir;
  // Segments hold a few ticks of records: the storm's first failed commit
  // then lands on a tail append (exercising the seal-and-truncate repair)
  // and the next one on the rotation that follows the sealed tail.
  durability.journal.fsync = io::FsyncPolicy::kEveryTick;
  durability.journal.segment_bytes = 4096;
  durability.env = &env;
  durability.disk_guard.low_watermark_bytes = 0;  // Watermarks off:
  durability.disk_guard.journal_failure_streak = 2;  // the streak must act.
  check(server->EnableDurability(durability).ok(),
        "journal-storm: durability enables on a fresh directory");

  for (int c = 0; c < kSessions; ++c) {
    check(server->OpenSession().ok(), "journal-storm: session opens");
  }
  int64_t wrong_acks = 0;
  int transition_mismatches = 0;
  for (int t = 1; t <= kPoints + 2; ++t) {
    if (t == kStormFirst) {
      // A full disk fails *writes*; truncation (the seal repair) still works.
      io::EnvFaultRule storm;
      storm.op = io::EnvOp::kWrite;
      storm.path_substr = "wal-";
      storm.repeat = -1;
      storm.fault_errno = ENOSPC;
      env.AddRule(storm);
    }
    if (t == kStormLast + 1) env.ClearRules();
    server->Tick(t);
    // Streak of 2: the first failed tick-commit arms, the second degrades;
    // the first post-storm tick's restore checkpoint exits.
    const bool want_degraded = t >= kStormFirst + 1 && t <= kStormLast;
    if (server->degraded_nondurable() != want_degraded) {
      ++transition_mismatches;
      fprintf(stderr,
              "journal-storm: after tick %d degraded=%d, schedule says %d\n", t,
              server->degraded_nondurable() ? 1 : 0, want_degraded ? 1 : 0);
    }
    if (t <= kPoints) {
      for (int c = 0; c < kSessions; ++c) {
        // Group commit never promised per-record durability, so acks stay ok
        // through the whole storm; degraded status is the client's signal.
        if (!server->Push(c, ChaosWorld::Pt(c, t - 1, kPoints)).ok()) {
          ++wrong_acks;
        }
      }
    }
    if (t == kPoints + 1) {
      for (int c = 0; c < kSessions; ++c) {
        check(server->Finish(c).ok(), "journal-storm: finish acks ok");
      }
    }
  }

  const srv::DurabilityStatus d = server->durability_status();
  check(transition_mismatches == 0,
        "journal-storm: degraded transitions happen on the scheduled ticks");
  check(d.degraded_entered == 1 && d.degraded_exited == 1,
        "journal-storm: exactly one degraded episode");
  check(wrong_acks == 0,
        "journal-storm: group-commit acks stay ok through the storm");
  check(d.journal_seal_events >= 1,
        "journal-storm: the failed commit sealed the tail segment");
  check(d.journal_errors >= 2, "journal-storm: failed commits are counted");
  check(!d.journal_wedged,
        "journal-storm: ENOSPC writes never wedge the journal");
  check(d.snapshot_generation >= 1,
        "journal-storm: the restore checkpoint landed");

  const auto live = CommittedOf(server.get(), kSessions);
  server.reset();
  // The on-disk journal must be pristine: every segment truncated to its
  // valid prefix by the seal repair, no torn tail, no corruption.
  core::Result<io::JournalScan> scan = io::ScanJournal(dir, false);
  check(scan.ok() && scan->clean && !scan->torn_tail,
        "journal-storm: the journal scans clean after the storm");
  if (scan.ok()) {
    for (const io::SegmentInfo& seg : scan->segments) {
      check(seg.file_bytes == seg.valid_bytes,
            "journal-storm: no segment carries torn bytes past its last "
            "valid record");
    }
  }
  CheckRecoveryIdentity("journal-storm", threads, durability, live, check);
  check(live == ChaosOracle(threads, kSessions, kPoints),
        "journal-storm: the storm is invisible in committed output");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Scenario: every snapshot-write failure mode (ENOSPC data write, failed
/// fsync, failed rename) against Checkpoint(). A failed checkpoint must not
/// advance the snapshot generation, must not leave a temp file or a readable
/// partial generation behind, and must not flip the server degraded; the
/// retry once the fault clears must succeed and recover byte-identically.
void ChaosSnapshotFaults(int threads, const Check& check) {
  constexpr int kSessions = 3;
  constexpr int kPoints = 8;
  constexpr int kCheckpointTick = 4;  // Mid-stream: sessions must stay live
                                      // (snapshots capture only live state;
                                      // finished results travel by journal).
  const std::string dir = MakeTempDir();
  if (dir.empty()) {
    check(false, "snapshot: mkdtemp");
    return;
  }

  io::FaultEnv env;
  ChaosWorld world;
  auto server = std::make_unique<srv::MatchServer>(world.Tiers(),
                                                   ChaosWorld::Config(threads));
  srv::DurabilityConfig durability;
  durability.dir = dir;
  durability.journal.fsync = io::FsyncPolicy::kEveryTick;
  durability.env = &env;
  check(server->EnableDurability(durability).ok(),
        "snapshot: durability enables on a fresh directory");
  for (int c = 0; c < kSessions; ++c) {
    check(server->OpenSession().ok(), "snapshot: session opens");
  }
  for (int t = 1; t <= kPoints + 2; ++t) {
    server->Tick(t);
    if (t <= kPoints) {
      for (int c = 0; c < kSessions; ++c) {
        check(server->Push(c, ChaosWorld::Pt(c, t - 1, kPoints)).ok(),
              "snapshot: push acks ok");
      }
    }
    if (t == kCheckpointTick) {
      check(server->Checkpoint().ok(),
            "snapshot: baseline checkpoint succeeds");
      check(server->durability_status().snapshot_generation == 1,
            "snapshot: baseline checkpoint is generation 1");
      const io::EnvOp kOps[] = {io::EnvOp::kWrite, io::EnvOp::kFsync,
                                io::EnvOp::kRename};
      for (const io::EnvOp op : kOps) {
        env.ClearRules();
        io::EnvFaultRule rule;
        rule.op = op;
        rule.path_substr = "snapshot-";
        rule.fault_errno = op == io::EnvOp::kWrite ? ENOSPC : EIO;
        env.AddRule(rule);
        check(!server->Checkpoint().ok(),
              "snapshot: a faulted checkpoint reports its failure");
        check(server->durability_status().snapshot_generation == 1,
              "snapshot: a failed checkpoint never advances the generation");
        check(srv::ListSnapshotGenerations(dir) == std::vector<int>{1},
              "snapshot: a failed checkpoint leaves no readable new "
              "generation");
        bool tmp_left = false;
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
          if (entry.path().string().find(".tmp") != std::string::npos) {
            tmp_left = true;
          }
        }
        check(!tmp_left, "snapshot: a failed checkpoint leaves no temp file");
        check(!server->degraded_nondurable(),
              "snapshot: one failed checkpoint does not degrade the server");
      }
      env.ClearRules();
      check(server->Checkpoint().ok(),
            "snapshot: the checkpoint succeeds once the fault clears");
      check(server->durability_status().snapshot_generation == 2,
            "snapshot: the retried checkpoint is generation 2");
    }
    if (t == kPoints + 1) {
      for (int c = 0; c < kSessions; ++c) {
        check(server->Finish(c).ok(), "snapshot: finish acks ok");
      }
    }
  }

  const auto live = CommittedOf(server.get(), kSessions);
  server.reset();
  CheckRecoveryIdentity("snapshot", threads, durability, live, check);
  check(live == ChaosOracle(threads, kSessions, kPoints),
        "snapshot: checkpoint churn is invisible in committed output");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Scenario: the versioned store's publish pointer under fault. A failed
/// CURRENT write, fsync, or rename must leave the old generation serving
/// (CURRENT intact, no temp debris); the retry must flip it.
void ChaosStorePublishFaults(const Check& check) {
  const std::string base = MakeTempDir();
  if (base.empty()) {
    check(false, "store-publish: mkdtemp");
    return;
  }
  const std::string root = base + "/store";
  check(!BuildStoreGen(root, 1, 6, 6, 200.0).empty(),
        "store-publish: generation 1 builds");
  check(store::PublishCurrent(root, 1).ok(),
        "store-publish: generation 1 publishes");
  check(!BuildStoreGen(root, 2, 6, 6, 200.0).empty(),
        "store-publish: generation 2 builds");

  io::FaultEnv env;
  const io::EnvOp kOps[] = {io::EnvOp::kWrite, io::EnvOp::kFsync,
                            io::EnvOp::kRename};
  for (const io::EnvOp op : kOps) {
    env.ClearRules();
    io::EnvFaultRule rule;
    rule.op = op;
    rule.path_substr = "CURRENT";
    rule.fault_errno = op == io::EnvOp::kWrite ? ENOSPC : EIO;
    env.AddRule(rule);
    check(!store::PublishCurrent(root, 2, &env).ok(),
          "store-publish: a faulted publish reports its failure");
    core::Result<int64_t> cur = store::ReadCurrent(root);
    check(cur.ok() && *cur == 1,
          "store-publish: CURRENT still points at the old generation after a "
          "failed publish");
    bool tmp_left = false;
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
      if (entry.path().string().find(".tmp") != std::string::npos) {
        tmp_left = true;
      }
    }
    check(!tmp_left, "store-publish: a failed publish leaves no temp file");
  }
  env.ClearRules();
  check(store::PublishCurrent(root, 2, &env).ok(),
        "store-publish: the publish succeeds once the fault clears");
  core::Result<int64_t> cur = store::ReadCurrent(root);
  check(cur.ok() && *cur == 2, "store-publish: the retry flips CURRENT");
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

/// Scenario: an EMFILE accept storm against an in-process NetServer. One
/// transient EMFILE must shed the next connection via the reserve fd (the
/// peer sees a clean EOF, never a hang); a sustained storm must pull the
/// listener out of the poll set (no busy spin) and serve the backlogged
/// connection once descriptors return — ending with a full framed session
/// and a `status` line carrying the degraded fields over this transport.
void ChaosAcceptStorm(int threads, const Check& check) {
  ChaosWorld world;
  srv::MatchServer server(world.Tiers(), ChaosWorld::Config(threads));
  io::FaultEnv env;
  srv::NetServerConfig ncfg;
  ncfg.env = &env;
  ncfg.poll_interval_ms = 20;
  srv::NetServer net(&server, srv::CommandOptions{}, ncfg);
  check(net.Listen().ok(), "accept-storm: listener binds");
  std::atomic<bool> stop{false};
  core::Status run_status;
  std::thread serving([&] { run_status = net.Run(stop); });

  {
    // Phase A: a single EMFILE. The reserve fd is surrendered, the pending
    // connection accepted and immediately closed — a clean typed shed.
    io::EnvFaultRule once;
    once.op = io::EnvOp::kAccept;
    once.repeat = 1;
    once.fault_errno = EMFILE;
    env.AddRule(once);
    FrameConn shed;
    check(shed.Dial(net.port()), "accept-storm: phase-A dial connects");
    check(shed.SawEof(2000),
          "accept-storm: an fd-pressure shed is a clean EOF, not a hang");
  }
  {
    // Phase B: EMFILE forever — even the reserve-fd retry fails, so the
    // listener must drop out of the poll set instead of spinning on a
    // permanently readable fd.
    io::EnvFaultRule storm;
    storm.op = io::EnvOp::kAccept;
    storm.repeat = -1;
    storm.fault_errno = EMFILE;
    env.AddRule(storm);
    FrameConn waiting;
    check(waiting.Dial(net.port()), "accept-storm: phase-B dial connects");
    usleep(400 * 1000);  // The storm rages; `waiting` sits in the backlog.
    env.ClearRules();
    check(waiting.Cmd("pid").rfind("ok pid ", 0) == 0,
          "accept-storm: the backlogged connection is served once the storm "
          "clears");
    check(waiting.Cmd("open").rfind("ok open", 0) == 0,
          "accept-storm: opens serve after the storm");
    for (int p = 0; p < 4; ++p) {
      check(waiting.Cmd(PushLine(0, p, 4)).rfind("ok push", 0) == 0,
            "accept-storm: pushes serve after the storm");
    }
    check(waiting.Cmd("tick 1").rfind("ok tick", 0) == 0,
          "accept-storm: ticks serve after the storm");
    check(waiting.Cmd("finish 0").rfind("ok finish", 0) == 0,
          "accept-storm: finish serves after the storm");
    check(waiting.Cmd("await") == "ok await",
          "accept-storm: await serves after the storm");
    check(waiting.Cmd("committed 0").rfind("ok committed", 0) == 0,
          "accept-storm: committed output serves after the storm");
    const std::string status = waiting.Cmd("status");
    check(status.rfind("ok status", 0) == 0 &&
              status.find(" degraded=0") != std::string::npos,
          "accept-storm: status carries the degraded field over frames");
  }
  stop.store(true);
  serving.join();
  check(run_status.ok(), "accept-storm: the serving loop exits cleanly");
  const srv::NetMetrics m = net.metrics();
  check(m.accepted_shed >= 1, "accept-storm: the phase-A connection was shed");
  check(m.accept_failures >= 1,
        "accept-storm: sustained-storm failures were counted");
  // ~1 second of serving at a 20ms poll cadence plus client traffic is well
  // under 2000 wakeups; a busy-spinning listener would show hundreds of
  // thousands.
  check(m.poll_wakeups < 2000,
        "accept-storm: an fd-starved listener must not busy-spin the poll "
        "loop");
}

/// Scenario (requires --serve-bin): a REAL lhmm_serve child with
/// RLIMIT_NOFILE clamped to 32, hit with a 48-connection loopback storm. The
/// kernel completes every handshake; the starved server must shed the
/// overflow with clean EOFs, keep serving its existing connection through
/// the storm, and serve a full session once descriptors free — never dying,
/// wedging, or spinning.
void ChaosRealFdStarvation(const std::string& serve_bin, int threads,
                           const Check& check) {
  if (serve_bin.empty()) {
    printf(
        "chaos-gauntlet: --serve-bin not given; skipping the real-rlimit "
        "accept storm\n");
    return;
  }
  ServeProc sp;
  sp.rlimit_nofile = 32;
  if (!sp.StartSocket({serve_bin, "--threads", std::to_string(threads)})) {
    check(false, "rlimit-storm: server starts under RLIMIT_NOFILE=32");
    return;
  }
  std::string resp = sp.Cmd("status");
  check(resp.rfind("ok status", 0) == 0 &&
            resp.find(" degraded=0") != std::string::npos,
        "rlimit-storm: status reports the degraded field over the socket");

  std::vector<int> extras;
  for (int i = 0; i < 48; ++i) {
    const int fd = DialLoopback(sp.port, 50);
    if (fd >= 0) extras.push_back(fd);
  }
  check(extras.size() == 48,
        "rlimit-storm: every storm connection completes the TCP handshake");
  // The starved accept loop sheds what it cannot hold; wait for at least one
  // clean EOF (re-polling: the shed pace is bounded by the accept cadence).
  int eofs = 0;
  for (int attempt = 0; attempt < 150 && eofs == 0; ++attempt) {
    for (const int fd : extras) {
      pollfd p = {fd, POLLIN, 0};
      char b = 0;
      if (poll(&p, 1, 0) > 0 && recv(fd, &b, 1, MSG_DONTWAIT) == 0) ++eofs;
    }
    if (eofs == 0) usleep(20 * 1000);
  }
  check(eofs >= 1, "rlimit-storm: fd pressure sheds connections with a clean "
                   "EOF");
  resp = sp.Cmd("status");
  check(resp.rfind("ok status", 0) == 0,
        "rlimit-storm: the control connection stays served through the storm");
  for (const int fd : extras) close(fd);

  resp = sp.Cmd("open");
  check(resp.rfind("ok open", 0) == 0, "rlimit-storm: opens serve after the "
                                       "storm");
  for (int p = 0; p < 4; ++p) {
    check(sp.Cmd(PushLine(0, p, 4)).rfind("ok push", 0) == 0,
          "rlimit-storm: pushes serve after the storm");
  }
  check(sp.Cmd("tick 1").rfind("ok tick", 0) == 0,
        "rlimit-storm: ticks serve after the storm");
  check(sp.Cmd("finish 0").rfind("ok finish", 0) == 0,
        "rlimit-storm: finish serves after the storm");
  check(sp.Quit(), "rlimit-storm: clean shutdown after the storm");
}

int RunChaosGauntlet(const std::map<std::string, std::string>& args) {
  const int threads = GetInt(args, "threads", 4);
  const std::string serve_bin = Get(args, "serve-bin", "");
  printf("chaos-gauntlet: %d engine threads%s\n", threads,
         serve_bin.empty() ? " (in-process scenarios only)" : "");

  int failures = 0;
  const Check check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      fprintf(stderr, "INVARIANT VIOLATED: %s\n", what.c_str());
      ++failures;
    }
  };
  const auto run = [&](const char* name, const std::function<void()>& fn) {
    const int before = failures;
    fn();
    printf("chaos-gauntlet: %-28s %s\n", name,
           failures == before ? "OK" : "FAILED");
  };
  run("disk-full degraded window",
      [&] { ChaosDiskFullWindow(threads, check); });
  run("journal ENOSPC storm", [&] { ChaosJournalStorm(threads, check); });
  run("snapshot checkpoint faults",
      [&] { ChaosSnapshotFaults(threads, check); });
  run("store publish faults", [&] { ChaosStorePublishFaults(check); });
  run("EMFILE accept storm", [&] { ChaosAcceptStorm(threads, check); });
  run("real-rlimit accept storm",
      [&] { ChaosRealFdStarvation(serve_bin, threads, check); });

  if (failures > 0) {
    fprintf(stderr, "chaos-gauntlet: %d invariant(s) FAILED\n", failures);
    return 1;
  }
  printf("chaos-gauntlet: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A worker dying mid-conversation must never SIGPIPE the harness.
  std::signal(SIGPIPE, SIG_IGN);
  const auto args = ParseArgs(argc, argv);
  if (GetInt(args, "chaos-gauntlet", 0) != 0) return RunChaosGauntlet(args);
  if (GetInt(args, "swap-gauntlet", 0) != 0) return RunSwapGauntlet(args);
  if (GetInt(args, "fleet-gauntlet", 0) != 0) return RunFleetGauntlet(args);
  if (GetInt(args, "net-smoke", 0) != 0) return RunNetSmoke(args);
  if (args.count("crash-at") != 0) return RunCrashGauntlet(args);
  const bool smoke = GetInt(args, "smoke", 0) != 0;

  const int sessions = GetInt(args, "sessions", smoke ? 24 : 120);
  const int points = GetInt(args, "points", smoke ? 16 : 40);
  const int threads = GetInt(args, "threads", 4);
  const int max_ticks = GetInt(args, "max-ticks", 20000);
  const double failure_rate =
      GetDouble(args, "route-failure-rate", smoke ? 0.02 : 0.05);
  const double latency_rate = GetDouble(args, "latency-rate", 0.0);
  const uint64_t seed = static_cast<uint64_t>(GetInt(args, "seed", 1234));
  // Barrier every N ticks so the producer cannot outrun the workers by whole
  // phases: pressure deltas (route failures, queue depth) then land inside
  // the tick windows that sample them, which is what lets the degrade ladder
  // react within the run. At a barrier tick the deltas are settled and
  // deterministic. 0 disables pacing.
  const int pace = GetInt(args, "pace", 4);

  // A grid city with fault injection underneath the shared route cache.
  network::RoadNetwork net = network::GenerateGridNetwork(10, 10, 200.0);
  network::GridIndex index(&net, 150.0);
  network::FaultConfig faults;
  faults.route_failure_rate = failure_rate;
  faults.latency_rate = latency_rate;
  faults.seed = seed;
  network::SegmentRouter router(&net);
  network::FaultyRouter faulty(&router, faults);

  // Degrade tiers: full-k IVMM down to a lean STM.
  hmm::ClassicModelConfig models;
  std::vector<srv::TierSpec> tiers;
  tiers.push_back({"IVMM", [&net, &index, models] {
                     return std::make_unique<matchers::IvmmMatcher>(
                         &net, &index, models, 10);
                   }});
  hmm::EngineConfig stm_engine;
  stm_engine.k = 8;
  tiers.push_back({"STM", [&net, &index, models, stm_engine] {
                     return std::make_unique<matchers::StmMatcher>(
                         &net, &index, models, stm_engine);
                   }});

  srv::ServerConfig config;
  config.engine.num_threads = threads;
  config.engine.lag = 4;
  config.engine.shared_router = &faulty;
  config.engine.max_inbox = 64;
  config.engine.session_ttl = 500;
  config.admission.open_rate_per_tick = 2.0;
  config.admission.open_burst = 8.0;
  config.admission.push_rate_per_tick = 48.0;
  config.admission.push_burst = 96.0;
  config.admission.max_queue_depth = 4096;
  config.degrade.overload_route_failures = smoke ? 4 : 16;
  config.degrade.overload_shed = 64;
  config.degrade.downgrade_after = 2;
  config.degrade.recover_after = 4;
  config.default_deadline_ticks = 5000;
  config.fault_signal = &faulty;

  srv::MatchServer server(std::move(tiers), config);
  core::Rng rng(seed);

  // Build the client fleet: walks across distinct grid rows, a few of which
  // abandon their session mid-stream (TTL eviction food).
  std::vector<Client> clients(static_cast<size_t>(sessions));
  for (int c = 0; c < sessions; ++c) {
    Client& cl = clients[c];
    const double y = 200.0 * (c % 10) + 10.0;
    const double x0 = 50.0 + 30.0 * (c % 5);
    for (int p = 0; p < points; ++p) {
      cl.traj.points.push_back(
          {{x0 + 180.0 * p, y}, 15.0 * p, static_cast<traj::TowerId>(p)});
    }
    cl.abandons = (c % 11 == 7);
    cl.ready_at = c / 4;  // Staggered arrivals.
  }

  Tally tally;
  int64_t tick = 0;
  int done = 0;
  for (; tick < max_ticks && done < sessions; ++tick) {
    if (pace > 0 && tick % pace == pace - 1) server.Barrier();
    server.Tick(tick);
    for (Client& cl : clients) {
      if (cl.phase == Client::Phase::kDone || cl.ready_at > tick) continue;
      switch (cl.phase) {
        case Client::Phase::kOpening: {
          ++tally.attempted_opens;
          core::Result<int64_t> id = server.OpenSession();
          if (id.ok()) {
            cl.session = *id;
            cl.phase = Client::Phase::kStreaming;
            cl.attempts = 0;
            ++tally.ok_opens;
          } else if (Retryable(id.status())) {
            ++tally.shed_opens;
            cl.ready_at = tick + Backoff(cl.attempts++, &rng);
            if (cl.attempts > 12) {
              cl.phase = Client::Phase::kDone;
              cl.outcome = "gave-up-open";
              ++tally.gave_up;
              ++done;
            }
          } else {
            cl.phase = Client::Phase::kDone;
            cl.outcome = "open-failed:" +
                         std::string(core::StatusCodeName(id.status().code()));
            ++done;
          }
          break;
        }
        case Client::Phase::kStreaming: {
          if (cl.abandons && cl.next_point >= points / 2) {
            cl.phase = Client::Phase::kDone;  // Walks away; TTL reaps it.
            cl.outcome = "abandoned";
            ++done;
            break;
          }
          ++tally.attempted_pushes;
          const core::Status st =
              server.Push(cl.session, cl.traj[cl.next_point]);
          if (st.ok()) {
            ++tally.ok_pushes;
            cl.attempts = 0;
            if (++cl.next_point >= points) cl.phase = Client::Phase::kFinishing;
          } else if (Retryable(st)) {
            ++tally.shed_pushes;
            cl.ready_at = tick + Backoff(cl.attempts++, &rng);
            if (cl.attempts > 12) {
              cl.phase = Client::Phase::kDone;
              cl.outcome = "gave-up-push";
              ++tally.gave_up;
              ++done;
            }
          } else {
            ++tally.hard_pushes;
            cl.phase = Client::Phase::kDone;
            cl.outcome = "push-failed:" +
                         std::string(core::StatusCodeName(st.code()));
            ++done;
          }
          break;
        }
        case Client::Phase::kFinishing: {
          const core::Status st = server.Finish(cl.session);
          cl.phase = Client::Phase::kDone;
          cl.outcome = st.ok() ? "completed"
                               : "finish-failed:" + std::string(core::StatusCodeName(
                                                        st.code()));
          ++done;
          break;
        }
        case Client::Phase::kDone:
          break;
      }
    }
  }
  // Let TTL reap any abandoned sessions, then settle all pumps.
  for (int i = 0; i < 3; ++i) server.Tick(tick + (i + 1) * 1000);
  server.Barrier();

  const srv::ServerMetrics m = server.metrics();
  std::map<std::string, int> outcomes;
  for (const Client& cl : clients) ++outcomes[cl.outcome];

  printf("loadgen: %d clients, %d points each, %d threads, %" PRId64 " ticks\n",
         sessions, points, threads, tick);
  printf("  opens:  attempted=%" PRId64 " ok=%" PRId64 " shed=%" PRId64 "\n",
         tally.attempted_opens, tally.ok_opens, tally.shed_opens);
  printf("  pushes: attempted=%" PRId64 " ok=%" PRId64 " shed=%" PRId64
         " hard=%" PRId64 "\n",
         tally.attempted_pushes, tally.ok_pushes, tally.shed_pushes,
         tally.hard_pushes);
  printf("  server: admitted_opens=%" PRId64 " admitted_pushes=%" PRId64
         " shed_opens=%" PRId64 " shed_pushes=%" PRId64 "\n",
         m.opens_admitted, m.pushes_admitted, m.opens_shed, m.pushes_shed);
  printf("  tiers:  active=%s downgrades=%" PRId64 " upgrades=%" PRId64 "\n",
         server.active_tier_name().c_str(), m.downgrades, m.upgrades);
  printf("  faults: route_failures=%" PRId64 " delays=%" PRId64 "\n",
         faulty.injected_failures(), faulty.injected_delays());
  printf("  state:  live=%" PRId64 " evicted=%" PRId64 " expired=%" PRId64
         " quarantined=%" PRId64 " queue=%" PRId64 "\n",
         m.live_sessions, m.evicted_sessions, m.expired_sessions,
         m.quarantined_sessions, m.queue_depth);
  for (const auto& [outcome, count] : outcomes) {
    printf("  client: %-24s %d\n", outcome.c_str(), count);
  }

  // Accounting invariants: every attempt is visible somewhere typed; nothing
  // vanished. Violations mean a silent drop or a deadlock — fail loudly.
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      fprintf(stderr, "INVARIANT VIOLATED: %s\n", what);
      ++failures;
    }
  };
  check(done == sessions, "every client reached a terminal state (no deadlock)");
  check(tally.ok_opens == m.opens_admitted,
        "client-observed opens == server-admitted opens");
  check(tally.ok_pushes == m.pushes_admitted,
        "client-observed pushes == server-admitted pushes");
  // No other kUnavailable source is active here (no drain), so admission
  // sheds and client-observed retryable open rejects must agree exactly;
  // push rejects may additionally come from engine backpressure/quarantine,
  // so the client count dominates the admission count.
  check(tally.shed_opens == m.opens_shed,
        "every admission-shed open surfaced as a typed retryable reject");
  check(tally.shed_pushes >= m.pushes_shed,
        "every admission-shed push surfaced as a typed retryable reject");
  check(m.queue_depth == 0, "all queues drained after the final barrier");

  if (failures > 0) return 1;
  printf("loadgen: OK\n");
  return 0;
}
