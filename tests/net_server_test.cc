// Socket-level integration tests for the TCP transport (srv::NetServer +
// srv::CommandProcessor) over real loopback connections:
//
//  - N concurrent connections produce committed output byte-identical to the
//    stdin path (same verb stream through CommandProcessor) at 1 and 8
//    engine threads;
//  - a slow reader (unread responses) trips per-connection write-queue
//    backpressure with exact typed kResourceExhausted rejects and recovers
//    once it drains;
//  - an abrupt mid-frame disconnect frees the connection without wedging the
//    pump; an oversized frame gets a typed err frame, then the close;
//  - a half-open/idle connection is reaped by the existing logical-clock idle
//    TTL;
//  - push/finish/deadline with an unknown or negative session id get the
//    same typed NotFound reply on both transports and the server stays up;
//  - regression: a failed `drain` leaves the server serving (not wedged
//    draining with its sessions closed), so the EOF/SIGTERM shutdown drain
//    still completes — the bug the socket gauntlet surfaced in lhmm_serve.
//
// The server loop runs on one thread; clients are real blocking sockets on
// test threads. Metrics are read only after the serving thread joins.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/strings.h"
#include "hmm/classic_models.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "srv/frame.h"
#include "srv/match_server.h"
#include "srv/net_server.h"
#include "traj/trajectory.h"

namespace lhmm {
namespace {

/// A blocking loopback client speaking the frame protocol.
struct NetClient {
  int fd = -1;

  bool Connect(int port, int rcvbuf = 0) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (rcvbuf > 0) {
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  /// One framed round trip; empty string when the connection is gone.
  std::string Cmd(const std::string& line) {
    if (!srv::WriteFrame(fd, line).ok()) return "";
    core::Result<std::string> resp = srv::ReadFrame(fd);
    return resp.ok() ? *resp : "";
  }

  bool Send(const std::string& line) { return srv::WriteFrame(fd, line).ok(); }
  std::string Recv() {
    core::Result<std::string> resp = srv::ReadFrame(fd);
    return resp.ok() ? *resp : "";
  }
  /// Sends raw bytes, bypassing the frame encoder (fault injection).
  bool SendRaw(const std::string& bytes) {
    return send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  /// True when the peer closed the connection (clean EOF).
  bool WaitForEof() {
    char c;
    for (;;) {
      const ssize_t n = read(fd, &c, 1);
      if (n == 0) return true;
      if (n < 0 && errno != EINTR) return false;
      if (n > 0) return false;  // Unexpected data.
    }
  }
  void Close() {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  ~NetClient() { Close(); }
};

class NetServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new network::RoadNetwork(network::GenerateGridNetwork(8, 8, 200.0));
    index_ = new network::GridIndex(net_, 150.0);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete net_;
    index_ = nullptr;
    net_ = nullptr;
  }

  static hmm::ClassicModelConfig Models() {
    hmm::ClassicModelConfig models;
    models.obs_sigma = 120.0;
    models.search_radius = 500.0;
    return models;
  }

  static std::vector<srv::TierSpec> Tiers() {
    const network::RoadNetwork* net = net_;
    const network::GridIndex* index = index_;
    matchers::MatcherFactory ivmm = [net, index] {
      return std::make_unique<matchers::IvmmMatcher>(net, index, Models(),
                                                     /*k=*/10);
    };
    hmm::EngineConfig engine;
    engine.k = 8;
    matchers::MatcherFactory stm = [net, index, engine] {
      return std::make_unique<matchers::StmMatcher>(net, index, Models(),
                                                    engine);
    };
    return {{"IVMM", ivmm}, {"STM", stm}};
  }

  static srv::ServerConfig Config(int threads) {
    srv::ServerConfig config;
    config.engine.num_threads = threads;
    config.engine.lag = 2;
    return config;
  }

  /// The p-th push line of a walk along grid row `row` (byte-exact across
  /// the oracle and the socket run — the whole comparison rests on both
  /// transports seeing identical verb text).
  static std::string PushCmd(int64_t id, int row, int p) {
    return core::StrFormat("push %lld %.17g %.17g %.17g %d",
                           static_cast<long long>(id), 100.0 + p * 250.0,
                           10.0 + row * 200.0, 20.0 * p, p);
  }

  static network::RoadNetwork* net_;
  static network::GridIndex* index_;
};

network::RoadNetwork* NetServeTest::net_ = nullptr;
network::GridIndex* NetServeTest::index_ = nullptr;

/// A NetServer running on its own thread against a fresh MatchServer.
struct RunningServer {
  std::unique_ptr<srv::MatchServer> server;
  std::unique_ptr<srv::NetServer> net;
  std::thread thread;
  std::atomic<bool> stop{false};
  core::Status run_status;

  void Start(std::vector<srv::TierSpec> tiers, const srv::ServerConfig& config,
             srv::NetServerConfig net_config) {
    server = std::make_unique<srv::MatchServer>(std::move(tiers), config);
    // Fast stop-flag cadence keeps the tests snappy.
    net_config.poll_interval_ms = 20;
    net = std::make_unique<srv::NetServer>(server.get(), srv::CommandOptions{},
                                           net_config);
    ASSERT_TRUE(net->Listen().ok());
    thread = std::thread([this] { run_status = net->Run(stop); });
  }

  /// Stops the loop and joins; metrics are safe to read afterwards.
  srv::NetMetrics Stop() {
    stop.store(true);
    if (thread.joinable()) thread.join();
    EXPECT_TRUE(run_status.ok()) << run_status.ToString();
    return net->metrics();
  }
};

// ---------------------------------------------------------------------------
// Byte-identity with the stdin path, at 1 and 8 engine threads.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, ConcurrentConnectionsMatchStdinPathByteForByte) {
  constexpr int kRows = 8;
  constexpr int kPoints = 6;

  for (const int threads : {1, 8}) {
    // The stdin path: the same CommandProcessor lhmm_serve's stdin loop runs,
    // one session per grid row, ids 0..7 in open order.
    std::map<int, std::string> oracle;  // row -> committed payload after the id
    {
      srv::MatchServer server(Tiers(), Config(threads));
      srv::CommandProcessor proc(&server, {});
      std::string resp;
      bool quit = false;
      for (int row = 0; row < kRows; ++row) {
        ASSERT_TRUE(proc.Process("open", &resp, &quit));
        ASSERT_EQ(resp, core::StrFormat("ok open %d tier=IVMM", row));
        for (int p = 0; p < kPoints; ++p) {
          ASSERT_TRUE(proc.Process(PushCmd(row, row, p), &resp, &quit));
          ASSERT_EQ(resp, core::StrFormat("ok push %d", row));
        }
        ASSERT_TRUE(proc.Process(core::StrFormat("finish %d", row), &resp,
                                 &quit));
        ASSERT_EQ(resp, core::StrFormat("ok finish %d", row));
      }
      ASSERT_TRUE(proc.Process("await", &resp, &quit));
      ASSERT_EQ(resp, "ok await");
      for (int row = 0; row < kRows; ++row) {
        ASSERT_TRUE(proc.Process(core::StrFormat("committed %d", row), &resp,
                                 &quit));
        const std::string prefix = core::StrFormat("ok committed %d ", row);
        ASSERT_TRUE(core::StartsWith(resp, prefix)) << resp;
        oracle[row] = resp.substr(prefix.size());
        ASSERT_NE(oracle[row], "0") << "empty committed path for row " << row;
      }
    }

    // The socket path: 8 concurrent connections, one per row, racing their
    // opens/pushes through the poll loop. Session ids depend on arrival
    // order, so the comparison keys on the row (the trajectory), not the id;
    // given the id mapping, every response is byte-compared.
    RunningServer rs;
    rs.Start(Tiers(), Config(threads), srv::NetServerConfig{});
    ASSERT_TRUE(rs.net != nullptr);
    const int port = rs.net->port();

    std::vector<int64_t> row_id(kRows, -1);
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    clients.reserve(kRows);
    for (int row = 0; row < kRows; ++row) {
      clients.emplace_back([row, port, &row_id, &failures] {
        NetClient c;
        if (!c.Connect(port)) {
          ++failures;
          return;
        }
        const std::string opened = c.Cmd("open");
        long long id = -1;
        if (sscanf(opened.c_str(), "ok open %lld tier=IVMM", &id) != 1) {
          ++failures;
          return;
        }
        row_id[row] = id;
        for (int p = 0; p < kPoints; ++p) {
          if (c.Cmd(PushCmd(id, row, p)) !=
              core::StrFormat("ok push %lld", id)) {
            ++failures;
            return;
          }
        }
        if (c.Cmd(core::StrFormat("finish %lld", id)) !=
            core::StrFormat("ok finish %lld", id)) {
          ++failures;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    ASSERT_EQ(failures.load(), 0) << "threads=" << threads;

    NetClient control;
    ASSERT_TRUE(control.Connect(port));
    ASSERT_EQ(control.Cmd("await"), "ok await");
    for (int row = 0; row < kRows; ++row) {
      const int64_t id = row_id[row];
      ASSERT_GE(id, 0);
      const std::string resp =
          control.Cmd(core::StrFormat("committed %lld",
                                      static_cast<long long>(id)));
      const std::string prefix =
          core::StrFormat("ok committed %lld ", static_cast<long long>(id));
      ASSERT_TRUE(core::StartsWith(resp, prefix)) << resp;
      // Byte-identical committed output for the same trajectory, independent
      // of transport, connection interleaving, and engine thread count.
      EXPECT_EQ(resp.substr(prefix.size()), oracle[row])
          << "threads=" << threads << " row=" << row;
    }
    control.Close();
    const srv::NetMetrics m = rs.Stop();
    EXPECT_EQ(m.accepted, kRows + 1);
    EXPECT_EQ(m.closed, m.accepted);
    EXPECT_EQ(m.frames_shed, 0);
    EXPECT_EQ(m.codec_errors, 0);
  }
}

// ---------------------------------------------------------------------------
// Write-queue backpressure: slow readers get exact typed rejects.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, SlowReaderGetsTypedResourceExhaustedAndRecovers) {
  srv::NetServerConfig net_config;
  net_config.max_write_queue_bytes = 1024;
  net_config.so_sndbuf = 4096;  // Small kernel buffers make the queue fill.
  RunningServer rs;
  rs.Start(Tiers(), Config(2), net_config);
  ASSERT_TRUE(rs.net != nullptr);

  NetClient slow;
  ASSERT_TRUE(slow.Connect(rs.net->port(), /*rcvbuf=*/4096));
  // Flood requests WITHOUT reading responses: the kernel buffers fill, the
  // per-connection write queue exceeds its cap, and further requests must be
  // answered with the exact typed reject instead of unbounded buffering.
  constexpr int kRequests = 800;
  for (int i = 0; i < kRequests; ++i) ASSERT_TRUE(slow.Send("stats"));

  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string resp = slow.Recv();
    if (core::StartsWith(resp, "ok stats ")) {
      ++ok;
    } else if (resp == "err ResourceExhausted connection write queue full") {
      ++shed;
    } else {
      FAIL() << "request " << i << ": unexpected response '" << resp << "'";
    }
  }
  // Exactly one response per request — shed requests are typed rejects, never
  // silent drops — and both outcomes occurred.
  EXPECT_EQ(ok + shed, kRequests);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  // Draining the responses clears the queue: the connection recovers.
  EXPECT_TRUE(core::StartsWith(slow.Cmd("stats"), "ok stats "));

  // Fleet isolation: a well-behaved connection is untouched by the slow one.
  NetClient good;
  ASSERT_TRUE(good.Connect(rs.net->port()));
  EXPECT_TRUE(core::StartsWith(good.Cmd("open"), "ok open "));

  good.Close();
  slow.Close();
  const srv::NetMetrics m = rs.Stop();
  EXPECT_EQ(m.frames_shed, shed);
  EXPECT_EQ(m.frames_in, kRequests + 2);
}

// ---------------------------------------------------------------------------
// Abrupt disconnects and bad framing.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, MidFrameDisconnectFreesTheConnection) {
  RunningServer rs;
  rs.Start(Tiers(), Config(2), srv::NetServerConfig{});
  ASSERT_TRUE(rs.net != nullptr);

  // Die mid-frame: a round trip first (so the accept provably happened), then
  // a header promising 100 bytes, 10 bytes of payload, and a hard close.
  {
    NetClient abrupt;
    ASSERT_TRUE(abrupt.Connect(rs.net->port()));
    ASSERT_TRUE(core::StartsWith(abrupt.Cmd("stats"), "ok stats "));
    std::string partial = srv::EncodeFrame(std::string(100, 'x'));
    partial.resize(srv::kFrameHeaderBytes + 10);
    ASSERT_TRUE(abrupt.SendRaw(partial));
  }  // Destructor closes the socket with the frame still incomplete.

  // The pump must not be wedged: a fresh connection serves a full session.
  NetClient fresh;
  ASSERT_TRUE(fresh.Connect(rs.net->port()));
  const std::string opened = fresh.Cmd("open");
  long long id = -1;
  ASSERT_EQ(sscanf(opened.c_str(), "ok open %lld", &id), 1) << opened;
  for (int p = 0; p < 5; ++p) {
    ASSERT_EQ(fresh.Cmd(PushCmd(id, 1, p)),
              core::StrFormat("ok push %lld", id));
  }
  ASSERT_EQ(fresh.Cmd(core::StrFormat("finish %lld", id)),
            core::StrFormat("ok finish %lld", id));
  ASSERT_EQ(fresh.Cmd("await"), "ok await");
  ASSERT_TRUE(core::StartsWith(
      fresh.Cmd(core::StrFormat("committed %lld", id)), "ok committed "));
  fresh.Close();

  const srv::NetMetrics m = rs.Stop();
  EXPECT_GE(m.peer_disconnects, 1);
  EXPECT_EQ(m.closed, m.accepted);
}

TEST_F(NetServeTest, OversizedFrameGetsTypedErrorThenClose) {
  srv::NetServerConfig net_config;
  net_config.max_frame_bytes = 128;
  RunningServer rs;
  rs.Start(Tiers(), Config(2), net_config);
  ASSERT_TRUE(rs.net != nullptr);

  NetClient c;
  ASSERT_TRUE(c.Connect(rs.net->port()));
  // A header claiming a 100000-byte payload: rejected from the header alone.
  ASSERT_TRUE(c.SendRaw(srv::EncodeFrame(std::string(100000, 'x'))
                            .substr(0, srv::kFrameHeaderBytes)));
  EXPECT_EQ(c.Recv(), "err InvalidArgument frame length 100000 exceeds "
                      "limit 128");
  EXPECT_TRUE(c.WaitForEof());
  c.Close();

  // Garbage (an HTTP request on the wrong port) is also a typed reject.
  NetClient http;
  ASSERT_TRUE(http.Connect(rs.net->port()));
  ASSERT_TRUE(http.SendRaw("GET / HTTP/1.1\r\n\r\n"));
  EXPECT_TRUE(core::StartsWith(http.Recv(), "err InvalidArgument bad frame "
                                            "magic"));
  EXPECT_TRUE(http.WaitForEof());
  http.Close();

  const srv::NetMetrics m = rs.Stop();
  EXPECT_EQ(m.codec_errors, 2);
}

// ---------------------------------------------------------------------------
// Idle-TTL reaping on the logical clock.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, HalfOpenConnectionReapedByIdleTtlTicks) {
  srv::NetServerConfig net_config;
  net_config.conn_idle_ttl = 5;
  RunningServer rs;
  rs.Start(Tiers(), Config(1), net_config);
  ASSERT_TRUE(rs.net != nullptr);

  NetClient idle;
  ASSERT_TRUE(idle.Connect(rs.net->port()));
  // One round trip pins idle.last_active at clock 0 (and proves the accept
  // happened before any tick below).
  ASSERT_TRUE(core::StartsWith(idle.Cmd("stats"), "ok stats "));

  NetClient control;
  ASSERT_TRUE(control.Connect(rs.net->port()));
  for (int t = 1; t <= 6; ++t) {
    ASSERT_TRUE(core::StartsWith(
        control.Cmd(core::StrFormat("tick %d", t)), "ok tick "));
  }
  // The idle connection was reaped by the logical clock (6 - 0 >= 5): its
  // next read sees EOF. The control connection keeps ticking, so it is never
  // idle and survives.
  EXPECT_TRUE(idle.WaitForEof());
  EXPECT_TRUE(core::StartsWith(control.Cmd("stats"), "ok stats "));

  idle.Close();
  control.Close();
  const srv::NetMetrics m = rs.Stop();
  EXPECT_EQ(m.reaped_idle, 1);
}

// ---------------------------------------------------------------------------
// Quit and graceful stop.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, QuitVerbStopsTheLoopAndClosesEveryConnection) {
  RunningServer rs;
  rs.Start(Tiers(), Config(2), srv::NetServerConfig{});
  ASSERT_TRUE(rs.net != nullptr);

  NetClient a;
  NetClient b;
  ASSERT_TRUE(a.Connect(rs.net->port()));
  ASSERT_TRUE(b.Connect(rs.net->port()));
  ASSERT_TRUE(core::StartsWith(a.Cmd("open"), "ok open "));
  ASSERT_TRUE(core::StartsWith(b.Cmd("stats"), "ok stats "));
  ASSERT_TRUE(a.Send("quit"));
  // quit produces no response (exactly like stdin mode): both connections see
  // a flush-then-close, and Run() returns without the stop flag.
  EXPECT_TRUE(a.WaitForEof());
  EXPECT_TRUE(b.WaitForEof());
  if (rs.thread.joinable()) rs.thread.join();
  EXPECT_TRUE(rs.run_status.ok()) << rs.run_status.ToString();
  EXPECT_EQ(rs.net->metrics().closed, 2);
}

// ---------------------------------------------------------------------------
// Liveness verbs: identical bytes on the stdin and socket transports.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, HealthAndPidVerbsIdenticalAcrossTransports) {
  // The supervisor's health probe and a human on stdin must see the same
  // report: both transports run the same CommandProcessor, and this pins it.
  srv::MatchServer server(Tiers(), Config(1));
  srv::CommandProcessor proc(&server, {});
  std::string stdin_health;
  std::string stdin_pid;
  bool quit = false;
  ASSERT_TRUE(proc.Process("health", &stdin_health, &quit));
  ASSERT_TRUE(proc.Process("pid", &stdin_pid, &quit));
  EXPECT_EQ(stdin_health, "ok health tier=IVMM clock=0 durable=0 gen=0 live=0");
  EXPECT_EQ(stdin_pid,
            core::StrFormat("ok pid %d uptime=0", static_cast<int>(getpid())));

  RunningServer rs;
  rs.Start(Tiers(), Config(1), srv::NetServerConfig{});
  ASSERT_TRUE(rs.net != nullptr);
  NetClient c;
  ASSERT_TRUE(c.Connect(rs.net->port()));
  EXPECT_EQ(c.Cmd("health"), stdin_health);
  EXPECT_EQ(c.Cmd("pid"), stdin_pid);

  // The report is live state, not a constant: drive both transports through
  // the same verb stream and they must still agree byte-for-byte.
  std::string resp;
  ASSERT_TRUE(proc.Process("open", &resp, &quit));
  ASSERT_TRUE(proc.Process("tick 3", &resp, &quit));
  ASSERT_TRUE(proc.Process("health", &stdin_health, &quit));
  EXPECT_EQ(stdin_health, "ok health tier=IVMM clock=3 durable=0 gen=0 live=1");
  ASSERT_TRUE(core::StartsWith(c.Cmd("open"), "ok open "));
  ASSERT_TRUE(core::StartsWith(c.Cmd("tick 3"), "ok tick "));
  EXPECT_EQ(c.Cmd("health"), stdin_health);

  c.Close();
  rs.Stop();
}

// ---------------------------------------------------------------------------
// Client-supplied session ids: an unknown or negative id on a mutating verb
// is a typed NotFound, never a server abort.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, BadSessionIdsGetNotFoundOnBothTransports) {
  std::vector<std::string> verbs;
  std::vector<std::string> want;
  for (const char* id : {"0", "7", "-1"}) {  // No session is open yet.
    const std::string miss = std::string("err NotFound no session ") + id;
    verbs.push_back(std::string("push ") + id + " 100 10 0 1");
    verbs.push_back(std::string("finish ") + id);
    verbs.push_back(std::string("deadline ") + id + " 5");
    want.insert(want.end(), 3, miss);
  }

  srv::MatchServer server(Tiers(), Config(1));
  srv::CommandProcessor proc(&server, {});
  bool quit = false;
  std::vector<std::string> stdin_replies;
  for (const std::string& v : verbs) {
    std::string resp;
    ASSERT_TRUE(proc.Process(v, &resp, &quit)) << v;
    stdin_replies.push_back(resp);
  }
  EXPECT_EQ(stdin_replies, want);
  std::string stdin_open;
  ASSERT_TRUE(proc.Process("open", &stdin_open, &quit));
  EXPECT_EQ(stdin_open, "ok open 0 tier=IVMM");
  EXPECT_FALSE(quit);

  RunningServer rs;
  rs.Start(Tiers(), Config(1), srv::NetServerConfig{});
  ASSERT_TRUE(rs.net != nullptr);
  NetClient c;
  ASSERT_TRUE(c.Connect(rs.net->port()));
  for (size_t i = 0; i < verbs.size(); ++i) {
    EXPECT_EQ(c.Cmd(verbs[i]), stdin_replies[i]) << verbs[i];
  }
  EXPECT_EQ(c.Cmd("open"), stdin_open);
  c.Close();
  rs.Stop();
}

// ---------------------------------------------------------------------------
// SIGPIPE hardening: writes to a half-closed socket must not kill the server.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, WritesToHalfClosedSocketDoNotKillTheServer) {
  // This test binary does NOT ignore SIGPIPE, deliberately: if any server
  // send() lacked MSG_NOSIGNAL, the kernel would SIGPIPE this process dead
  // right here. Queue a burst of requests, slam the socket shut without
  // reading a byte (the close RSTs the inbound responses), and let the server
  // write into the wreckage.
  RunningServer rs;
  rs.Start(Tiers(), Config(2), srv::NetServerConfig{});
  ASSERT_TRUE(rs.net != nullptr);

  for (int round = 0; round < 4; ++round) {
    NetClient doomed;
    ASSERT_TRUE(doomed.Connect(rs.net->port(), /*rcvbuf=*/4096));
    ASSERT_TRUE(core::StartsWith(doomed.Cmd("stats"), "ok stats "));
    for (int i = 0; i < 200; ++i) {
      if (!doomed.Send("stats")) break;  // Queue responses, never read them.
    }
    doomed.Close();
  }

  // Still alive and serving: a full session on a fresh connection.
  NetClient fresh;
  ASSERT_TRUE(fresh.Connect(rs.net->port()));
  const std::string opened = fresh.Cmd("open");
  long long id = -1;
  ASSERT_EQ(sscanf(opened.c_str(), "ok open %lld", &id), 1) << opened;
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(fresh.Cmd(PushCmd(id, 3, p)),
              core::StrFormat("ok push %lld", id));
  }
  ASSERT_EQ(fresh.Cmd(core::StrFormat("finish %lld", id)),
            core::StrFormat("ok finish %lld", id));
  fresh.Close();

  const srv::NetMetrics m = rs.Stop();
  EXPECT_EQ(m.closed, m.accepted);
}

// ---------------------------------------------------------------------------
// SO_REUSEPORT: the fleet's shared-port mode.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, ReusePortLetsTwoServersShareOnePort) {
#ifdef SO_REUSEPORT
  srv::MatchServer s1(Tiers(), Config(1));
  srv::NetServerConfig c1;
  c1.reuse_port = true;
  srv::NetServer n1(&s1, {}, c1);
  ASSERT_TRUE(n1.Listen().ok());

  // Second listener on the very same port: admitted with reuse_port...
  srv::MatchServer s2(Tiers(), Config(1));
  srv::NetServerConfig c2;
  c2.reuse_port = true;
  c2.port = n1.port();
  srv::NetServer n2(&s2, {}, c2);
  EXPECT_TRUE(n2.Listen().ok());
  EXPECT_EQ(n2.port(), n1.port());

  // ...and refused without it (both earlier binds carried SO_REUSEPORT, so
  // the non-reuse bind is the one the kernel rejects).
  srv::MatchServer s3(Tiers(), Config(1));
  srv::NetServerConfig c3;
  c3.port = n1.port();
  srv::NetServer n3(&s3, {}, c3);
  EXPECT_FALSE(n3.Listen().ok());
#else
  GTEST_SKIP() << "SO_REUSEPORT not available on this platform";
#endif
}

// ---------------------------------------------------------------------------
// Regression (surfaced by the socket gauntlet): EOF-vs-drain ordering.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, FailedDrainLeavesServerServingSoShutdownDrainCompletes) {
  srv::MatchServer server(Tiers(), Config(1));
  srv::CommandProcessor proc(&server, {});
  std::string resp;
  bool quit = false;

  ASSERT_TRUE(proc.Process("open", &resp, &quit));
  ASSERT_EQ(resp, "ok open 0 tier=IVMM");
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(proc.Process(PushCmd(0, 2, p), &resp, &quit));
    ASSERT_EQ(resp, "ok push 0");
  }
  ASSERT_TRUE(proc.Process("await", &resp, &quit));

  // A drain to an unwritable path fails with a typed error — and must leave
  // the server serving. Before the fix, draining_ stayed true, every session
  // was stranded closed, and lhmm_serve's EOF shutdown skipped its own
  // --snapshot drain ("already draining"), silently losing all live sessions
  // while exiting 0.
  ASSERT_TRUE(
      proc.Process("drain /nonexistent-dir/never.snap", &resp, &quit));
  ASSERT_TRUE(core::StartsWith(resp, "err IoError ")) << resp;
  EXPECT_FALSE(server.draining());

  // Still serving: pushes are admitted, opens are admitted.
  ASSERT_TRUE(proc.Process(PushCmd(0, 2, 4), &resp, &quit));
  EXPECT_EQ(resp, "ok push 0");
  ASSERT_TRUE(proc.Process("open", &resp, &quit));
  EXPECT_EQ(resp, "ok open 1 tier=IVMM");

  // The shutdown drain (what lhmm_serve runs at EOF with --snapshot) now
  // completes, and the snapshot restores the session it would have lost.
  const std::string path = ::testing::TempDir() + "/eof_drain.snap";
  ASSERT_TRUE(proc.Process("drain " + path, &resp, &quit));
  ASSERT_EQ(resp, "ok drain " + path);
  EXPECT_TRUE(server.draining());

  core::Result<std::unique_ptr<srv::MatchServer>> restored =
      srv::MatchServer::Restore(path, Tiers(), Config(1));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_sessions(), 2);
  EXPECT_TRUE((*restored)->SessionStatus(0).ok());
}

// ---------------------------------------------------------------------------
// fd exhaustion: the EMFILE accept storm, driven by an injected io::FaultEnv.
// ---------------------------------------------------------------------------

TEST_F(NetServeTest, EmfileAcceptIsShedViaTheReserveFd) {
  // The first accept attempt fails EMFILE; the retry after surrendering the
  // reserve fd succeeds. The pending connection must be accepted and
  // immediately closed — a clean EOF for the peer instead of rotting in the
  // backlog until its connect timeout.
  io::FaultEnv fenv;
  io::EnvFaultRule rule;
  rule.op = io::EnvOp::kAccept;
  rule.at_count = 1;
  rule.repeat = 1;
  rule.fault_errno = EMFILE;
  fenv.AddRule(rule);

  RunningServer rs;
  srv::NetServerConfig net_config;
  net_config.env = &fenv;
  rs.Start(Tiers(), Config(1), net_config);
  if (HasFatalFailure()) return;

  NetClient shed;
  ASSERT_TRUE(shed.Connect(rs.net->port()));
  EXPECT_TRUE(shed.WaitForEof()) << "the shed connection must close cleanly";

  // The storm is over (the rule fired its once): a new connection is served
  // normally.
  NetClient fresh;
  ASSERT_TRUE(fresh.Connect(rs.net->port()));
  EXPECT_TRUE(core::StartsWith(fresh.Cmd("pid"), "ok pid "));

  const srv::NetMetrics m = rs.Stop();
  EXPECT_EQ(m.accepted_shed, 1);
  EXPECT_EQ(m.accepted, 1) << "only the post-storm connection was admitted";
}

TEST_F(NetServeTest, SustainedEmfileStormDoesNotBusySpinAndRecovers) {
  // EMFILE forever: even the reserve-fd retry fails, so the server can make
  // no progress at all. The listen fd stays readable the whole time — the
  // regression this guards against is the accept loop turning into a hot
  // poll() spin. The loop must instead pause the listener and keep waking at
  // its normal poll cadence.
  io::FaultEnv fenv;
  io::EnvFaultRule rule;
  rule.op = io::EnvOp::kAccept;
  rule.at_count = 1;
  rule.repeat = -1;
  rule.fault_errno = EMFILE;
  fenv.AddRule(rule);

  RunningServer rs;
  srv::NetServerConfig net_config;
  net_config.env = &fenv;
  rs.Start(Tiers(), Config(1), net_config);
  if (HasFatalFailure()) return;

  // The connection lands in the kernel backlog (connect succeeds) but the
  // server cannot accept it while starved.
  NetClient waiting;
  ASSERT_TRUE(waiting.Connect(rs.net->port()));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // fds free up: the backlogged connection is finally accepted and served.
  fenv.ClearRules();
  EXPECT_TRUE(core::StartsWith(waiting.Cmd("pid"), "ok pid "));

  const srv::NetMetrics m = rs.Stop();
  EXPECT_GT(m.accept_failures, 0);
  EXPECT_EQ(m.accepted, 1);
  // ~400ms of storm at poll_interval_ms=20 is ~20 wakeups plus scheduling
  // slop; a busy spin would rack up tens of thousands. The bound is loose on
  // purpose — it catches the spin, not the exact cadence.
  EXPECT_LT(m.poll_wakeups, 400) << "accept loop busy-spun under EMFILE";
}

}  // namespace
}  // namespace lhmm
