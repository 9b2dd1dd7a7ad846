// lhmm_serve — the serving front end as a process: srv::MatchServer behind a
// line protocol on stdin (the default), or behind a real TCP listener with
// --listen HOST:PORT, with graceful drain on SIGTERM. One line in, one line
// out, so it scripts from a shell, a test harness, or a socket client:
//
//   open                          -> ok open <id> tier=<name>
//   push <id> <x> <y> <t> <tower> -> ok push <id>
//   finish <id>                   -> ok finish <id>
//   deadline <id> <tick>          -> ok deadline <id>
//   tick <now>                    -> ok tick <clock> tier=<name>
//   await                         -> ok await            (engine barrier)
//   committed <id>                -> ok committed <id> <n> <seg...>
//   status <id>                   -> ok status <id> <state> <code> pushed=<n>
//   status                        -> ok status <key=value ...>  (server-level:
//                                    journal segments/bytes, last durable
//                                    tick, snapshot generation)
//   stats                         -> ok stats <key=value ...>
//   health                        -> ok health tier=<name> clock=<n>
//                                    durable=<0|1> gen=<n> live=<n>
//   pid                           -> ok pid <pid> uptime=<secs>
//   checkpoint                    -> ok checkpoint gen=<n>  (durable mode)
//   drain <path>                  -> ok drain <path>     (stops admission)
//   quit
//
// Every refusal is a typed "err <Code> <message>" line — admission sheds,
// deadline expiry, quarantine — so clients can implement retry policies
// without parsing prose. SIGTERM (or EOF with --snapshot set) drains every
// live session to the snapshot file; a later run with --restore <file>
// resumes those sessions byte-identically.
//
// Crash durability: --durable <dir> recovers the server from the directory's
// newest valid snapshot plus write-ahead journal suffix (srv::Recover), then
// journals every accepted event there. --fsync record|tick|none picks the
// group-commit policy, --segment-bytes the journal rotation size,
// --keep-snapshots the generations kept, and --checkpoint-every N writes a
// snapshot and compacts the journal every N ticks (0 = only on demand via
// the checkpoint verb and at shutdown). kill -9 at any point loses at most
// the events past the last fsync; a restart with the same --durable dir
// replays the rest byte-identically.
//
// Disk exhaustion: --disk-low-bytes N arms a free-space watermark on the
// durable directory's filesystem — below it the server enters an explicit
// degraded-nondurable mode (journaling suspended, pushes acked DataLoss under
// --fsync record, checkpoints refused typed) instead of tearing journal
// writes at ENOSPC. Once free space climbs back over --disk-high-bytes
// (default 2x the low watermark) for two consecutive ticks, durability
// restores itself with a fresh checkpoint. The status verb reports
// degraded=, events_not_journaled=, journal_sealed=, journal_wedged= and
// disk_free= so operators and the chaos gauntlet can watch the transitions.
//
// TCP transport: --listen HOST:PORT serves the same verbs over per-connection
// length-prefixed frames (src/srv/frame.h documents the wire format) through
// a poll-driven accept loop — one request frame in, one response frame out,
// in order, per connection. Slow readers get typed kResourceExhausted rejects
// once their write queue fills (--max-write-queue bytes), half-open peers are
// reaped after --conn-ttl idle logical ticks, and SIGTERM/SIGINT stops
// accepting, flushes every queued response, then runs the same
// checkpoint/snapshot shutdown as stdin mode. --port-file PATH publishes the
// bound port (useful with --listen 127.0.0.1:0) for test harnesses and for
// srv::Supervisor health probes; --pid-file PATH publishes the process id the
// same atomic-rename way; --reuseport 1 binds with SO_REUSEPORT so N workers
// under lhmm_fleet can share one port.
//
// The road network is a generated grid (--grid-rows/--grid-cols/--spacing)
// or a dataset bundle (--data <prefix>). Tiers: with --data and --model, the
// full paper ladder LHMM -> IVMM -> STM; otherwise IVMM -> STM.

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/strings.h"
#include "hmm/classic_models.h"
#include "io/dataset_io.h"
#include "lhmm/lhmm_matcher.h"
#include "lhmm/trainer.h"
#include "matchers/classic_matchers.h"
#include "matchers/ivmm.h"
#include "network/faulty_router.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "srv/match_server.h"
#include "srv/net_server.h"
#include "srv/recovery.h"
#include "store/generations.h"
#include "store/pinned_matcher.h"

using namespace lhmm;  // NOLINT(build/namespaces): CLI driver.
namespace L = ::lhmm::lhmm;

namespace {

volatile std::sig_atomic_t g_terminate = 0;
std::atomic<bool> g_stop{false};  // Lock-free: safe to set from the handler.
void OnTerminate(int) {
  g_terminate = 1;
  g_stop.store(true, std::memory_order_relaxed);
}

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
                const std::string& key, const std::string& fallback = "") {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int GetInt(const std::map<std::string, std::string>& args,
           const std::string& key, int fallback) {
  int v = 0;
  return core::ParseInt(Get(args, key), &v) ? v : fallback;
}

double GetDouble(const std::map<std::string, std::string>& args,
                 const std::string& key, double fallback) {
  double v = 0.0;
  return core::ParseDouble(Get(args, key), &v) ? v : fallback;
}

/// Splits "HOST:PORT" on the last colon. Returns false on a malformed spec.
bool ParseHostPort(const std::string& spec, std::string* host, int* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = spec.substr(0, colon);
  if (*host == "localhost") *host = "127.0.0.1";
  return core::ParseInt(spec.substr(colon + 1), port) && *port >= 0 &&
         *port <= 65535;
}

/// Publishes one integer (--port-file, --pid-file): written to a temp file
/// then renamed, so a waiting reader never sees a partial write.
bool WriteNumberFile(const std::string& path, long long value) {
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "%lld\n", value);
  fclose(f);
  return rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client vanishing mid-write must surface as a typed EPIPE, never kill
  // the worker (MSG_NOSIGNAL covers the frame path; this covers stdio).
  std::signal(SIGPIPE, SIG_IGN);
  const auto args = ParseArgs(argc, argv);

  // Published before the (possibly slow) recovery so a supervisor
  // can address the worker without racing startup.
  const std::string pid_file = Get(args, "pid-file");
  if (!pid_file.empty() &&
      !WriteNumberFile(pid_file, static_cast<long long>(getpid()))) {
    fprintf(stderr, "error: cannot write --pid-file %s\n", pid_file.c_str());
    return 1;
  }

  // --- The world: a network, an index, and a (possibly faulty) router. ---
  // --store ROOT maps the published generation of a versioned asset store
  // (built by lhmm_store) as the shared data plane: the network and grid
  // index come out of one PROT_READ mmap whose pages N workers share
  // through the page cache, and the manager backs the swap/rollback verbs
  // plus the store_* status fields. Without it the world is owned: generated
  // grid (--grid-rows/--grid-cols/--spacing) or a dataset bundle (--data).
  network::RoadNetwork net;
  std::vector<geo::Point> towers;
  io::DatasetBundle bundle;
  std::shared_ptr<L::LhmmModel> model;
  std::unique_ptr<store::GenerationManager> store_mgr;
  store::GenerationHandle store_gen0;
  const std::string store_root = Get(args, "store");
  const std::string data = Get(args, "data");
  if (!store_root.empty()) {
    if (!data.empty()) {
      fprintf(stderr, "error: --store and --data are mutually exclusive\n");
      return 1;
    }
    auto mgr = store::GenerationManager::Open(store_root);
    if (!mgr.ok()) {
      fprintf(stderr, "error: %s\n", mgr.status().ToString().c_str());
      return 1;
    }
    store_mgr = std::move(*mgr);
    store_gen0 = store_mgr->Current();
    auto loaded_net = store_gen0->store->LoadNetwork();
    if (!loaded_net.ok()) {
      fprintf(stderr, "error: %s\n", loaded_net.status().ToString().c_str());
      return 1;
    }
    net = std::move(*loaded_net);
    fprintf(stderr,
            "mapped store %s gen %" PRId64 " (%" PRId64 " bytes)\n",
            store_root.c_str(), store_gen0->generation,
            store_gen0->store->bytes());
  } else if (!data.empty()) {
    auto loaded = io::LoadDatasetBundle(data);
    if (!loaded.ok()) {
      fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    bundle = std::move(loaded).value();
    net = std::move(bundle.net);
  } else {
    net = network::GenerateGridNetwork(GetInt(args, "grid-rows", 10),
                                       GetInt(args, "grid-cols", 10),
                                       GetDouble(args, "spacing", 200.0));
  }
  std::unique_ptr<network::GridIndex> index_owned;
  if (store_mgr != nullptr) {
    auto loaded = store_gen0->store->LoadGridIndex(&net);
    if (!loaded.ok()) {
      fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    index_owned = std::move(*loaded);
  } else {
    index_owned = std::make_unique<network::GridIndex>(&net, 300.0);
  }
  network::GridIndex& index = *index_owned;
  network::FaultConfig faults;
  faults.route_failure_rate = GetDouble(args, "route-failure-rate", 0.0);
  faults.latency_rate = GetDouble(args, "latency-rate", 0.0);
  faults.seed = static_cast<uint64_t>(GetInt(args, "seed", 1));
  network::FaultyRouter faulty(&net, faults);

  // --- The degrade ladder. ---
  std::vector<srv::TierSpec> tiers;
  const std::string model_path = Get(args, "model");
  if (!data.empty() && !model_path.empty()) {
    L::TrainInputs inputs;
    inputs.net = &net;
    inputs.index = &index;
    inputs.num_towers = static_cast<int>(bundle.towers.size());
    inputs.train = &bundle.train;
    auto loaded = L::LoadLhmm(inputs, model_path);
    if (!loaded.ok()) {
      fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    model = *loaded;
    const network::RoadNetwork* n = &net;
    const network::GridIndex* idx = &index;
    tiers.push_back({"LHMM", [n, idx, model] {
                       return std::make_unique<L::LhmmMatcher>(n, idx, model);
                     }});
  }
  {
    const network::RoadNetwork* n = &net;
    const network::GridIndex* idx = &index;
    hmm::ClassicModelConfig models;
    tiers.push_back({"IVMM", [n, idx, models] {
                       return std::make_unique<matchers::IvmmMatcher>(n, idx,
                                                                      models, 10);
                     }});
    hmm::EngineConfig stm_engine;
    stm_engine.k = 8;
    tiers.push_back({"STM", [n, idx, models, stm_engine] {
                       return std::make_unique<matchers::StmMatcher>(
                           n, idx, models, stm_engine);
                     }});
  }
  if (store_mgr != nullptr) {
    // Every matcher clone pins the generation that is current when its
    // session opens: a swap flips new sessions to the new mapping while
    // in-flight sessions keep reading the one they started on, and an old
    // generation is unmapped exactly when its last pinned clone is destroyed.
    store::GenerationManager* mgr = store_mgr.get();
    for (srv::TierSpec& t : tiers) {
      const matchers::MatcherFactory inner = t.factory;
      t.factory = [mgr, inner] {
        return std::make_unique<store::PinnedMatcher>(mgr->Current(), inner());
      };
    }
    // Startup materialization is done; drop the bootstrap pin so the initial
    // generation's lifetime too is governed only by the sessions holding it.
    store_gen0.reset();
  }

  // --- The server. ---
  srv::ServerConfig config;
  config.engine.num_threads = GetInt(args, "threads", 4);
  config.engine.lag = GetInt(args, "lag", 8);
  config.engine.shared_router = &faulty;
  config.engine.max_inbox = GetInt(args, "max-inbox", 256);
  config.engine.session_ttl = GetInt(args, "ttl", 0);
  config.admission.open_rate_per_tick = GetDouble(args, "open-rate", 0.0);
  config.admission.open_burst = GetDouble(args, "open-burst", 8.0);
  config.admission.push_rate_per_tick = GetDouble(args, "push-rate", 0.0);
  config.admission.push_burst = GetDouble(args, "push-burst", 64.0);
  config.admission.max_queue_depth = GetInt(args, "max-queue", 0);
  config.admission.max_live_sessions = GetInt(args, "max-sessions", 0);
  config.degrade.overload_queue_depth = GetInt(args, "overload-queue", 0);
  config.degrade.overload_shed = GetInt(args, "overload-shed", 0);
  config.degrade.overload_route_failures =
      GetInt(args, "overload-route-failures", 0);
  config.degrade.downgrade_after = GetInt(args, "downgrade-after", 2);
  config.degrade.recover_after = GetInt(args, "recover-after", 4);
  config.watchdog.stall_ticks = GetInt(args, "stall-ticks", 0);
  config.default_deadline_ticks = GetInt(args, "deadline-ticks", 0);
  config.fault_signal = &faulty;

  srv::DurabilityConfig durable;
  durable.dir = Get(args, "durable");
  if (!io::ParseFsyncPolicy(Get(args, "fsync", "tick"),
                            &durable.journal.fsync)) {
    fprintf(stderr, "error: --fsync must be record, tick, or none\n");
    return 1;
  }
  durable.journal.segment_bytes = GetInt(args, "segment-bytes", 4 << 20);
  durable.keep_snapshots = GetInt(args, "keep-snapshots", 2);
  // Disk-space watermarks: below --disk-low-bytes free the server enters
  // degraded-nondurable mode (journaling suspended, pushes ack DataLoss under
  // --fsync record) instead of tearing writes at ENOSPC; durability restores
  // itself with a fresh checkpoint once free space clears --disk-high-bytes.
  durable.disk_guard.low_watermark_bytes = atoll(
      Get(args, "disk-low-bytes", "0").c_str());
  durable.disk_guard.high_watermark_bytes = args.count("disk-high-bytes")
      ? atoll(Get(args, "disk-high-bytes").c_str())
      : durable.disk_guard.low_watermark_bytes * 2;
  const int checkpoint_every = GetInt(args, "checkpoint-every", 0);

  std::unique_ptr<srv::MatchServer> server;
  const std::string restore = Get(args, "restore");
  if (!durable.dir.empty()) {
    srv::RecoveryReport report;
    auto recovered = srv::Recover(tiers, config, durable, &report);
    if (!recovered.ok()) {
      fprintf(stderr, "error: %s\n", recovered.status().ToString().c_str());
      return 1;
    }
    server = std::move(recovered).value();
    fprintf(stderr,
            "recovered from %s (gen %d): %" PRId64 " of %" PRId64
            " journal records replayed, %" PRId64 " skipped%s%s\n",
            report.snapshot_path.empty() ? "(fresh)"
                                         : report.snapshot_path.c_str(),
            report.snapshot_generation, report.journal_replayed,
            report.journal_records, report.replay_skipped,
            report.journal_torn_tail ? ", torn tail repaired" : "",
            report.journal_corruption.empty() ? "" : ", corruption truncated");
    if (!report.journal_corruption.empty()) {
      fprintf(stderr, "journal corruption: %s\n",
              report.journal_corruption.c_str());
    }
    for (const std::string& skipped : report.snapshots_skipped) {
      fprintf(stderr, "snapshot skipped: %s\n", skipped.c_str());
    }
  } else if (!restore.empty()) {
    auto restored = srv::MatchServer::Restore(restore, tiers, config);
    if (!restored.ok()) {
      fprintf(stderr, "error: %s\n", restored.status().ToString().c_str());
      return 1;
    }
    server = std::move(restored).value();
    fprintf(stderr, "restored %" PRId64 " sessions from %s\n",
            server->num_sessions(), restore.c_str());
  } else {
    server = std::make_unique<srv::MatchServer>(tiers, config);
  }

  // SIGTERM/SIGINT begin a graceful drain instead of killing mid-flight
  // sessions. No SA_RESTART: the blocking stdin read returns so the loop can
  // see the flag.
  struct sigaction sa = {};
  sa.sa_handler = OnTerminate;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  const std::string snapshot = Get(args, "snapshot");
  setvbuf(stdout, nullptr, _IOLBF, 0);
  fprintf(stderr, "lhmm_serve: %zu tiers, tier0=%s; ready\n", tiers.size(),
          server->active_tier_name().c_str());

  // Both transports dispatch through the same CommandProcessor, so the TCP
  // path answers byte-identically to the stdin path by construction.
  srv::CommandOptions cmd_options;
  cmd_options.checkpoint_every = checkpoint_every;
  cmd_options.store = store_mgr.get();

  const std::string listen = Get(args, "listen");
  if (!listen.empty()) {
    // --- TCP mode: length-prefixed frames over a poll-driven accept loop. ---
    srv::NetServerConfig net;
    if (!ParseHostPort(listen, &net.host, &net.port)) {
      fprintf(stderr, "error: --listen wants HOST:PORT, got '%s'\n",
              listen.c_str());
      return 1;
    }
    net.conn_idle_ttl = GetInt(args, "conn-ttl", 0);
    net.max_write_queue_bytes =
        static_cast<size_t>(GetInt(args, "max-write-queue", 4 << 20));
    net.reuse_port = GetInt(args, "reuseport", 0) != 0;
    srv::NetServer net_server(server.get(), cmd_options, net);
    const core::Status bound = net_server.Listen();
    if (!bound.ok()) {
      fprintf(stderr, "error: %s\n", bound.ToString().c_str());
      return 1;
    }
    const std::string port_file = Get(args, "port-file");
    if (!port_file.empty() &&
        !WriteNumberFile(port_file, net_server.port())) {
      fprintf(stderr, "error: cannot write --port-file %s\n",
              port_file.c_str());
      return 1;
    }
    fprintf(stderr, "listening on %s:%d\n", net.host.c_str(),
            net_server.port());
    const core::Status ran = net_server.Run(g_stop);
    if (!ran.ok()) {
      fprintf(stderr, "error: %s\n", ran.ToString().c_str());
      return 1;
    }
    const srv::NetMetrics nm = net_server.metrics();
    fprintf(stderr,
            "net: accepted=%" PRId64 " closed=%" PRId64 " frames_in=%" PRId64
            " frames_out=%" PRId64 " shed=%" PRId64 " codec_errors=%" PRId64
            " reaped_idle=%" PRId64 " disconnects=%" PRId64 "\n",
            nm.accepted, nm.closed, nm.frames_in, nm.frames_out,
            nm.frames_shed, nm.codec_errors, nm.reaped_idle,
            nm.peer_disconnects);
  } else {
    // --- stdin mode (the default): one line in, one line out. ---
    srv::CommandProcessor processor(server.get(), cmd_options);
    std::string line;
    std::string response;
    bool quit = false;
    while (!quit && !g_terminate && std::getline(std::cin, line)) {
      if (processor.Process(line, &response, &quit)) {
        printf("%s\n", response.c_str());
      }
    }
  }

  // Graceful shutdown. Durable mode checkpoints in place (the durable dir IS
  // the snapshot); otherwise drain to --snapshot when one was given.
  if (server->durable()) {
    const core::Status st = server->Checkpoint();
    if (!st.ok()) {
      fprintf(stderr, "shutdown checkpoint failed: %s\n",
              st.ToString().c_str());
      return 1;
    }
    fprintf(stderr, "checkpointed to %s (gen %d)\n", durable.dir.c_str(),
            server->durability_status().snapshot_generation);
  }
  if (!snapshot.empty() && !server->draining()) {
    const core::Status st = server->Drain(snapshot);
    if (!st.ok()) {
      fprintf(stderr, "drain failed: %s\n", st.ToString().c_str());
      return 1;
    }
    fprintf(stderr, "drained to %s\n", snapshot.c_str());
  }
  server->Barrier();
  return 0;
}
