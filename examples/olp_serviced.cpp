// olp_serviced: the resident layout service daemon.
//
// Speaks the JSONL protocol of service/request.hpp on stdin/stdout — one
// request per line in, one JSON event per line out. Run it interactively:
//
//   $ build/examples/olp_serviced
//   {"op":"ping"}
//   {"event":"pong"}
//   {"op":"submit","client":"alice","circuit":"vco","mode":"conventional"}
//   {"id":"r1","event":"accepted","queue_depth":1}
//   {"id":"r1","event":"done","status":"succeeded",...}
//   {"op":"drain"}
//   {"event":"drained","cancelled":false}
//
// or drive it from scripts (tests/run_service_smoke.sh pipes a FIFO in).
// SIGTERM/SIGINT trigger a graceful drain: in-flight and queued jobs
// finish, the cache snapshot is flushed, then the process exits 0. SIGHUP
// (or the {"op":"reload"} verb) hot-reloads configuration WITHOUT dropping
// connections or queued work: the OLP_SERVICE_CONFIG file (KEY=VALUE lines
// using the same OLP_* names) is re-read and applied to queue bounds,
// worker count, rate limits, snapshot/metrics cadence and transport limits.
//
// Network transports (POSIX): when OLP_SERVICE_SOCKET names a unix-domain
// path and/or OLP_SERVICE_TCP names a loopback port (0 = ephemeral), the
// daemon serves MANY concurrent connections through one poll-based
// supervisor (service/transport.hpp) speaking the same JSONL protocol —
// per-connection framing bounds, slow-loris read deadlines, and
// connection-stable identities feeding the per-client quotas and token
// buckets. Each listener announces itself on stdout:
//   {"event":"listening","transport":"tcp","port":<actual>}
// If an explicitly requested transport cannot start, the daemon reports
// {"event":"socket_error",...} on stderr and exits NON-ZERO — a supervisor
// that asked for a socket must not end up with a silently stdin-only
// service. stdin remains the primary transport; EOF there drains the
// daemon.
//
// Durability: OLP_SERVICE_JOURNAL names the request journal. Accepted
// submits are journaled before "accepted" is emitted; after kill -9 the
// next start replays unfinished entries (idempotency keys deduplicated).
//
// Configuration is entirely environment-driven (see util/env.hpp):
// OLP_SERVICE_WORKERS, OLP_SERVICE_QUEUE_DEPTH, OLP_SERVICE_CLIENT_QUEUE,
// OLP_SERVICE_RETRIES, OLP_SERVICE_SNAPSHOT, OLP_SERVICE_SNAPSHOT_EVERY,
// OLP_SERVICE_JOURNAL, OLP_SERVICE_RATE, OLP_SERVICE_RATE_BURST,
// OLP_SERVICE_READ_TIMEOUT_MS, OLP_SERVICE_MAX_LINE, OLP_SERVICE_MAX_CONNS,
// OLP_SERVICE_CONFIG, OLP_CACHE_MAX_ENTRIES, OLP_THREADS. Live metrics:
// OLP_OBS=1 turns on the process-wide obs registry (the {"op":"metrics"}
// verb dumps it), and OLP_METRICS_PATH appends a metrics JSONL line every
// OLP_METRICS_EVERY completed jobs and at drain.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include <olp/olp.hpp>

namespace {

std::atomic<bool> g_drain_requested{false};
std::atomic<bool> g_reload_requested{false};
/// Write end of the self-pipe that wakes the stdin read (FdInputBuf).
int g_wake_w = -1;

void wake_intake() {
  const int saved = errno;
  if (g_wake_w >= 0) {
    const char byte = 1;
    (void)::write(g_wake_w, &byte, 1);
  }
  errno = saved;
}
void on_terminate(int) {
  g_drain_requested.store(true);
  wake_intake();
}
void on_reload(int) {
  g_reload_requested.store(true);
  wake_intake();
}

/// Reads a KEY=VALUE config file (OLP_* names, '#' comments) into numeric
/// overrides. Unknown keys are ignored; malformed lines are skipped — a bad
/// config file degrades to a partial reload, never a crash.
std::map<std::string, double> read_config_file(const std::string& path) {
  // OLP_* environment name -> reload() knob name.
  static const std::map<std::string, std::string> kKnobs = {
      {"OLP_SERVICE_QUEUE_DEPTH", "queue_depth"},
      {"OLP_SERVICE_CLIENT_QUEUE", "client_queue"},
      {"OLP_SERVICE_WORKERS", "workers"},
      {"OLP_SERVICE_SNAPSHOT_EVERY", "snapshot_every"},
      {"OLP_SERVICE_RETRIES", "retries"},
      {"OLP_METRICS_EVERY", "metrics_every"},
      {"OLP_SERVICE_RATE", "rate"},
      {"OLP_SERVICE_RATE_BURST", "burst"},
      {"OLP_SERVICE_READ_TIMEOUT_MS", "read_timeout_ms"},
      {"OLP_SERVICE_MAX_CONNS", "max_connections"},
      {"OLP_SERVICE_MAX_LINE", "max_line_bytes"},
  };
  std::map<std::string, double> values;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const auto it = kKnobs.find(line.substr(0, eq));
    if (it == kKnobs.end()) continue;
    try {
      values[it->second] = std::stod(line.substr(eq + 1));
    } catch (...) {
      // skip malformed value
    }
  }
  return values;
}

/// Applies a SIGHUP reload: service knobs plus transport limits, sourced
/// from the OLP_SERVICE_CONFIG file (the process environment cannot change
/// after exec, so a runtime reconfiguration needs a file to read).
void apply_reload(olp::service::LayoutService* service,
                  olp::service::TransportSupervisor* transport,
                  const olp::service::TransportOptions& base) {
  const std::string config = olp::env::str("OLP_SERVICE_CONFIG");
  std::map<std::string, double> values;
  if (!config.empty()) values = read_config_file(config);
  service->reload(values);
  if (transport->running()) {
    long timeout = base.read_timeout_ms;
    std::size_t conns = base.max_connections;
    std::size_t line_bytes = base.max_line_bytes;
    const auto find = [&values](const char* key, double* out) {
      const auto it = values.find(key);
      if (it == values.end()) return false;
      *out = it->second;
      return true;
    };
    double v = 0.0;
    if (find("read_timeout_ms", &v)) timeout = static_cast<long>(v);
    if (find("max_connections", &v)) conns = static_cast<std::size_t>(v);
    if (find("max_line_bytes", &v)) line_bytes = static_cast<std::size_t>(v);
    transport->reload_limits(timeout, conns, line_bytes);
  }
  std::cerr << "{\"event\":\"reloaded\",\"source\":\""
            << olp::jsonl::escape(config.empty() ? "env" : config) << "\"}\n";
}

}  // namespace

int main() {
  // SIGTERM must end the stdin read so the main loop can drain, and SIGHUP
  // must end it so the reload hook runs, whenever they land: before the
  // read blocks as well as during it. The handlers write to a self-pipe
  // that the stdin buffer polls next to stdin.
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    std::cerr << "{\"event\":\"pipe_error\"}\n";
    return 1;
  }
  // A full pipe already wakes the reader; the handler must never block.
  ::fcntl(wake[1], F_SETFL, ::fcntl(wake[1], F_GETFL) | O_NONBLOCK);
  g_wake_w = wake[1];
  struct sigaction sa = {};
  sa.sa_handler = on_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction hup = {};
  hup.sa_handler = on_reload;
  ::sigaction(SIGHUP, &hup, nullptr);
  // A client vanishing mid-write must be an EPIPE errno, not process death.
  std::signal(SIGPIPE, SIG_IGN);

  const olp::tech::Technology technology = olp::tech::make_default_finfet_tech();
  olp::service::ServiceOptions options;
  olp::service::LayoutService service(technology, options);
  service.start();

  // Network transports. Both are optional; requesting one that cannot
  // start is a hard error (exit non-zero) — see the file comment.
  olp::service::TransportOptions transport_options;
  transport_options.unix_path = olp::env::str("OLP_SERVICE_SOCKET");
  transport_options.tcp_port =
      static_cast<int>(olp::env::integer("OLP_SERVICE_TCP", -1));
  transport_options.max_line_bytes = static_cast<std::size_t>(olp::env::integer(
      "OLP_SERVICE_MAX_LINE",
      static_cast<long>(olp::service::kMaxRequestLineBytes)));
  transport_options.read_timeout_ms =
      olp::env::integer("OLP_SERVICE_READ_TIMEOUT_MS", 30000);
  transport_options.max_connections = static_cast<std::size_t>(
      olp::env::integer("OLP_SERVICE_MAX_CONNS", 64));

  olp::service::TransportSupervisor transport;
  const bool transport_requested = !transport_options.unix_path.empty() ||
                                   transport_options.tcp_port >= 0;
  if (transport_requested) {
    std::string error;
    const bool ok = transport.start(
        transport_options,
        [&service](const std::string& identity, const std::string& line,
                   const olp::service::TransportSupervisor::Emit& emit) {
          if (!service.handle_line(identity, line, emit)) {
            // A drain/shutdown verb arrived over a socket; the service has
            // drained. Nudge the stdin loop so the process exits too.
            g_drain_requested.store(true);
            ::raise(SIGTERM);
          }
        },
        &error);
    if (!ok) {
      std::cerr << "{\"event\":\"socket_error\",\"error\":\""
                << olp::jsonl::escape(error) << "\"}\n";
      // The operator explicitly asked for this transport; running without
      // it would be a silent lie. Fail loudly instead.
      return 1;
    }
    if (!transport_options.unix_path.empty()) {
      std::cout << "{\"event\":\"listening\",\"transport\":\"unix\",\"path\":\""
                << olp::jsonl::escape(transport_options.unix_path) << "\"}\n"
                << std::flush;
    }
    if (transport_options.tcp_port >= 0) {
      std::cout << "{\"event\":\"listening\",\"transport\":\"tcp\",\"port\":"
                << transport.tcp_port() << "}\n"
                << std::flush;
    }
  }

  // serve() returns on stdin EOF, a drain/shutdown verb (here or over a
  // socket), or SIGTERM/SIGINT waking the read — and has drained the
  // service by then. SIGHUP lands in the hook: reload, keep serving.
  olp::service::FdInputBuf stdin_buf(STDIN_FILENO, wake[0]);
  std::istream in(&stdin_buf);
  service.serve(in, std::cout, [&] {
    if (g_reload_requested.exchange(false)) {
      apply_reload(&service, &transport, transport_options);
      return !g_drain_requested.load();
    }
    return false;  // SIGTERM/SIGINT/EOF: fall through to the drain path
  });

  // Transport lifetime counters on stderr before teardown — the smoke test
  // proves multi-client concurrency (max_active) and shed accounting here.
  if (transport_requested) {
    const olp::service::TransportStats ts = transport.stats();
    std::cerr << "{\"event\":\"transport_stats\",\"accepted\":" << ts.accepted
              << ",\"refused\":" << ts.refused
              << ",\"max_active\":" << ts.max_active
              << ",\"lines_dispatched\":" << ts.lines_dispatched
              << ",\"frames_oversized\":" << ts.frames_oversized
              << ",\"read_timeouts\":" << ts.read_timeouts
              << ",\"torn_frames_discarded\":" << ts.torn_frames_discarded
              << ",\"partial_writes\":" << ts.partial_writes
              << ",\"write_errors\":" << ts.write_errors << "}\n";
  }
  transport.stop();

  // Final stats on stderr — keeps stdout a pure JSONL event stream.
  std::cerr << service.stats().to_json() << "\n";
  return 0;
}
