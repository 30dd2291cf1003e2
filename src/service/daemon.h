/// \file daemon.h
/// ServiceDaemon — the long-lived sampling service process behind
/// `bgls_serve` (tools/): a JobScheduler fronted by an ndjson socket
/// protocol (service/protocol.h) over a Unix-domain or TCP endpoint.
///
/// The daemon is an op table over the shared line server
/// (service/line_server.h), which owns the acceptor, the per-connection
/// handler threads, dispatch, the error slugs, request metrics and the
/// `logs`/`shutdown` ops. The daemon is embeddable: tests and
/// examples/service_client.cpp start one in-process with start()/stop()
/// and drive it through ServiceClient over a real socket, which is
/// exactly the code path the standalone binary runs.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/journal.h"
#include "service/line_server.h"
#include "service/report.h"
#include "service/scheduler.h"
#include "service/socket.h"
#include "util/json_parser.h"

namespace bgls::service {

/// Construction knobs for the daemon.
struct DaemonOptions {
  /// Where to listen (unix:/path or tcp:host:port; tcp port 0 picks an
  /// ephemeral port, readable from endpoint() after start()).
  Endpoint endpoint;
  /// Scheduler sizing (runner threads, queue depth).
  SchedulerOptions scheduler{};
  /// Write-ahead journal path (service/journal.h); empty = no journal.
  /// start() replays it (answering queries for journaled terminal jobs
  /// from memory, re-enqueueing incomplete jobs from their last
  /// checkpoint), compacts it, then appends every subsequent
  /// submit/terminal/checkpoint/evict event fsync-before-ack.
  std::string journal_path;
  /// Request lines slower than this emit a structured warn log line
  /// (obs/log.h) carrying the op and, when resolvable, the job's trace
  /// id. 0 disables. Wait/stream ops include time spent following the
  /// job, so thresholds below the typical job runtime flag every wait.
  std::uint64_t slow_request_ms = 0;
};

/// The service process: scheduler + journal + the line server's op table.
class ServiceDaemon {
 public:
  explicit ServiceDaemon(DaemonOptions options);

  /// stop()s if still running.
  ~ServiceDaemon();

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  /// Binds the endpoint and starts accepting. Throws IoError on bind
  /// failures.
  void start();

  /// Stops accepting, disconnects every client, and joins all handler
  /// threads. Jobs already submitted keep their state (the scheduler
  /// lives until destruction). Idempotent.
  void stop();

  /// Blocks until a client sent the `shutdown` op (or stop() ran).
  /// The bgls_serve main loop: start(); wait_for_shutdown(); stop().
  void wait_for_shutdown();

  /// Makes wait_for_shutdown() return — the graceful-exit trigger for
  /// signal handlers (bgls_serve's SIGTERM/SIGINT watcher).
  void request_shutdown();

  /// The bound endpoint (TCP: with the resolved ephemeral port).
  [[nodiscard]] const Endpoint& endpoint() const {
    return server_.endpoint();
  }

  [[nodiscard]] JobScheduler& scheduler() { return scheduler_; }

 private:
  /// The op table; responses (and stream progress lines) are written to
  /// the connection socket directly.
  [[nodiscard]] LineServer::Config line_server_config();

  using Request = LineServer::Request;
  void handle_submit(const Request& request);
  void handle_status(const Request& request);
  void handle_cancel(const Request& request);
  /// `result`, or `wait` (blocks until terminal or timeout_ms).
  void handle_result_or_wait(const Request& request);
  void handle_stream(const Request& request);
  void handle_stats(const Request& request);
  /// Prometheus text exposition of the process-wide telemetry registry,
  /// embedded as the "metrics" string field of the response line.
  void handle_metrics(const Request& request);
  /// The job's span tree ({"trace_id":...,"spans":[...]}); a fleet
  /// front stitches these worker spans with its own placement spans.
  void handle_trace(const Request& request);

  /// Sends the terminal-state response for a job ("result" shape: the
  /// canonical report on kDone, an error code otherwise). `type` tags
  /// stream frames ("result") and is omitted when empty.
  void send_result(const JobInfo& info, Socket& socket,
                   const std::string& type);

  /// A terminal job's answer: the canonical report on kDone, the error
  /// otherwise. Jobs restored from the journal at start() keep one, so
  /// status/result/wait/stream answer for their ids without re-running.
  struct ReplayedResult {
    JobState state = JobState::kDone;
    std::string error;
    std::string backend;
    std::string selection_reason;
    std::string report;
  };
  /// Fills `out` for a terminal job; false when a done job's report
  /// context was already evicted.
  bool terminal_result(const JobInfo& info, ReplayedResult& out) const;
  /// Writes `result` in the "result" shape for job `id`.
  static void send_terminal(Socket& socket, const std::string& type,
                            std::uint64_t id, const ReplayedResult& result);
  /// The journal's "terminal" record for `result`.
  static std::string terminal_record(std::uint64_t id,
                                     const ReplayedResult& result);

  /// Installs the journal event hooks on options_.scheduler (must run
  /// before scheduler_ is constructed — see the member order below).
  [[nodiscard]] SchedulerOptions& hooked_scheduler_options();
  /// Replays + compacts the journal, opens it for appending, and
  /// re-enqueues incomplete jobs (called from start()).
  void replay_journal();
  /// Answers a request for a journal-replayed terminal job; false when
  /// the id is not one.
  bool send_replayed(std::uint64_t id, Socket& socket,
                     const std::string& type);
  bool find_replayed(std::uint64_t id, ReplayedResult& out) const;
  void journal_terminal(const JobInfo& info);

  DaemonOptions options_;
  /// Declared before scheduler_ so it outlives it: scheduler runner
  /// threads append through the hooks until ~JobScheduler joins them.
  Journal journal_;
  JobScheduler scheduler_;

  /// Report contexts per job (the submit knobs echoed into the
  /// canonical report), kept daemon-side so `result` can rebuild the
  /// byte-exact bgls_run output.
  mutable std::mutex contexts_mutex_;
  std::map<std::uint64_t, RunReportContext> contexts_;

  /// Journal-replayed terminal jobs (start() fills it; read-mostly).
  mutable std::mutex replayed_mutex_;
  std::map<std::uint64_t, ReplayedResult> replayed_;

  /// Last: its handler threads use every member above, and stop()
  /// joins them before any of those is destroyed.
  LineServer server_;
};

}  // namespace bgls::service
