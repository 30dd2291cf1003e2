/// \file fleet.h
/// FleetDaemon — a load-balancing front for N `bgls_serve` workers.
///
/// One fleet process listens on a single endpoint and speaks the exact
/// client protocol (service/protocol.h); behind it, each worker is an
/// independent bgls_serve daemon with its own scheduler, journal, and
/// telemetry. Horizontal scale without a shared-state control plane:
///
///  - `submit` is routed to the live, undrained worker with the fewest
///    in-flight fleet jobs (ties broken round-robin). The worker's job
///    id is mapped to a fleet-global id, so clients see one id space
///    regardless of placement. Determinism makes placement invisible:
///    the same submission returns a byte-identical report from every
///    worker.
///  - Job-addressed ops (`status`/`cancel`/`result`/`wait`/`stream`)
///    are proxied to the owning worker with the ids translated both
///    ways. Ops for jobs on a dead worker fail with the retryable
///    `worker_down` slug.
///  - `stats` aggregates every live worker's counters (summed, with
///    per-backend/per-tenant maps merged); `fleet` (a fleet-only op)
///    reports per-worker health/draining/in-flight.
///  - `drain`/`undrain` (fleet-only, {"worker":N}) stop/resume routing
///    *new* submissions to a worker; in-flight jobs keep being proxied,
///    so a drained worker can finish its work and be restarted without
///    failing clients.
///  - A health thread pings each worker's `stats` endpoint; a worker
///    that stops answering is marked dead (skipped for placement, its
///    jobs answer `worker_down`) and rejoins automatically when it
///    answers again.
///
/// `shutdown` stops the fleet front only — workers have their own
/// lifecycles (that is what draining is for).
///
/// The fleet is an op table over the shared line server
/// (service/line_server.h); each client connection's context holds its
/// proxy sockets to the workers.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "service/line_server.h"
#include "service/socket.h"
#include "util/json_parser.h"

namespace bgls::service {

/// Construction knobs for the fleet front.
struct FleetOptions {
  /// Where the fleet listens (the clients' single endpoint).
  Endpoint endpoint;
  /// The worker daemons' endpoints (at least one).
  std::vector<Endpoint> workers;
  /// Cadence of the health thread's per-worker stats pings.
  std::chrono::milliseconds health_interval{500};
  /// Request lines slower than this emit a structured warn log line
  /// (obs/log.h) with the op and the job's trace id when known. 0
  /// disables. Wait/stream ops include the proxied follow time.
  std::uint64_t slow_request_ms = 0;
};

/// The fleet process: the line server's op table + health checker (see
/// file comment).
class FleetDaemon {
 public:
  explicit FleetDaemon(FleetOptions options);

  /// stop()s if still running.
  ~FleetDaemon();

  FleetDaemon(const FleetDaemon&) = delete;
  FleetDaemon& operator=(const FleetDaemon&) = delete;

  /// Binds the endpoint and starts accepting + health checks. Throws
  /// IoError on bind failures.
  void start();

  /// Stops accepting, disconnects every client, joins all threads.
  /// Idempotent.
  void stop();

  /// Blocks until a client sent `shutdown` (or stop()/
  /// request_shutdown() ran).
  void wait_for_shutdown();

  /// Makes wait_for_shutdown() return (signal handlers).
  void request_shutdown();

  /// The bound endpoint (TCP: with the resolved ephemeral port).
  [[nodiscard]] const Endpoint& endpoint() const {
    return server_.endpoint();
  }

  /// Point-in-time per-worker view (the `fleet` op's payload).
  struct WorkerStatus {
    Endpoint endpoint;
    bool alive = true;
    bool draining = false;
    /// Fleet jobs currently placed on the worker and not yet observed
    /// terminal.
    std::uint64_t in_flight = 0;
    /// Total submissions routed to the worker.
    std::uint64_t placed = 0;
  };
  [[nodiscard]] std::vector<WorkerStatus> workers() const;

 private:
  /// Shared per-worker state. alive/draining are owned by the health
  /// thread / drain ops; counters by the placement path.
  struct Worker {
    Endpoint endpoint;
    std::atomic<bool> alive{true};
    std::atomic<bool> draining{false};
    std::atomic<std::uint64_t> in_flight{0};
    std::atomic<std::uint64_t> placed{0};
  };

  /// Where a fleet-global job id lives.
  struct Route {
    std::size_t worker = 0;
    std::uint64_t remote_id = 0;
    /// Set once a terminal response was proxied (drops in_flight).
    bool finished = false;
    /// The fleet side of the job's distributed trace: fleet.place /
    /// fleet.proxy spans, stitched with the worker's spans by the
    /// `trace` op. Null when telemetry is compiled out.
    std::shared_ptr<obs::Trace> trace;
  };

  /// A client connection's proxy sockets, one per worker, each
  /// connected on first use: blocking ops (wait/stream) held by one
  /// client never stall another client's traffic to the same worker.
  struct WorkerLinks;
  using Request = LineServer::Request;
  /// Receives each worker frame of a proxied job op; returns true while
  /// more frames follow (stream progress).
  using FrameHandler = std::function<bool(
      const JsonValue& frame, std::uint64_t global_id, const Route& route)>;

  /// The op table (see file comment).
  [[nodiscard]] LineServer::Config line_server_config();
  void handle_submit(const Request& request);
  /// status/cancel/result/wait/stream, proxied to the owning worker.
  void handle_job_op(const Request& request);
  void handle_stats(const Request& request);
  /// Fleet-wide Prometheus scrape: every live worker's exposition with
  /// a worker="N" label injected into each series, plus the fleet's
  /// own registry — one scrape sees the whole fleet.
  void handle_metrics(const Request& request);
  /// The merged span tree: the route's fleet spans stitched with the
  /// owning worker's spans under one trace id.
  void handle_trace(const Request& request);
  void handle_fleet(const Request& request);
  /// drain/undrain {"worker":N}.
  void handle_drain(const Request& request);
  void health_loop();
  /// Proxies a job-addressed op to the owning worker with the job id
  /// translated, handing each worker frame to `on_frame`. Answers
  /// unknown_job (no route) and worker_down (dead or failing worker)
  /// itself.
  void proxy_job_op(const Request& request, const FrameHandler& on_frame);
  /// The ok answers of every live worker to `op`, by worker index.
  std::vector<std::pair<std::size_t, JsonValue>> ask_live_workers(
      const Request& request, const std::string& op);
  /// Sends `line` (nothing when empty: the next frame of a stream) to
  /// `worker` over this connection's link and reads one response line.
  /// On an IO failure the worker is marked dead, the link dropped (the
  /// next exchange reconnects) and IoError rethrown.
  std::string exchange(WorkerLinks& links, std::size_t worker,
                       const std::string& line);
  /// Least-loaded live undrained worker, or npos.
  [[nodiscard]] std::size_t pick_worker_locked() const;
  /// Marks a terminal proxied response against the route's in_flight
  /// and, on the first terminal frame, records the route's fleet.proxy
  /// span with `proxy_seconds` (time spent proxying the op that
  /// observed the terminal state).
  void note_finished(std::uint64_t global_id, const JsonValue& response,
                     double proxy_seconds);

  FleetOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex routes_mutex_;
  std::map<std::uint64_t, Route> routes_;
  std::uint64_t next_global_id_ = 1;
  /// Round-robin cursor for placement ties.
  std::size_t placement_cursor_ = 0;

  /// After the state its handler threads use; stop() joins them first.
  LineServer server_;
  /// Sleeps on server_'s shutdown wait between health rounds.
  std::thread health_;
};

}  // namespace bgls::service
