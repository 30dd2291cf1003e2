/// \file line_server.h
/// LineServer — the ndjson line server under `bgls_serve`
/// (service/daemon.h) and `bgls_fleet` (service/fleet.h).
///
/// One thread accepts connections; each connection gets a handler
/// thread reading request lines until the peer disconnects (clients may
/// pipeline many requests over one connection), dispatching each by its
/// "op" through the owning server's op table. The core answers
/// malformed lines and unknown ops, maps handler exceptions onto the
/// wire slugs (protocol.h), serves `logs` and `shutdown`, records
/// bgls_<name>_{requests_total{op},request_seconds,connections_total,
/// open_connections}, and warn-logs slow requests.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/socket.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace bgls::service {

/// Builds one compact response line ({"ok":...,...}\n) via a filler
/// callback receiving the open JsonWriter object scope.
template <typename Fill>
std::string response_line(bool ok, Fill fill) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("ok").value(ok);
  fill(json);
  json.end_object();
  os << "\n";
  return os.str();
}

/// {"ok":false,"code":...,"error":...}\n
[[nodiscard]] std::string error_line(const std::string& code,
                                     const std::string& message);

/// A server's per-connection state, created when the connection is
/// accepted and destroyed when its handler thread ends.
class ConnectionContext {
 public:
  ConnectionContext() = default;
  virtual ~ConnectionContext() = default;
  ConnectionContext(const ConnectionContext&) = delete;
  ConnectionContext& operator=(const ConnectionContext&) = delete;
};

class LineServer {
 public:
  /// One request line in flight. Responses (and stream frames) are
  /// written to `socket` directly.
  struct Request {
    const std::string& op;
    const JsonValue& message;
    const std::string& line;  ///< verbatim, for journaling/forwarding
    Socket& socket;
    ConnectionContext* context;  ///< null without Config::make_context

    /// The "job" field of a job-addressed op; throws when absent.
    [[nodiscard]] std::uint64_t job() const;
  };
  using Handler = std::function<void(const Request&)>;

  struct Config {
    /// Metric prefix (bgls_<name>_...) and log component.
    std::string name;
    /// The server's ops; the core adds `logs` and `shutdown`.
    std::map<std::string, Handler> ops;
    std::function<std::unique_ptr<ConnectionContext>()> make_context;
    /// A job's trace id for the slow-request log (0 = unknown).
    std::function<std::uint64_t(std::uint64_t job)> job_trace_id;
    /// Warn-log request lines slower than this; 0 disables.
    std::uint64_t slow_request_ms = 0;
  };

  explicit LineServer(Config config);
  ~LineServer();  ///< stop()s if still running
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds `endpoint` and starts accepting; throws IoError on bind
  /// failures.
  void start(const Endpoint& endpoint);

  /// Stops accepting, disconnects every client, joins every handler
  /// thread, then requests shutdown. Idempotent: false when the server
  /// was not running.
  bool stop();

  /// Blocks until a client sent `shutdown`, request_shutdown() or
  /// stop() ran; the bounded form returns whether that happened (the
  /// interruptible sleep of a server's background thread).
  void wait_for_shutdown();
  bool wait_for_shutdown(std::chrono::milliseconds timeout);
  void request_shutdown();

  /// True once stop() began; long-following handlers (wait, stream)
  /// poll it to give up promptly.
  [[nodiscard]] bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// The bound endpoint (TCP: with the resolved ephemeral port).
  [[nodiscard]] const Endpoint& endpoint() const {
    return server_.endpoint();
  }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  struct Metrics;

  void accept_loop();
  void handle_connection(Connection& connection);
  void handle_line(const std::string& line, Socket& socket,
                   ConnectionContext* context);
  void handle_logs(const Request& request);
  /// Joins and drops finished connections (called from the acceptor).
  void reap_connections();

  Config config_;
  std::unique_ptr<Metrics> metrics_;
  ServerSocket server_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::thread acceptor_;  // last: uses everything above
};

}  // namespace bgls::service
