#include "service/line_server.h"

#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "service/cost.h"
#include "service/journal.h"
#include "service/scheduler.h"
#include "util/error.h"

namespace bgls::service {

/// Per-server series. Per-op counters are pre-registered from the op
/// table (read-only after construction), so the request path only
/// touches relaxed atomics.
struct LineServer::Metrics {
  std::map<std::string, obs::Counter, std::less<>> requests;
  obs::Counter other_requests;
  obs::Histogram request_seconds;
  obs::Counter connections;
  obs::Gauge open_connections;

  explicit Metrics(const Config& config) {
    auto& registry = obs::MetricsRegistry::global();
    const std::string prefix = "bgls_" + config.name;
    const auto requests_series = [&](const std::string& op) {
      return registry.counter(prefix + "_requests_total{op=\"" + op + "\"}",
                              "Requests handled, by op");
    };
    for (const auto& entry : config.ops) {
      requests.emplace(entry.first, requests_series(entry.first));
    }
    other_requests = requests_series("other");
    request_seconds = registry.histogram(
        prefix + "_request_seconds",
        "Wall time handling one request line (stream/wait ops include "
        "the time spent following the job)");
    connections = registry.counter(prefix + "_connections_total",
                                   "Client connections accepted");
    open_connections = registry.gauge(prefix + "_open_connections",
                                      "Client connections currently open");
  }
};

std::string error_line(const std::string& code, const std::string& message) {
  return response_line(false, [&](JsonWriter& json) {
    json.key("code").value(code);
    json.key("error").value(message);
  });
}

std::uint64_t LineServer::Request::job() const {
  const JsonValue* job = message.find("job");
  BGLS_REQUIRE(job != nullptr, "request needs a 'job' field");
  return job->as_u64();
}

LineServer::LineServer(Config config) : config_(std::move(config)) {
  config_.ops["logs"] = [this](const Request& request) {
    handle_logs(request);
  };
  config_.ops["shutdown"] = [this](const Request& request) {
    request.socket.write_all(response_line(true, [](JsonWriter&) {}));
    request_shutdown();
  };
  metrics_ = std::make_unique<Metrics>(config_);
}

LineServer::~LineServer() { stop(); }

void LineServer::start(const Endpoint& endpoint) {
  BGLS_REQUIRE(!started_, config_.name, " already started");
  server_.listen_on(endpoint);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
}

bool LineServer::stop() {
  if (!started_) return false;
  stopping_.store(true, std::memory_order_release);
  server_.close();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    // Unblock handler threads stuck in read_line; fds are released when
    // the Connection objects die below, after the joins.
    for (auto& connection : connections_) connection->socket.shutdown_both();
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  started_ = false;
  request_shutdown();
  return true;
}

void LineServer::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

bool LineServer::wait_for_shutdown(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  return shutdown_cv_.wait_for(lock, timeout,
                               [&] { return shutdown_requested_; });
}

void LineServer::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void LineServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket socket = server_.accept();
    if (!socket.valid()) break;  // close()d
    reap_connections();
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { handle_connection(*raw); });
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(connection));
  }
}

void LineServer::reap_connections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void LineServer::handle_connection(Connection& connection) {
  metrics_->connections.add();
  metrics_->open_connections.add(1);
  const std::unique_ptr<ConnectionContext> context =
      config_.make_context ? config_.make_context() : nullptr;
  std::string line;
  try {
    while (connection.socket.read_line(line)) {
      if (line.empty()) continue;
      handle_line(line, connection.socket, context.get());
    }
  } catch (const IoError&) {
    // Peer vanished mid-request/response — normal client churn.
  }
  metrics_->open_connections.sub(1);
  connection.done.store(true, std::memory_order_release);
}

void LineServer::handle_line(const std::string& line, Socket& socket,
                             ConnectionContext* context) {
  JsonValue message;
  try {
    message = JsonValue::parse(line);
  } catch (const ParseError& e) {
    socket.write_all(error_line("parse_error", e.what()));
    return;
  }
  std::string op;
  const auto request_start = std::chrono::steady_clock::now();
  try {
    op = message.string_or("op", "");
    const auto counter = metrics_->requests.find(op);
    (counter != metrics_->requests.end() ? counter->second
                                          : metrics_->other_requests)
        .add();
    const auto it = config_.ops.find(op);
    if (it == config_.ops.end()) {
      socket.write_all(error_line("unknown_op", "unknown op '" + op + "'"));
    } else {
      it->second(Request{op, message, line, socket, context});
    }
  } catch (const IoError&) {
    throw;  // connection-level: let the handler loop exit
  } catch (const QueueFullError& e) {
    socket.write_all(error_line("queue_full", e.what()));
  } catch (const TenantQuotaError& e) {
    // Retryable like queue_full: the tenant's backlog drains.
    socket.write_all(error_line("tenant_quota", e.what()));
  } catch (const CostBudgetError& e) {
    // Retryable only for the backlog budget; a per-job over-budget
    // rejection re-fails identically, but the slug lets clients decide.
    socket.write_all(error_line("over_budget", e.what()));
  } catch (const JournalError& e) {
    // Transient durability failure: the client should back off and
    // retry (bgls_client --retries does).
    socket.write_all(error_line("journal_error", e.what()));
  } catch (const ParseError& e) {
    socket.write_all(error_line("parse_error", e.what()));
  } catch (const std::exception& e) {
    // Unknown job ids, malformed fields, capability errors, ...
    socket.write_all(error_line("bad_request", e.what()));
  }
  const double request_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    request_start)
          .count();
  metrics_->request_seconds.observe(request_seconds);
  if (config_.slow_request_ms > 0 &&
      request_seconds * 1000.0 >=
          static_cast<double>(config_.slow_request_ms)) {
    // Resolve the request's trace id for correlation: submits carry it
    // inline; job ops go through the server's hook. A mistyped field
    // was already answered as a bad request; here it only costs the
    // correlation (0).
    const auto id_field = [&](const std::string& key) -> std::uint64_t {
      try {
        return message.u64_or(key, 0);
      } catch (const Error&) {
        return 0;
      }
    };
    const std::uint64_t job_id = id_field("job");
    std::uint64_t trace_id = id_field("trace_id");
    if (trace_id == 0 && job_id != 0 && config_.job_trace_id) {
      trace_id = config_.job_trace_id(job_id);
    }
    obs::log(obs::LogLevel::kWarn, config_.name, "slow request",
             {{"op", op}, {"ms", request_seconds * 1000.0}}, trace_id, job_id);
  }
}

void LineServer::handle_logs(const Request& request) {
  const std::string level_name = request.message.string_or("level", "debug");
  obs::LogLevel min_level = obs::LogLevel::kDebug;
  BGLS_REQUIRE(obs::parse_log_level(level_name, &min_level),
               "unknown log level '", level_name,
               "' (expected debug/info/warn/error)");
  const std::uint64_t trace_id = request.message.u64_or("trace_id", 0);
  const std::uint64_t limit = request.message.u64_or("limit", 100);
  const std::vector<obs::LogRecord> records = obs::Logger::global().tail(
      static_cast<std::size_t>(limit), min_level, trace_id);
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("count").value(static_cast<std::uint64_t>(records.size()));
    json.key("lines").begin_array();
    for (const obs::LogRecord& record : records) {
      json.value(obs::format_log_line(record));
    }
    json.end_array();
  }));
}

}  // namespace bgls::service
