#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/error.h"
#include "util/json_writer.h"

namespace bgls::service {
namespace {

using namespace std::chrono_literals;

/// Builds one compact journal record body via a filler callback.
template <typename Fill>
std::string journal_record(std::string_view type, std::uint64_t job,
                           Fill fill) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("type").value(type);
  json.key("job").value(job);
  fill(json);
  json.end_object();
  return os.str();
}

std::string submit_record(std::uint64_t job, const std::string& line) {
  return journal_record("submit", job,
                        [&](JsonWriter& json) { json.key("line").value(line); });
}

std::string checkpoint_record(std::uint64_t job,
                              const std::string& checkpoint_json) {
  // `checkpoint_json` is already compact JSON (RunCheckpoint::to_json),
  // spliced in verbatim.
  std::string body = "{\"type\":\"checkpoint\",\"job\":";
  body += std::to_string(job);
  body += ",\"data\":";
  body += checkpoint_json;
  body += "}";
  return body;
}

std::string evict_record(std::uint64_t job) {
  return journal_record("evict", job, [](JsonWriter&) {});
}

}  // namespace

ServiceDaemon::ServiceDaemon(DaemonOptions options)
    : options_(std::move(options)),
      scheduler_(hooked_scheduler_options()),
      server_(line_server_config()) {}

LineServer::Config ServiceDaemon::line_server_config() {
  const auto bind = [this](auto handler) {
    return std::bind_front(handler, this);
  };
  LineServer::Config config;
  config.name = "daemon";
  config.slow_request_ms = options_.slow_request_ms;
  config.ops = {
      {"submit", bind(&ServiceDaemon::handle_submit)},
      {"status", bind(&ServiceDaemon::handle_status)},
      {"cancel", bind(&ServiceDaemon::handle_cancel)},
      {"result", bind(&ServiceDaemon::handle_result_or_wait)},
      {"wait", bind(&ServiceDaemon::handle_result_or_wait)},
      {"stream", bind(&ServiceDaemon::handle_stream)},
      {"stats", bind(&ServiceDaemon::handle_stats)},
      {"metrics", bind(&ServiceDaemon::handle_metrics)},
      {"trace", bind(&ServiceDaemon::handle_trace)},
  };
  config.job_trace_id = [this](std::uint64_t job) -> std::uint64_t {
    try {
      const JobInfo info = scheduler_.info(job);
      return info.trace != nullptr ? info.trace->id() : 0;
    } catch (const std::exception&) {
      return 0;  // unknown/evicted job — log without correlation
    }
  };
  return config;
}

SchedulerOptions& ServiceDaemon::hooked_scheduler_options() {
  SchedulerOptions& scheduler = options_.scheduler;
  if (options_.journal_path.empty()) return scheduler;
  scheduler.on_terminal = [this](const JobInfo& info) {
    journal_terminal(info);
  };
  scheduler.on_checkpoint = [this](std::uint64_t id,
                                   std::shared_ptr<const RunCheckpoint> ckpt) {
    if (!journal_.is_open() || ckpt == nullptr) return;
    journal_.append(checkpoint_record(id, ckpt->to_json()));
  };
  scheduler.on_evict = [this](std::uint64_t id) {
    if (!journal_.is_open()) return;
    journal_.append(evict_record(id));
  };
  return scheduler;
}

void ServiceDaemon::journal_terminal(const JobInfo& info) {
  if (!journal_.is_open()) return;
  ReplayedResult result;
  // An evicted side table leaves nothing to journal.
  if (terminal_result(info, result)) {
    journal_.append(terminal_record(info.id, result));
  }
}

bool ServiceDaemon::terminal_result(const JobInfo& info,
                                    ReplayedResult& out) const {
  out.state = info.state;
  if (info.state != JobState::kDone || info.result == nullptr) {
    out.error = info.error;
    return true;
  }
  RunReportContext context;
  {
    const std::lock_guard<std::mutex> lock(contexts_mutex_);
    const auto it = contexts_.find(info.id);
    if (it == contexts_.end()) return false;
    context = it->second;
  }
  out.backend = info.result->backend_name;
  out.selection_reason = info.result->selection_reason;
  out.report = run_report_string(context, *info.result);
  return true;
}

std::string ServiceDaemon::terminal_record(std::uint64_t id,
                                           const ReplayedResult& result) {
  return journal_record("terminal", id, [&](JsonWriter& json) {
    json.key("state").value(job_state_name(result.state));
    if (result.state == JobState::kDone) {
      json.key("backend").value(result.backend);
      json.key("selection_reason").value(result.selection_reason);
      json.key("report").value(result.report);
    } else {
      json.key("error").value(result.error);
    }
  });
}

void ServiceDaemon::send_terminal(Socket& socket, const std::string& type,
                                  std::uint64_t id,
                                  const ReplayedResult& result) {
  const bool done = result.state == JobState::kDone;
  socket.write_all(response_line(done, [&](JsonWriter& json) {
    if (!type.empty()) json.key("type").value(type);
    json.key("job").value(id);
    if (!done) json.key("code").value(job_state_name(result.state));
    json.key("state").value(job_state_name(result.state));
    if (done) {
      json.key("backend").value(result.backend);
      json.key("selection_reason").value(result.selection_reason);
      json.key("report").value(result.report);
    } else {
      json.key("error").value(result.error);
    }
  }));
}

ServiceDaemon::~ServiceDaemon() { stop(); }

void ServiceDaemon::start() {
  if (!options_.journal_path.empty() && !journal_.is_open()) {
    replay_journal();
  }
  server_.start(options_.endpoint);
}

void ServiceDaemon::replay_journal() {
  const auto replay_start = std::chrono::steady_clock::now();
  std::size_t skipped = 0;
  const std::vector<JsonValue> records =
      Journal::replay_file(options_.journal_path, &skipped);

  // Fold the event stream into per-job final state. Records after an
  // evict (or for ids never submitted *and* never terminal) are
  // dropped; the last checkpoint wins.
  struct Pending {
    std::string line;
    std::shared_ptr<const RunCheckpoint> checkpoint;
    std::string checkpoint_json;
    bool terminal = false;
    ReplayedResult result;
  };
  std::map<std::uint64_t, Pending> pending;
  std::uint64_t max_id = 0;
  for (const JsonValue& record : records) {
    const std::string type = record.string_or("type", "");
    const std::uint64_t id = record.u64_or("job", 0);
    if (id == 0) continue;
    max_id = std::max(max_id, id);
    if (type == "evict") {
      pending.erase(id);
      continue;
    }
    Pending& job = pending[id];
    if (type == "submit") {
      job.line = record.string_or("line", "");
    } else if (type == "checkpoint") {
      const JsonValue* data = record.find("data");
      if (data != nullptr) {
        try {
          RunCheckpoint parsed = RunCheckpoint::from_json(*data);
          job.checkpoint_json = parsed.to_json();
          job.checkpoint =
              std::make_shared<const RunCheckpoint>(std::move(parsed));
        } catch (const Error&) {
          // Unreadable snapshot: resume from the previous one (or from
          // scratch — determinism makes the re-run byte-identical).
        }
      }
    } else if (type == "terminal") {
      job.terminal = true;
      ReplayedResult& result = job.result;
      const std::string state = record.string_or("state", "failed");
      result.state = state == "done"        ? JobState::kDone
                     : state == "cancelled" ? JobState::kCancelled
                     : state == "timeout"   ? JobState::kTimedOut
                                            : JobState::kFailed;
      result.error = record.string_or("error", "");
      result.backend = record.string_or("backend", "");
      result.selection_reason = record.string_or("selection_reason", "");
      result.report = record.string_or("report", "");
    }
  }

  scheduler_.reserve_ids_through(max_id);

  // Compact to the live set — terminal records (so results survive any
  // number of restarts) plus submit+latest-checkpoint for incomplete
  // jobs — then reopen for appending.
  std::vector<std::string> compacted;
  for (const auto& [id, job] : pending) {
    if (job.terminal) {
      compacted.push_back(terminal_record(id, job.result));
    } else if (!job.line.empty()) {
      compacted.push_back(submit_record(id, job.line));
      if (job.checkpoint != nullptr) {
        compacted.push_back(checkpoint_record(id, job.checkpoint_json));
      }
    }
  }
  Journal::compact_file(options_.journal_path, compacted);
  journal_.open(options_.journal_path);

  // Re-enqueue incomplete jobs under their journaled ids (the journal
  // is open first, so their terminal events are recorded), and answer
  // queries for terminal ones from memory.
  std::uint64_t terminal_jobs = 0;
  std::uint64_t resubmitted = 0;
  std::uint64_t dropped = 0;
  for (auto& [id, job] : pending) {
    if (job.terminal) {
      const std::lock_guard<std::mutex> lock(replayed_mutex_);
      replayed_.emplace(id, std::move(job.result));
      ++terminal_jobs;
      continue;
    }
    if (job.line.empty()) continue;  // checkpoint without submit
    try {
      RunRequest request = parse_submit(JsonValue::parse(job.line));
      const RunReportContext context =
          report_context(request, request.circuit.num_qubits());
      if (job.checkpoint != nullptr) request.resume = job.checkpoint;
      {
        const std::lock_guard<std::mutex> lock(contexts_mutex_);
        contexts_.emplace(id, context);
      }
      scheduler_.resubmit(std::move(request), id);
      ++resubmitted;
    } catch (const std::exception&) {
      // A submit line that no longer parses (or a duplicate id): drop
      // the job rather than refuse to start.
      ++dropped;
    }
  }
  const double replay_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    replay_start)
                                    .count();
  record_journal_replay_seconds(replay_seconds);
  obs::log(obs::LogLevel::kInfo, "daemon", "journal replayed",
           {{"terminal_jobs", terminal_jobs},
            {"resubmitted", resubmitted},
            {"dropped", dropped},
            {"seconds", replay_seconds}});
}

void ServiceDaemon::stop() {
  if (!server_.stop()) return;
  // Durability barrier: every acknowledged record is on disk before
  // stop() returns. The journal stays open — scheduler runners may
  // still finish (and journal) jobs until ~JobScheduler joins them.
  if (journal_.is_open()) journal_.flush();
}

void ServiceDaemon::wait_for_shutdown() { server_.wait_for_shutdown(); }

void ServiceDaemon::request_shutdown() { server_.request_shutdown(); }

void ServiceDaemon::handle_submit(const Request& request) {
  RunRequest run = parse_submit(request.message);
  // Same width the CLI reports (no clamping) — the report must match
  // bgls_run byte for byte.
  const RunReportContext context =
      report_context(run, run.circuit.num_qubits());
  const std::uint64_t id = scheduler_.submit(std::move(run));
  {
    // Store this job's report context and prune entries for jobs the
    // scheduler's retention bound has evicted, so the daemon's side
    // table stays bounded alongside jobs_.
    const std::uint64_t min_retained = scheduler_.min_retained_id();
    const std::lock_guard<std::mutex> lock(contexts_mutex_);
    contexts_.emplace(id, context);
    contexts_.erase(contexts_.begin(),
                    contexts_.lower_bound(min_retained));
  }
  // Journal-before-ack: once the client sees the job id, a crash-and-
  // restart daemon still knows the job. On a journal failure the job
  // keeps running but the client gets journal_error and must retry —
  // the orphan's terminal record is dropped at the next replay.
  if (journal_.is_open()) journal_.append(submit_record(id, request.line));
  // Cache hits are born terminal — report the real state so clients
  // can skip straight to `result` without polling.
  JobState state = JobState::kQueued;
  bool from_cache = false;
  try {
    const JobInfo info = scheduler_.info(id);
    state = info.state;
    from_cache = info.from_cache;
  } catch (const ValueError&) {
    // Evicted already (pathologically small retention) — keep kQueued.
  }
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("state").value(job_state_name(state));
    if (from_cache) json.key("from_cache").value(true);
  }));
}

bool ServiceDaemon::find_replayed(std::uint64_t id,
                                  ReplayedResult& out) const {
  const std::lock_guard<std::mutex> lock(replayed_mutex_);
  const auto it = replayed_.find(id);
  if (it == replayed_.end()) return false;
  out = it->second;
  return true;
}

bool ServiceDaemon::send_replayed(std::uint64_t id, Socket& socket,
                                  const std::string& type) {
  ReplayedResult replayed;
  if (!find_replayed(id, replayed)) return false;
  send_terminal(socket, type, id, replayed);
  return true;
}

void ServiceDaemon::handle_status(const Request& request) {
  const std::uint64_t id = request.job();
  Socket& socket = request.socket;
  JobInfo info;
  try {
    info = scheduler_.info(id);
  } catch (const ValueError&) {
    ReplayedResult replayed;
    if (!find_replayed(id, replayed)) throw;
    socket.write_all(response_line(true, [&](JsonWriter& json) {
      json.key("job").value(id);
      json.key("state").value(job_state_name(replayed.state));
      if (!replayed.error.empty()) json.key("error").value(replayed.error);
      if (!replayed.backend.empty()) {
        json.key("backend").value(replayed.backend);
        json.key("selection_reason").value(replayed.selection_reason);
      }
    }));
    return;
  }
  socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(info.id);
    json.key("state").value(job_state_name(info.state));
    json.key("priority").value(info.priority);
    json.key("completed").value(info.completed_repetitions);
    json.key("total").value(info.total_repetitions);
    json.key("updates").value(
        static_cast<std::uint64_t>(info.progress_updates));
    // Scheduling timings (milliseconds; live jobs report so-far values).
    // Not byte-pinned — unlike the `result` report, status is a
    // monitoring endpoint and may grow fields.
    json.key("queue_ms").value(info.queue_seconds * 1000.0);
    json.key("run_ms").value(info.run_seconds * 1000.0);
    if (!info.error.empty()) json.key("error").value(info.error);
    if (info.result) {
      json.key("backend").value(info.result->backend_name);
      json.key("selection_reason").value(info.result->selection_reason);
      const RunStats& stats = info.result->stats;
      json.key("queue_wait_ms").value(stats.queue_wait_ms);
      json.key("optimize_ms").value(stats.optimize_ms);
      json.key("evolve_ms").value(stats.evolve_ms);
      json.key("sample_ms").value(stats.sample_ms);
    }
  }));
}

void ServiceDaemon::handle_cancel(const Request& request) {
  const std::uint64_t id = request.job();
  const bool cancelled = scheduler_.cancel(id);
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("cancelled").value(cancelled);
  }));
}

void ServiceDaemon::send_result(const JobInfo& info, Socket& socket,
                                const std::string& type) {
  if (!is_terminal(info.state)) {
    socket.write_all(error_line(
        "not_done", "job " + std::to_string(info.id) + " is " +
                        std::string(job_state_name(info.state))));
    return;
  }
  ReplayedResult result;
  if (!terminal_result(info, result)) {
    // Evicted by retention between the info() snapshot and here.
    socket.write_all(error_line(
        "unknown_job", "job " + std::to_string(info.id) +
                           " was evicted by the retention bound"));
    return;
  }
  send_terminal(socket, type, info.id, result);
}

void ServiceDaemon::handle_result_or_wait(const Request& request) {
  const std::uint64_t id = request.job();
  JobInfo info;
  try {
    info = scheduler_.info(id);
  } catch (const ValueError&) {
    if (send_replayed(id, request.socket, "")) return;
    throw;
  }
  if (request.op == "wait") {
    // Bounded waits keep stop() responsive: poll the scheduler in
    // slices instead of blocking unboundedly on the condition variable.
    // A slice never outlasts the client's deadline (timeout_ms 0 waits
    // without one).
    const std::uint64_t timeout_ms = request.message.u64_or("timeout_ms", 0);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!is_terminal(info.state) && !server_.stopping()) {
      std::chrono::milliseconds slice = 200ms;
      if (timeout_ms > 0) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left <= 0ms) break;
        slice = std::min(slice, left);
      }
      info = scheduler_.wait(id, slice);
    }
  }
  send_result(info, request.socket, "");
}

void ServiceDaemon::handle_stream(const Request& request) {
  const std::uint64_t id = request.job();
  Socket& socket = request.socket;
  if (send_replayed(id, socket, "result")) return;
  std::size_t cursor = 0;
  while (true) {
    for (const ProgressUpdate& update : scheduler_.progress_since(id, cursor)) {
      ++cursor;
      socket.write_all(response_line(true, [&](JsonWriter& json) {
        json.key("type").value("progress");
        json.key("job").value(id);
        json.key("completed").value(update.completed_repetitions);
        json.key("total").value(update.total_repetitions);
        json.key("final").value(update.final);
        json.key("histograms");
        write_progress_histograms(json, update);
      }));
    }
    const JobInfo info = scheduler_.info(id);
    if (is_terminal(info.state) &&
        scheduler_.progress_since(id, cursor).empty()) {
      send_result(info, socket, "result");
      return;
    }
    if (server_.stopping()) {
      send_result(info, socket, "result");
      return;
    }
    scheduler_.wait_progress(id, cursor, 200ms);
  }
}

void ServiceDaemon::handle_stats(const Request& request) {
  const SchedulerStats stats = scheduler_.stats();
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("submitted").value(stats.submitted);
    json.key("rejected").value(stats.rejected);
    json.key("completed").value(stats.completed);
    json.key("failed").value(stats.failed);
    json.key("cancelled").value(stats.cancelled);
    json.key("timed_out").value(stats.timed_out);
    json.key("evicted").value(stats.evicted);
    json.key("retried").value(stats.retried);
    json.key("preempted").value(stats.preempted);
    json.key("resumed").value(stats.resumed);
    json.key("queue_depth").value(
        static_cast<std::uint64_t>(stats.queue_depth));
    json.key("running").value(static_cast<std::uint64_t>(stats.running));
    json.key("cache_hits").value(stats.cache_hits);
    json.key("completed_per_backend").begin_object();
    for (const auto& [backend, count] : stats.completed_per_backend) {
      json.key(backend).value(count);
    }
    json.end_object();
    json.key("completed_per_tenant").begin_object();
    for (const auto& [tenant, count] : stats.completed_per_tenant) {
      json.key(tenant).value(count);
    }
    json.end_object();
  }));
}

void ServiceDaemon::handle_metrics(const Request& request) {
  // The whole process-wide registry, not just daemon series: a scrape
  // sees kernel/engine/pool/scheduler series from the same snapshot.
  const std::string text =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("metrics").value(text);
  }));
}

void ServiceDaemon::handle_trace(const Request& request) {
  const std::uint64_t id = request.job();
  const JobInfo info = scheduler_.info(id);  // throws on unknown id
  std::uint64_t trace_id = 0;
  std::vector<obs::SpanRecord> spans;
  if (info.trace != nullptr) {
    trace_id = info.trace->id();
    spans = info.trace->spans();  // sorted (name, index, id)
  }
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(id);
    json.key("trace_id").value(trace_id);
    json.key("spans");
    write_spans(json, spans);
  }));
}

}  // namespace bgls::service
