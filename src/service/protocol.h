/// \file protocol.h
/// The bgls service wire protocol, shared by the `bgls_serve` daemon,
/// the `bgls_client` tool/library, and the tests.
///
/// Transport: newline-delimited JSON (ndjson) over a Unix-domain or TCP
/// stream socket — one request object per line, one response object per
/// line (the `stream` op additionally emits one progress object per
/// line before its final response). Requests carry an "op" field:
///
///   {"op":"submit","qasm":"...", "reps":N, "seed":N, "backend":"auto",
///    "threads":N, "streams":N, "optimize":false, "no_batch":false,
///    "priority":N, "tenant":"...", "deadline_ms":N, "progress_every":N}
///   {"op":"status","job":N}        {"op":"cancel","job":N}
///   {"op":"wait","job":N,"timeout_ms":N}
///   {"op":"result","job":N}        {"op":"stream","job":N}
///   {"op":"stats"}                 {"op":"shutdown"}
///   {"op":"metrics"}   — Prometheus text exposition of the telemetry
///                        registry (obs/), escaped in "metrics"
///   {"op":"trace","job":N}  — the job's span tree: "trace_id" plus a
///                        "spans" array of {id,parent,name,index,
///                        seconds}. A fleet front stitches its own
///                        placement/proxy spans with the worker's.
///   {"op":"logs","level":"warn","trace_id":N,"limit":N} — tails the
///                        server's structured-log ring (obs/log.h) as
///                        a "lines" array of ndjson strings; level and
///                        trace_id filter, limit caps (default 100).
///
/// Submit additionally accepts optional "trace_id"/"parent_span_id"
/// fields — the cross-process trace context. The job's spans derive
/// their IDs from trace_id and hang under parent_span_id, so a caller
/// (fleet front, client) can stitch the worker's spans into its own
/// trace. Observation-only: context never changes sampled output or
/// result-cache identity.
///
/// Every response carries "ok" (bool); failures add "code" (a stable
/// slug) and "error" (a human-readable message). The slugs:
///
///   parse_error   — the line (or a field inside it) is not valid JSON/QASM
///   unknown_op    — no such op on this server
///   bad_request   — any other rejected request: missing or mistyped
///                   fields, capability errors, an unknown job on a daemon
///   unknown_job   — an evicted job on a daemon, any unknown job on a fleet
///   queue_full    — admission queue at capacity (retryable)
///   tenant_quota  — the tenant's queued/running cap is hit (retryable)
///   over_budget   — predicted cost over the job or backlog budget
///   journal_error — the write-ahead journal failed (retryable)
///   worker_down   — a fleet's owning worker is dead or failed (retryable)
///   not_done      — result/wait for a job that is not terminal yet
///   cancelled / timeout / failed — the job's terminal state
///
/// The line server (service/line_server.h) answers parse_error and
/// unknown_op, and maps handler exceptions onto queue_full,
/// tenant_quota, over_budget, journal_error, parse_error or
/// bad_request in one table; the ops answer the rest themselves.
///
/// `result`/`wait` responses embed the canonical bgls_run report
/// (service/report.h) as an escaped string in "report", so clients can
/// reproduce the CLI's byte-exact output. Job lifecycle states on the
/// wire are job_state_name() strings: queued → running → done | failed
/// | cancelled | timeout.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/run_types.h"
#include "core/progress.h"
#include "obs/trace.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace bgls::service {

/// Client-side submission knobs (the JSON fields of the submit op).
struct SubmitArgs {
  std::string qasm;
  std::string backend = "auto";
  std::uint64_t repetitions = 1024;
  std::uint64_t seed = 0;
  int threads = 1;
  std::uint64_t streams = 16;
  bool optimize = false;
  /// Disable dictionary batching (per-trajectory sampling): the knob
  /// that makes unitary circuits stream partial histograms and react
  /// to cancellation at repetition granularity.
  bool no_batch = false;
  int priority = 0;
  /// Owning tenant for quotas and weighted-fair scheduling; "" = the
  /// anonymous default tenant (the field is omitted from the wire).
  std::string tenant;
  std::uint64_t deadline_ms = 0;
  std::uint64_t progress_every = 0;
  /// Cross-process trace context (0 = none; fields omitted from the
  /// wire). parent_span_id only travels alongside a nonzero trace_id.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// Serializes a submit request as one ndjson line (with trailing \n).
[[nodiscard]] std::string submit_request_line(const SubmitArgs& args);

/// One-field request lines ({"op":...,"job":...}).
[[nodiscard]] std::string job_request_line(const std::string& op,
                                           std::uint64_t job);
[[nodiscard]] std::string wait_request_line(std::uint64_t job,
                                            std::uint64_t timeout_ms);
[[nodiscard]] std::string op_request_line(const std::string& op);
[[nodiscard]] std::string logs_request_line(const std::string& level,
                                            std::uint64_t trace_id,
                                            std::uint64_t limit);

/// Daemon-side: builds the RunRequest for a parsed submit message
/// (parses the embedded QASM). Throws ParseError/ValueError with the
/// offending field.
[[nodiscard]] RunRequest parse_submit(const JsonValue& message);

/// Serializes a ProgressUpdate's histograms as an object keyed by
/// measurement key, each value an object of decimal-bitstring → count.
void write_progress_histograms(JsonWriter& json, const ProgressUpdate& update);

/// Serializes spans as an array value (caller writes the "spans" key):
/// [{"id":...,"parent":...,"name":"...","index":...,"seconds":...}].
/// IDs are u64 — JsonWriter/JsonValue round-trip them exactly.
void write_spans(JsonWriter& json, const std::vector<obs::SpanRecord>& spans);

/// Parses a trace response's "spans" array (absent → empty).
[[nodiscard]] std::vector<obs::SpanRecord> parse_spans(
    const JsonValue& response);

}  // namespace bgls::service
