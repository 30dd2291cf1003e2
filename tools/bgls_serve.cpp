/// \file bgls_serve.cpp
/// The `bgls_serve` daemon: a persistent BGLS sampling service speaking
/// newline-delimited JSON over a Unix-domain or TCP socket
/// (service/daemon.h, protocol in service/protocol.h).
///
///   $ bgls_serve --listen unix:/tmp/bgls.sock
///   $ bgls_serve --listen tcp:127.0.0.1:7117 --jobs 2 --queue 128
///
/// Clients submit OpenQASM circuits with RunRequest knobs, poll or
/// stream partial histograms, cancel jobs, and read scheduler stats —
/// see `bgls_client` for a ready-made driver. Final results reuse the
/// bgls_run report schema, byte-identical to the CLI on the same
/// inputs and seeds. The process runs until a client sends the
/// `shutdown` op, SIGTERM/SIGINT arrives (graceful: stop accepting,
/// flush the journal, exit 0), or it is killed — with `--journal`, a
/// restart replays the log and resumes incomplete jobs from their last
/// checkpoint.

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "api/session.h"
#include "cli_flags.h"
#include "obs/exposition.h"
#include "server_process.h"
#include "service/daemon.h"
#include "util/error.h"

namespace {

using namespace bgls;
using namespace bgls::service;
using tools::configure_logging;
using tools::parse_double_flag;
using tools::parse_tenant_flag;
using tools::parse_u64_flag;
using tools::SignalWatcher;

struct ServeOptions {
  std::string listen = "unix:/tmp/bgls.sock";
  int jobs = 1;
  std::size_t queue = 64;
  std::size_t retain = 1024;
  std::string metrics_json;  // "" = no final dump
  std::string journal;      // "" = no write-ahead journal
  std::uint64_t checkpoint_every = 0;
  int retries = 0;
  std::uint64_t backoff_ms = 100;
  std::size_t cache = 0;  // result-cache entries; 0 = off
  std::map<std::string, TenantQuota> tenants;
  double max_job_seconds = 0.0;
  double max_queue_seconds = 0.0;
  std::string log_file;             // "" = log to stderr
  std::string log_level = "info";
  std::uint64_t slow_ms = 0;        // 0 = no slow-request log lines
};

void print_usage(std::ostream& os) {
  os << "usage: bgls_serve [options]\n"
        "\n"
        "Runs the BGLS sampling service: an ndjson request/response\n"
        "protocol over a stream socket (see README 'Service').\n"
        "\n"
        "options:\n"
        "  --listen SPEC    unix:<path> (default unix:/tmp/bgls.sock) or\n"
        "                   tcp:<host>:<port>; tcp port 0 picks an\n"
        "                   ephemeral port, printed on startup\n"
        "  --jobs N         concurrent jobs (scheduler runner threads,\n"
        "                   default 1); each job's sampling still fans\n"
        "                   out over its own --threads workers\n"
        "  --queue N        admission limit on queued jobs (default 64);\n"
        "                   beyond it submissions fail with queue_full\n"
        "  --retain N       finished jobs kept for result/stream reads\n"
        "                   (default 1024); oldest are evicted beyond it\n"
        "  --metrics-json FILE  dump the final telemetry registry as JSON\n"
        "                   at shutdown (live scrapes: {\"op\":\"metrics\"})\n"
        "  --journal FILE   write-ahead scheduler journal: every submit/\n"
        "                   terminal/checkpoint event is fsync'd before\n"
        "                   the ack; a restart replays it, answers\n"
        "                   finished jobs from the log, and resumes\n"
        "                   incomplete ones from their last checkpoint\n"
        "  --checkpoint-every N  repetitions between resumable snapshots\n"
        "                   per job (default 0 = no snapshots; incomplete\n"
        "                   jobs then re-run from scratch after a crash)\n"
        "  --retries N      re-queue transiently failed jobs up to N\n"
        "                   times with exponential backoff (default 0)\n"
        "  --backoff-ms B   retry backoff base in ms (default 100)\n"
        "  --cache N        deterministic result cache holding up to N\n"
        "                   finished results (default 0 = off); repeat\n"
        "                   submissions answer byte-identical reports\n"
        "                   without re-sampling\n"
        "  --tenant NAME=W[:Q[:R]]  per-tenant quota: weighted-fair\n"
        "                   weight W, optional queued cap Q and running\n"
        "                   cap R (repeatable; unlisted tenants get\n"
        "                   weight 1 and no caps)\n"
        "  --max-job-seconds X    reject submissions whose predicted\n"
        "                   cost exceeds X seconds (over_budget)\n"
        "  --max-queue-seconds X  reject submissions that would push the\n"
        "                   predicted queued backlog past X seconds\n"
        "  --log-file PATH  append structured ndjson log lines to PATH\n"
        "                   (default: stderr); SIGHUP reopens the file,\n"
        "                   so external rotation works\n"
        "  --log-level LVL  minimum level recorded: debug/info/warn/\n"
        "                   error (default info)\n"
        "  --slow-ms N      warn-log request lines slower than N ms,\n"
        "                   with the job's trace id (default 0 = off)\n"
        "  --help           this text\n";
}

bool parse_args(int argc, char** argv, ServeOptions& options) {
  const auto need_value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      detail::throw_error<ValueError>("missing value for ", flag);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    } else if (arg == "--listen") {
      options.listen = need_value(i, arg);
    } else if (arg == "--jobs") {
      const std::uint64_t jobs = parse_u64_flag(arg, need_value(i, arg));
      BGLS_REQUIRE(jobs >= 1 && jobs <= 256, "value ", jobs, " for ", arg,
                   " is out of range");
      options.jobs = static_cast<int>(jobs);
    } else if (arg == "--queue") {
      options.queue =
          static_cast<std::size_t>(parse_u64_flag(arg, need_value(i, arg)));
    } else if (arg == "--retain") {
      options.retain =
          static_cast<std::size_t>(parse_u64_flag(arg, need_value(i, arg)));
    } else if (arg == "--metrics-json") {
      options.metrics_json = need_value(i, arg);
    } else if (arg == "--journal") {
      options.journal = need_value(i, arg);
    } else if (arg == "--checkpoint-every") {
      options.checkpoint_every = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--retries") {
      const std::uint64_t retries = parse_u64_flag(arg, need_value(i, arg));
      BGLS_REQUIRE(retries <= 100, "value ", retries, " for ", arg,
                   " is out of range");
      options.retries = static_cast<int>(retries);
    } else if (arg == "--backoff-ms") {
      options.backoff_ms = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--cache") {
      options.cache =
          static_cast<std::size_t>(parse_u64_flag(arg, need_value(i, arg)));
    } else if (arg == "--tenant") {
      options.tenants.insert(parse_tenant_flag(need_value(i, arg)));
    } else if (arg == "--max-job-seconds") {
      options.max_job_seconds = parse_double_flag(arg, need_value(i, arg));
    } else if (arg == "--max-queue-seconds") {
      options.max_queue_seconds = parse_double_flag(arg, need_value(i, arg));
    } else if (arg == "--log-file") {
      options.log_file = need_value(i, arg);
    } else if (arg == "--log-level") {
      options.log_level = need_value(i, arg);
    } else if (arg == "--slow-ms") {
      options.slow_ms = parse_u64_flag(arg, need_value(i, arg));
    } else {
      detail::throw_error<ValueError>("unknown flag '", arg,
                                      "' (try --help)");
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  try {
    if (!parse_args(argc, argv, options)) return 0;

    configure_logging(options.log_level, options.log_file);

    DaemonOptions daemon_options;
    daemon_options.endpoint = Endpoint::parse(options.listen);
    daemon_options.slow_request_ms = options.slow_ms;
    daemon_options.scheduler.max_concurrent_jobs = options.jobs;
    daemon_options.scheduler.max_queue_depth = options.queue;
    daemon_options.scheduler.max_retained_jobs = options.retain;
    daemon_options.scheduler.checkpoint_every = options.checkpoint_every;
    daemon_options.scheduler.max_retries = options.retries;
    daemon_options.scheduler.backoff_base_ms = options.backoff_ms;
    daemon_options.scheduler.tenant_quotas = options.tenants;
    daemon_options.scheduler.max_job_seconds = options.max_job_seconds;
    daemon_options.scheduler.max_queue_seconds = options.max_queue_seconds;
    if (options.cache > 0) {
      ResultCacheOptions cache_options;
      cache_options.max_entries = options.cache;
      daemon_options.scheduler.result_cache =
          std::make_shared<ResultCache>(cache_options);
    }
    daemon_options.journal_path = options.journal;

    // Block the watched signals before the daemon exists: its
    // constructor spawns scheduler runner threads, and any thread
    // created with TERM/INT/HUP unblocked can receive the signal and
    // take the process down before the watcher ever sees it.
    SignalWatcher::block_signals();
    ServiceDaemon daemon(daemon_options);
    const SignalWatcher signals("bgls_serve",
                                [&] { daemon.request_shutdown(); });
    daemon.start();
    std::cout << "bgls_serve: listening on "
              << daemon.endpoint().to_string() << " (jobs=" << options.jobs
              << ", queue=" << options.queue
              << (options.journal.empty() ? ""
                                          : ", journal=" + options.journal)
              << ")" << std::endl;
    daemon.wait_for_shutdown();
    std::cout << "bgls_serve: shutdown requested, draining" << std::endl;
    daemon.stop();
    if (!options.metrics_json.empty()) {
      // After stop(): every handler joined, so the dump sees the final
      // counters of the whole service lifetime.
      std::ofstream file(options.metrics_json);
      BGLS_REQUIRE(file.good(), "cannot write '", options.metrics_json, "'");
      obs::write_metrics_json(file, Session::metrics_snapshot());
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bgls_serve: " << e.what() << "\n";
    return 2;
  }
}
