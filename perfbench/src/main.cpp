/// \file main.cpp
/// perfbench — the repository's single benchmark binary (see
/// perfbench/README.md for the workloads, metrics and predictions).
///
///   perfbench --workload sv_deep --seed 1 --seconds 12 --trace 0
///             --tools-dir <dir with bgls_serve and bgls_fleet>
///             [--source-id ID]
///
/// Prints host context, every metric by name with its unit, the output
/// check verdicts, and as the last line one JSON object
/// {"correct","attempted","failed","metrics"}. `--trace 0` reports the
/// end-to-end metrics; `--trace 1` runs the workload again with the
/// benchmark's spans on and reports the per-layer metrics, writing the
/// spans to spans.json in the working directory.

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_guard.h"
#include "common.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "spans.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tools-dir DIR [--source-id ID]\n"
               "workloads: sv_deep dict_heavy noisy_traj service_mix\n";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

std::string host_context(const RunOptions& options,
                         const std::string& source_id) {
  const double sweep = sweep_gbps(std::size_t{64} << 20, 5);
  std::ostringstream os;
  os << "{\"nproc\":" << options.nproc
     << ",\"l1d_bytes\":" << sysconf(_SC_LEVEL1_DCACHE_SIZE)
     << ",\"l2_bytes\":" << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ",\"llc_bytes\":" << llc_bytes()
     << ",\"sweep_64mib_gbps\":" << json_number(sweep)
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
#ifdef BGLS_HAVE_OPENMP
     << ",\"openmp\":true"
#else
     << ",\"openmp\":false"
#endif
#ifdef PERFBENCH_AVX2
     << ",\"avx2\":true"
#else
     << ",\"avx2\":false"
#endif
     << ",\"telemetry\":"
     << (bgls::obs::kTelemetryCompiled ? "true" : "false")
     << ",\"source_id\":\"" << source_id << "\""
     << ",\"workload\":\"" << options.workload << "\""
     << ",\"seed\":" << options.seed
     << ",\"seconds\":" << options.seconds
     << ",\"trace\":" << (options.trace ? 1 : 0) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  BGLS_REQUIRE_RELEASE_BENCH("perfbench");
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  RunOptions options;
  std::string source_id = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--tools-dir") {
      options.tools_dir = value;
    } else if (arg == "--source-id") {
      source_id = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || options.seconds <= 0 || options.tools_dir.empty()) {
    usage();
    return 2;
  }

  const std::vector<std::string> arithmetic = self_check();
  if (!arithmetic.empty()) {
    for (const std::string& line : arithmetic) {
      std::cerr << "perfbench self-check failed: " << line << "\n";
    }
    return 3;
  }

  options.nproc = bgls::ThreadPool::resolve_num_threads(0);

  RunReport report;
  SpanRecorder::global().set_enabled(options.trace);
  try {
    if (options.workload == "service_mix") {
      run_service_mix(options, report);
    } else if (options.workload == "sv_deep" ||
               options.workload == "dict_heavy" ||
               options.workload == "noisy_traj") {
      run_simulation(options, report);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  SpanRecorder::global().set_enabled(false);

  // After the workload, so the sweep's 64 MiB buffer stays out of the
  // workload's peak RSS.
  std::cout << "host: " << host_context(options, source_id) << "\n";
  std::cout << "self-check: arithmetic ok (percentiles, XEB bound, "
               "two-sample bound, self time, due-time latency, ramp)\n";
  if (options.trace) {
    std::ofstream spans("spans.json");
    SpanRecorder::global().write_json(spans);
    std::cout << "spans: " << SpanRecorder::global().spans().size()
              << " written to spans.json\n";
  }
  for (const std::string& line : report.notes) {
    std::cout << "note: " << line << "\n";
  }
  std::ostringstream metrics;
  bool first = true;
  for (const Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
    metrics << (first ? "" : ", ") << "\"" << m.name
            << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
            << m.unit << "\"}";
    first = false;
  }
  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
