/// \file common.h
/// What every workload runner shares: the run's options, the result it
/// fills in, and the few host probes (RSS, CPU time, memory sweep).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
  /// Where bgls_serve and bgls_fleet were built (absolute).
  std::string tools_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome. Every request the benchmark makes is attempted
/// once; a throw, a rejection or a failed output check marks it failed.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines: check verdicts, sample counts, anomalies.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Counts one attempted operation; records `what` when it failed.
  void operation(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("FAILED: " + what);
    }
  }
};

/// Peak resident set of this process, MiB.
double self_peak_rss_mib();

/// Peak resident set of another process (VmHWM), MiB; 0 if unreadable.
double process_peak_rss_mib(int pid);

/// User + system CPU seconds this process has used.
double process_cpu_seconds();

/// Read+write sweep over `bytes` of memory with every OpenMP thread:
/// the roofline the statevector kernels are compared against. Returns
/// the median GB/s over `passes` passes.
double sweep_gbps(std::size_t bytes, int passes);

/// Last-level cache size in bytes as the OS reports it (0 = unknown).
std::uint64_t llc_bytes();

void run_simulation(const RunOptions& options, RunReport& report);
void run_service_mix(const RunOptions& options, RunReport& report);

}  // namespace perfbench
