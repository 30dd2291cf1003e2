#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

double self_peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_peak_rss_mib(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double sweep_gbps(std::size_t bytes, int passes) {
  const auto n = static_cast<long>(bytes / sizeof(double));
  const std::unique_ptr<double[]> data(new double[static_cast<std::size_t>(n)]);
  double* a = data.get();
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (long i = 0; i < n; ++i) a[i] = 1.0;  // first touch, same partition
  // Each timed pass sweeps the array `reps` times, at least 256 MiB of
  // traffic, so a cache-sized array is not timed by the fork alone. The
  // static schedule without a barrier keeps every thread on its own
  // chunk, as the kernels' amplitude blocks are.
  const int reps = static_cast<int>(
      std::max<std::size_t>(1, (std::size_t{256} << 20) / bytes));
  std::vector<double> rates;
  for (int pass = 0; pass < passes; ++pass) {
    const double start = now_s();
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel
#endif
    for (int r = 0; r < reps; ++r) {
#ifdef BGLS_HAVE_OPENMP
#pragma omp for schedule(static) nowait
#endif
      for (long i = 0; i < n; ++i) a[i] = a[i] * 0.999 + 0.001;
    }
    const double seconds = now_s() - start;
    rates.push_back(2.0 * static_cast<double>(bytes) * reps / seconds / 1e9);
  }
  volatile double sink = a[n / 2];  // keep the passes observable
  (void)sink;
  return median(rates);
}

std::uint64_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::uint64_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::uint64_t>(l2) : 0;
}

}  // namespace perfbench
