/// \file fleet.h
/// Spawns the real service from the tree under test: N `bgls_serve`
/// workers (`--jobs 1 --cache --journal`) behind one `bgls_fleet`
/// front, all on Unix sockets in the working directory. The processes
/// die with the benchmark (PR_SET_PDEATHSIG) and are stopped and reaped
/// by the destructor.

#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "service/socket.h"

namespace perfbench {

class ServiceFleet {
 public:
  /// Spawns and waits until the workers and the front accept
  /// connections; throws when one does not within ten seconds.
  ServiceFleet(const std::string& tools_dir, int workers);
  ~ServiceFleet();
  ServiceFleet(const ServiceFleet&) = delete;
  ServiceFleet& operator=(const ServiceFleet&) = delete;

  [[nodiscard]] bgls::service::Endpoint front() const;
  [[nodiscard]] bgls::service::Endpoint worker(int index) const;

  /// Summed peak RSS (VmHWM) of the front and the workers, MiB.
  [[nodiscard]] double peak_rss_mib() const;

  /// SIGTERM (graceful: journals flush), then SIGKILL after 5 s; reaps.
  void stop();

 private:
  std::vector<pid_t> pids_;  // workers first, front last
};

}  // namespace perfbench
