/// \file served.h
/// Driving the spawned service: the open-loop generator, counter
/// scrapes, and the service.* per-layer metrics derived from them.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "service/protocol.h"
#include "service/socket.h"

namespace perfbench {

/// One submission's life as the client saw it (seconds on now_s()).
struct Outcome {
  double due = 0;
  double sent = 0;
  double acked = 0;
  double done = 0;
  bool attempted = false;  // false: the ramp stopped before this one
  bool ok = false;
  std::uint64_t job = 0;
  std::string report;
  std::string error;
};

/// Open loop: one submitter connection sends requests[i] at
/// start + due[i] whatever the backlog, and `waiters` further
/// connections wait on the reports. When more than `max_in_flight`
/// requests are outstanding the generator stops (a growing backlog);
/// the remaining requests are not attempted.
std::vector<Outcome> drive_open_loop(
    const bgls::service::Endpoint& front,
    const std::vector<bgls::service::SubmitArgs>& requests,
    const std::vector<double>& due, int waiters, std::size_t max_in_flight);

/// Sums of the service's Prometheus series (label sets folded), as
/// scraped from the front (which merges its workers).
using Scrape = std::map<std::string, double>;
Scrape scrape(const bgls::service::Endpoint& front);

/// The service.* metrics (except journal_append_us) from a set of
/// outcomes and the scrapes around them; fetches the `trace` op tree of
/// up to `traced_jobs` jobs for service.unattributed_frac.
void add_service_metrics(const bgls::service::Endpoint& front,
                         const std::vector<Outcome>& outcomes,
                         const Scrape& before, const Scrape& after,
                         std::size_t traced_jobs, RunReport& report);

/// The canonical report an in-process Session gives for `args` — what
/// bgls_run prints for the same request.
std::string reference_report(const bgls::service::SubmitArgs& args);

/// Serves one workload request through a spawned fleet with one worker
/// (the request, then its exact repeat, which the result cache answers)
/// and adds the service.* metrics for it.
void serve_workload_request(const RunOptions& options,
                            const bgls::service::SubmitArgs& args,
                            RunReport& report);

}  // namespace perfbench
