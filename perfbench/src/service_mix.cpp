/// \file service_mix.cpp
/// The service_mix workload: the real bgls_fleet front with two
/// bgls_serve workers, driven by a single-process open-loop generator
/// (seeded Poisson arrivals; one submitter connection, three waiting on
/// reports). Jobs are small QASM circuits spanning kAuto's routes —
/// dense → statevector, Clifford → stabilizer, 1-D low-entangling →
/// mps — so protocol, placement/proxy, queueing, journal fsync and
/// report rendering dominate, not simulation. About a third of the
/// submissions repeat a recent request exactly (result-cache reads
/// beside journal writes) and a quarter carry threads=2, as
/// `bgls_client --threads` users send.
///
/// Every report is compared byte for byte with what an in-process
/// Session gives for that exact request. Before the load, a fixed-order
/// cache-contract probe goes straight to one worker: a request at
/// threads=2, then the same request at threads=1.

#include <future>
#include <limits>
#include <map>

#include "api/session.h"
#include "circuits.h"
#include "common.h"
#include "fleet.h"
#include "probes.h"
#include "qasm/qasm.h"
#include "served.h"
#include "service/client.h"
#include "service/report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

using namespace bgls;
using service::SubmitArgs;

namespace {

/// Offered rates, jobs/s. Both fixed rates sit well below the capacity
/// of two --jobs 1 workers on this mix (400 to 800 jobs/s on a shared
/// 4-core host), where the client, the front and the workers still
/// leave the cores some slack; the ramp climbs past it.
constexpr double kLowRate = 100;
constexpr double kHighRate = 200;
constexpr double kRampTop = 1400;
/// The tail-latency limit max_rate_jobs_per_s is judged against.
constexpr double kLatencyLimit = 0.050;
/// Requests judged together on the ramp (tail level p90).
constexpr std::size_t kRampWindow = 150;
constexpr double kRampSeconds = 2.0;
/// Length of one low or high segment: long enough that a low segment
/// holds ~200 requests, so its tail is a p95.
constexpr double kSegmentSeconds = 2.0;
/// Outstanding requests at which the ramp declares a growing backlog
/// and stops (below the two workers' queue bounds, 64 each). The fixed
/// rates never stop: there a backlog shows as latency and rejections.
constexpr std::size_t kMaxInFlight = 96;
constexpr int kWaiters = 3;
/// Passes over the in-process requests behind run_s_p50/run_s_t1_p50.
constexpr int kPasses = 9;
/// Repeats are drawn from this many most recent distinct requests, so
/// the workers' result caches (512 entries) still hold them.
constexpr std::size_t kRepeatWindow = 200;

struct MixCircuit {
  std::string route;  // the backend kAuto picks for it
  Circuit circuit;
  std::string qasm;
  std::uint64_t reps;
};

/// Six circuits per route on fixed layouts (so the mix's cost does not
/// swing with the seed), each simulating in about 1 to 2 ms on one core.
std::vector<MixCircuit> make_pool(std::uint64_t seed) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 17);
  const Session session;
  std::vector<MixCircuit> pool;
  for (int i = 0; i < 6; ++i) {
    for (Circuit c : {measured(brickwork(10, 1, rng), 10),
                      measured(clifford_brickwork(12, 1, rng), 12),
                      measured(chain(10, rng), 10)}) {
      const std::uint64_t reps = pool.size() % 3 == 2 ? 8 : 100;
      const std::string route =
          session.resolve_backend(c, RunRequest().with_repetitions(reps))
              .backend->name();
      pool.push_back({route, c, to_qasm(c), reps});
    }
  }
  return pool;
}

/// Draws `count` submissions: a third repeat a recent one exactly.
std::vector<SubmitArgs> make_jobs(std::size_t count,
                                  const std::vector<MixCircuit>& pool,
                                  Rng& rng, std::vector<SubmitArgs>& history) {
  std::vector<SubmitArgs> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    SubmitArgs args;
    if (!history.empty() && rng.uniform() < 1.0 / 3.0) {
      const std::size_t recent = std::min(history.size(), kRepeatWindow);
      args = history[history.size() - 1 - rng.uniform_int(recent)];
    } else {
      const MixCircuit& c = pool[rng.uniform_int(pool.size())];
      args.qasm = c.qasm;
      args.repetitions = c.reps;
      args.seed = rng.uniform_int(1ULL << 53);
      args.threads = rng.uniform() < 0.25 ? 2 : 1;
      history.push_back(args);
    }
    jobs.push_back(std::move(args));
  }
  return jobs;
}

/// Spawns the workers and the front, then waits for one job through it.
std::unique_ptr<ServiceFleet> start_fleet(const RunOptions& options,
                                          const MixCircuit& warm) {
  Span span("bench.setup");
  auto fleet = std::make_unique<ServiceFleet>(options.tools_dir, 2);
  service::ServiceClient client(fleet->front());
  SubmitArgs args;
  args.qasm = warm.qasm;
  args.repetitions = warm.reps;
  (void)client.wait_report(client.submit(args));
  return fleet;
}

struct Phase {
  std::vector<SubmitArgs> jobs;
  std::vector<double> due;
  std::vector<Outcome> outcomes;
};

Phase run_phase(const service::Endpoint& front, double rate0, double rate1,
                double seconds, std::uint64_t seed,
                const std::vector<MixCircuit>& pool, Rng& rng,
                std::vector<SubmitArgs>& history, bool ramp) {
  Phase p;
  p.due = poisson_schedule(rate0, rate1, seconds, seed);
  p.jobs = make_jobs(p.due.size(), pool, rng, history);
  p.outcomes = drive_open_loop(
      front, p.jobs, p.due, kWaiters,
      ramp ? kMaxInFlight : std::numeric_limits<std::size_t>::max());
  return p;
}

/// Latency of every attempted request of a phase; failures are +inf.
std::vector<double> latencies(const Phase& p) {
  std::vector<double> out;
  for (const Outcome& o : p.outcomes) {
    if (o.attempted) out.push_back(due_latency(o.due, o.done, o.ok));
  }
  return out;
}

/// In-process reference reports for every distinct request, computed
/// on `threads` threads (outside any timed section).
std::map<std::string, std::string> reference_reports(
    const std::vector<SubmitArgs>& requests, int threads) {
  std::map<std::string, std::size_t> index;  // submit line → slot
  std::vector<const SubmitArgs*> distinct;
  for (const SubmitArgs& args : requests) {
    if (index.emplace(service::submit_request_line(args), distinct.size())
            .second) {
      distinct.push_back(&args);
    }
  }
  std::vector<std::string> reports(distinct.size());
  std::vector<std::future<void>> parts;
  for (int t = 0; t < threads; ++t) {
    parts.push_back(std::async(std::launch::async, [&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < distinct.size();
           i += static_cast<std::size_t>(threads)) {
        reports[i] = reference_report(*distinct[i]);
      }
    }));
  }
  for (auto& part : parts) part.get();
  std::map<std::string, std::string> out;
  for (const auto& [line, slot] : index) out.emplace(line, reports[slot]);
  return out;
}

using Segments = std::vector<std::pair<std::string, Phase>>;

/// The fewest requests any `kind` segment holds.
std::size_t smallest_segment(const Segments& segments,
                             const std::string& kind) {
  std::size_t smallest = std::numeric_limits<std::size_t>::max();
  for (const auto& [k, p] : segments) {
    if (k == kind) smallest = std::min(smallest, latencies(p).size());
  }
  return smallest;
}

/// Median over the `kind` segments of each segment's latency quantile
/// at `level`; level 0 takes the tail level the smallest segment
/// supports (the highest percentile with ten samples beyond it).
double segment_median(const Segments& segments, const std::string& kind,
                      double level) {
  if (level == 0) level = tail_level(smallest_segment(segments, kind));
  std::vector<double> per_segment;
  for (const auto& [k, p] : segments) {
    if (k == kind) per_segment.push_back(quantile(latencies(p), level));
  }
  return median(per_segment);
}

std::string segment_note(const Segments& segments, const std::string& kind,
                         double rate) {
  std::size_t count = 0;
  std::size_t total = 0;
  for (const auto& [k, p] : segments) {
    if (k != kind) continue;
    ++count;
    total += latencies(p).size();
  }
  const std::size_t smallest = smallest_segment(segments, kind);
  return kind + " " + std::to_string(static_cast<int>(rate)) + "/s: " +
         std::to_string(count) + " segments of " +
         std::to_string(static_cast<int>(kSegmentSeconds)) + " s, " +
         std::to_string(total) + " requests; p99 slot = median over segments "
         "of each segment's p" +
         std::to_string(static_cast<int>(100 * tail_level(smallest))) +
         " (the highest percentile with ten samples beyond it at n=" +
         std::to_string(smallest) + ")";
}

}  // namespace

void run_service_mix(const RunOptions& options, RunReport& report) {
  const std::vector<MixCircuit> pool = make_pool(options.seed);
  Rng rng(options.seed * 0xA0761D6478BD642FULL + 5);
  std::vector<SubmitArgs> history;
  const double budget = options.seconds;
  {
    std::map<std::string, int> routes;
    for (const MixCircuit& c : pool) ++routes[c.route];
    std::string line = "mix routes (kAuto):";
    for (const auto& [route, count] : routes) {
      line += " " + route + "=" + std::to_string(count);
    }
    report.note(line);
  }

  // --- set-up: spawn until fleet and workers serve, 3 to 15 times -----
  std::vector<double> setups;
  std::unique_ptr<ServiceFleet> fleet;
  const double setup_start = now_s();
  for (int k = 0; k < 3 || (k < 15 && now_s() - setup_start < 0.5); ++k) {
    if (fleet) fleet->stop();
    const double start = now_s();
    fleet = start_fleet(options, pool.front());
    setups.push_back(now_s() - start);
  }
  const service::Endpoint front = fleet->front();

  // --- cache-contract probe, straight to worker 0, fixed order ----------
  std::vector<std::pair<SubmitArgs, std::string>> probe;
  {
    service::ServiceClient worker(fleet->worker(0));
    for (std::size_t route = 0; route < 3; ++route) {
      SubmitArgs args;
      args.qasm = pool[route].qasm;
      args.repetitions = pool[route].reps;
      args.seed = 1000 + route;
      for (const int threads : {2, 1}) {
        args.threads = threads;
        std::string got;
        try {
          got = worker.wait_report(worker.submit(args));
        } catch (const std::exception& e) {
          got = std::string("error: ") + e.what();
        }
        probe.emplace_back(args, got);
      }
    }
  }

  // --- load ---------------------------------------------------------------
  // Two-second segments alternate low and high so both rates see the
  // same host conditions; each rate's figures are medians over its
  // segments, so one stalled second moves a figure by one segment's
  // worth at most. Then three short ramps, whose max rates give the
  // median. The traced run alternates untraced and traced low segments
  // for the overhead, then traced high ones, and has no ramp.
  const Scrape before = scrape(front);
  std::vector<std::pair<std::string, Phase>> segments;
  const auto segment = [&](const std::string& kind, double rate0,
                           double rate1, double seconds) {
    segments.emplace_back(
        kind, run_phase(front, rate0, rate1, seconds,
                        options.seed * 1000 + segments.size(), pool, rng,
                        history, kind == "ramp"));
  };
  if (options.trace) {
    const int rounds =
        std::max(2, static_cast<int>(0.9 * budget / (3 * kSegmentSeconds)));
    for (int k = 0; k < rounds; ++k) {
      SpanRecorder::global().set_enabled(false);
      segment("low_untraced", kLowRate, kLowRate, kSegmentSeconds);
      SpanRecorder::global().set_enabled(true);
      segment("low", kLowRate, kLowRate, kSegmentSeconds);
      segment("high", kHighRate, kHighRate, kSegmentSeconds);
    }
  } else {
    const int pairs =
        std::max(2, static_cast<int>(0.7 * budget / (2 * kSegmentSeconds)));
    for (int k = 0; k < pairs; ++k) {
      segment("low", kLowRate, kLowRate, kSegmentSeconds);
      segment("high", kHighRate, kHighRate, kSegmentSeconds);
    }
    for (int k = 0; k < 3; ++k) {
      segment("ramp", kHighRate, kRampTop, kRampSeconds);
    }
  }
  const Scrape after = scrape(front);

  std::vector<Outcome> served;
  for (const auto& [kind, p] : segments) {
    if (kind != "low_untraced") {
      served.insert(served.end(), p.outcomes.begin(), p.outcomes.end());
    }
  }
  if (options.trace) {
    add_service_metrics(front, served, before, after, 50, report);
    report.add("bench.trace_overhead_frac",
               segment_median(segments, "low", 0.5) /
                       segment_median(segments, "low_untraced", 0.5) -
                   1.0,
               "frac");
  }
  const double fleet_rss = fleet->peak_rss_mib();
  fleet->stop();

  // --- checks: every report against the in-process Session -------------
  std::vector<SubmitArgs> all_requests;
  for (const auto& [args, got] : probe) all_requests.push_back(args);
  for (const auto& [kind, p] : segments) {
    all_requests.insert(all_requests.end(), p.jobs.begin(), p.jobs.end());
  }
  const std::map<std::string, std::string> reference =
      reference_reports(all_requests, options.nproc);
  const auto expected = [&](const SubmitArgs& args) -> const std::string& {
    return reference.at(service::submit_request_line(args));
  };
  for (const auto& [args, got] : probe) {
    const bool ok = got == expected(args);
    report.operation(ok, "cache-contract probe: threads=" +
                             std::to_string(args.threads) +
                             " report differs from bgls_run for that request");
    report.note("cache-contract probe (" + pool[args.seed - 1000].route +
                ", " +
                (args.threads == 2 ? "first, threads=2" : "then threads=1") +
                "): " + (ok ? "matches bgls_run" : "DIFFERS from bgls_run"));
  }
  std::vector<double> lag;
  std::size_t mismatched = 0;
  for (const auto& [kind, p] : segments) {
    for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
      const Outcome& o = p.outcomes[i];
      if (!o.attempted) continue;
      lag.push_back(o.sent - o.due);
      const bool ok = o.ok && o.report == expected(p.jobs[i]);
      if (o.ok && !ok) ++mismatched;
      report.operation(ok, kind + " job " + std::to_string(i) + ": " +
                               (o.ok ? "report differs from bgls_run"
                                     : o.error));
    }
  }
  report.note("check reports: " + std::to_string(reference.size()) +
              " distinct requests byte-compared with the in-process Session "
              "report; " + std::to_string(mismatched) + " served reports "
              "differ");

  // --- simulation cost of the mix without the service -------------------
  // Twenty distinct requests per route, nine passes at threads=nproc
  // and at threads=1; a pass's figure is its mean per request (the
  // routes' costs differ by 10x, so a per-request median would jump
  // between them with the mix's proportions). nproc bytes must equal
  // the threads=2 reference, threads=1 bytes the threads=1 one.
  std::vector<SubmitArgs> timed;
  {
    std::map<std::string, int> per_route;
    for (const SubmitArgs& args : history) {
      for (const MixCircuit& c : pool) {
        if (c.qasm == args.qasm && per_route[c.route] < 20) {
          ++per_route[c.route];
          timed.push_back(args);
          break;
        }
      }
    }
  }
  Session session;
  std::vector<double> wide_passes;
  std::vector<double> serial_passes;
  RunStats wide_sum;
  RunStats serial_sum;
  const std::uint64_t tasks0 = pool_tasks();
  double wide_wall = 0;
  double wide_cpu = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const int threads : {options.nproc, 1}) {
      const double cpu0 = process_cpu_seconds();
      const double pass_start = now_s();
      double total = 0;
      for (std::size_t i = 0; i < timed.size(); ++i) {
        SubmitArgs args = timed[i];
        args.threads = threads;
        RunRequest request = service::parse_submit(
            JsonValue::parse(service::submit_request_line(args)));
        const auto context =
            service::report_context(request, request.circuit.num_qubits());
        const double start = now_s();
        RunResult result;
        {
          Span span("api.Session::run", i);
          result = session.run(std::move(request));
        }
        total += now_s() - start;
        if (pass == 0) {
          RunStats& sum = threads == 1 ? serial_sum : wide_sum;
          sum.probability_evaluations += result.stats.probability_evaluations;
          sum.max_dictionary_size += result.stats.max_dictionary_size;
          sum.state_applications += result.stats.state_applications;
          sum.trajectories += result.stats.trajectories;
          sum.evolve_ms += result.stats.evolve_ms;
          sum.sample_ms += result.stats.sample_ms;
        }
        SubmitArgs same = timed[i];
        same.threads = threads == 1 ? 1 : 2;
        if (reference.count(service::submit_request_line(same)) == 0) continue;
        report.operation(
            service::run_report_string(context, result) == expected(same),
            "in-process threads=" + std::to_string(threads) +
                " report differs from threads=" +
                std::to_string(same.threads));
      }
      const double mean = total / static_cast<double>(timed.size());
      (threads == 1 ? serial_passes : wide_passes).push_back(mean);
      if (threads != 1) {
        wide_wall += now_s() - pass_start;
        wide_cpu += process_cpu_seconds() - cpu0;
      }
    }
  }
  const double wide_tasks = static_cast<double>(pool_tasks() - tasks0);

  if (!options.trace) {
    std::vector<double> ramp_rates;
    std::size_t ramp_attempted = 0;
    for (const auto& [kind, p] : segments) {
      if (kind != "ramp") continue;
      std::vector<double> lat;
      std::vector<double> due;
      for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
        const Outcome& o = p.outcomes[i];
        if (!o.attempted) continue;
        due.push_back(p.due[i]);
        lat.push_back(due_latency(o.due, o.done, o.ok));
      }
      ramp_attempted += lat.size();
      ramp_rates.push_back(max_rate_on_ramp(due, lat, kHighRate, kRampTop,
                                            kRampSeconds, kLatencyLimit,
                                            kRampWindow));
    }
    const double max_rate = median(ramp_rates);
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mib", fleet_rss, "MiB");
    report.add("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "frac");
    report.add("run_s_p50", median(wide_passes), "s");
    report.add("run_s_t1_p50", median(serial_passes), "s");
    report.add("lat_low_s_p50", segment_median(segments, "low", 0.5), "s");
    report.add("lat_low_s_p99", segment_median(segments, "low", 0), "s");
    report.add("lat_high_s_p50", segment_median(segments, "high", 0.5), "s");
    report.add("lat_high_s_p99", segment_median(segments, "high", 0), "s");
    report.add("max_rate_jobs_per_s", max_rate, "1/s");
    report.note(segment_note(segments, "low", kLowRate));
    report.note(segment_note(segments, "high", kHighRate));
    report.note("ramps " + std::to_string(static_cast<int>(kHighRate)) +
                "->" + std::to_string(static_cast<int>(kRampTop)) +
                "/s over " + std::to_string(static_cast<int>(kRampSeconds)) +
                " s, " +
                std::to_string(ramp_rates.size()) + " of them, " +
                std::to_string(ramp_attempted) +
                " requests attempted; limit p" +
                std::to_string(static_cast<int>(100 * tail_level(kRampWindow))) +
                " <= " + std::to_string(kLatencyLimit) + " s per " +
                std::to_string(kRampWindow) + " requests; median of " +
                std::to_string(ramp_rates.size()) + " ramps" +
                (max_rate >= kRampTop ? " (censored: never exceeded)" : ""));
    report.note("run_s: mean per request over " +
                std::to_string(timed.size()) +
                " distinct mix requests in-process, median of " +
                std::to_string(kPasses) + " passes");
    return;
  }

  // --- traced run: per-layer metrics -------------------------------------
  const double requests = static_cast<double>(timed.size());
  report.add("core.prob_evals",
             static_cast<double>(serial_sum.probability_evaluations) / requests,
             "count");
  report.add("core.dict_peak",
             static_cast<double>(serial_sum.max_dictionary_size) / requests,
             "count");
  report.add("core.state_applies",
             static_cast<double>(serial_sum.state_applications) / requests,
             "count");
  report.add("engine.prob_evals",
             static_cast<double>(wide_sum.probability_evaluations) / requests,
             "count");
  report.add("engine.dict_peak",
             static_cast<double>(wide_sum.max_dictionary_size) / requests,
             "count");
  report.add("engine.evolve_s", wide_sum.evolve_ms / 1000.0 / requests, "s");
  report.add("engine.resample_s",
             (wide_sum.sample_ms - wide_sum.evolve_ms) / 1000.0 / requests,
             "s");
  report.add("engine.pool_tasks", wide_tasks / (kPasses * requests),
             "count");
  report.add("engine.cpu_util", wide_cpu / (wide_wall * options.nproc),
             "frac");
  report.add("engine.trajectories",
             static_cast<double>(wide_sum.trajectories) / requests, "count");
  const MixCircuit& dense = pool.front();
  probe_engine_speedup(dense.circuit, dense.reps, options.seed, report);

  Rng small_rng(options.seed + 11);
  Circuit body;
  for (const Operation& op : dense.circuit.all_operations()) {
    if (op.gate().is_unitary()) body.append(op);
  }
  probe_statevector(body, dense.circuit.num_qubits(),
                    brickwork(11, 2, small_rng), report);
  std::vector<Circuit> circuits;
  std::vector<std::string> texts;
  std::vector<std::size_t> sizes;
  for (const MixCircuit& c : pool) {
    circuits.push_back(c.circuit);
    texts.push_back(c.qasm);
  }
  for (const SubmitArgs& args : history) {
    sizes.push_back(service::submit_request_line(args).size());
    if (sizes.size() == 100) break;
  }
  probe_front(session, circuits, texts, report);
  probe_journal_append(sizes, report);
  report.add("bench.gen_lag_s_p99", quantile(lag, tail_level(lag.size())), "s");
}

}  // namespace perfbench
