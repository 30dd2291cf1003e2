/// \file sim.cpp
/// The simulation workloads, driven in-process through the public
/// Session API: sv_deep, dict_heavy and noisy_traj (see README.md for
/// why each was chosen).
///
/// A run sets up at least three times (inputs from the seed, a Session,
/// a one-repetition warm-up that creates the engine pool) and then
/// spends the time budget on closed loops over one fixed request:
/// A, one caller at threads=nproc, interleaved with B, one caller at
/// threads=1 (the RunRequest default); then C, nproc concurrent callers
/// at threads=1. Every result is checked outside the timed call.

#include <array>
#include <cmath>
#include <mutex>
#include <memory>
#include <thread>

#include "api/session.h"
#include "circuit/noise.h"
#include "channels/channels.h"
#include "circuits.h"
#include "common.h"
#include "probes.h"
#include "qasm/qasm.h"
#include "served.h"
#include "service/report.h"
#include "spans.h"
#include "statevector/state.h"
#include "stats.h"

namespace perfbench {

using namespace bgls;

namespace {

struct SimSpec {
  const char* name;
  int qubits;
  int rounds;
  std::uint64_t reps;
  bool noisy;
};

// 253 ops at 22 qubits; 222 ops at 12 qubits; 49 ops at 11 qubits.
constexpr std::array<SimSpec, 3> kSims = {{
    {"sv_deep", 22, 3, 1000, false},
    {"dict_heavy", 12, 5, 1000000, false},
    {"noisy_traj", 11, 1, 500, true},
}};

/// Per-check false-failure budget of the statistical output checks.
constexpr double kCheckAlpha = 1e-6;

struct Inputs {
  Circuit base;     // the random unitary circuit
  Circuit circuit;  // base (+ noise) + terminal measurement of every qubit
};

Inputs make_inputs(const SimSpec& spec, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + spec.qubits);
  Inputs in;
  in.base = brickwork(spec.qubits, spec.rounds, rng);
  in.circuit = measured(
      spec.noisy ? with_noise(in.base, depolarize(0.01)) : in.base,
      spec.qubits);
  return in;
}

RunRequest request_for(const Inputs& in, const SimSpec& spec,
                       std::uint64_t seed, int threads) {
  return RunRequest()
      .with_circuit(in.circuit)
      .with_repetitions(spec.reps)
      .with_seed(seed)
      .with_threads(threads);
}

struct Sample {
  double seconds = 0;
  RunResult result;
};

Sample timed_run(Session& session, RunRequest request, std::uint64_t id) {
  Sample s;
  Span span("api.Session::run", id);
  const double start = now_s();
  s.result = session.run(std::move(request));
  s.seconds = now_s() - start;
  return s;
}

/// Checks one phase's results: identical report bytes for the identical
/// request, and the histogram against the exact distribution (XEB).
class OutputChecker {
 public:
  OutputChecker(const SimSpec& spec, const Inputs& in, RunReport& report)
      : spec_(spec), report_(report) {
    if (spec.noisy) return;  // no affordable exact reference (see below)
    Span span("statevector.reference");
    StateVectorState state(spec.qubits);
    for (const Operation& op : in.base.all_operations()) state.apply(op);
    probabilities_ = state.probabilities();
    xeb_ = xeb_reference(probabilities_);
    tolerance_ = xeb_tolerance(xeb_, spec.reps, kCheckAlpha);
  }

  /// `expected` is the first report of the phase (or of a phase whose
  /// bytes this one must equal); empty = this result sets it.
  void check(const RunRequest& request, const RunResult& result,
             std::string& expected, const char* phase) {
    const std::string bytes = service::run_report_string(
        service::report_context(request, spec_.qubits), result);
    bool ok = true;
    std::string why;
    if (expected.empty()) {
      expected = bytes;
    } else if (bytes != expected) {
      ok = false;
      why = "report bytes differ from the same request's earlier report";
    }
    if (!probabilities_.empty()) {
      const double xeb = xeb_normalized(xeb_, probabilities_,
                                        result.measurements.histogram("m"));
      worst_xeb_gap_ = std::max(worst_xeb_gap_, std::fabs(xeb - 1.0));
      if (std::fabs(xeb - 1.0) > tolerance_) {
        ok = false;
        why = "XEB " + std::to_string(xeb) + " outside 1 ± " +
              std::to_string(tolerance_);
      }
    }
    report_.operation(ok, std::string(phase) + ": " + why);
  }

  void summarize() const {
    if (probabilities_.empty()) return;
    report_.note("check xeb: every histogram's normalized linear XEB against "
                 "the exact statevector distribution within 1 ± " +
                 std::to_string(tolerance_) +
                 " (Bernstein bound from the exact distribution, reps=" +
                 std::to_string(spec_.reps) + ", false-failure budget 1e-6 "
                 "per histogram); worst |XEB-1| = " +
                 std::to_string(worst_xeb_gap_));
  }

 private:
  const SimSpec& spec_;
  RunReport& report_;
  std::vector<double> probabilities_;
  XebReference xeb_;
  double tolerance_ = 0;
  double worst_xeb_gap_ = 0;
};

/// noisy_traj has no affordable exact reference (the density-matrix
/// backend needs minutes at n=11), so the threads=nproc and threads=1
/// histograms — independent samples of one distribution — must agree
/// on every qubit's marginal within a two-sample Hoeffding bound.
void two_sample_check(const SimSpec& spec, const RunResult& a,
                      const RunResult& b, RunReport& report) {
  const Counts ha = a.measurements.histogram("m");
  const Counts hb = b.measurements.histogram("m");
  const double bound =
      two_sample_bound(spec.reps, spec.reps, spec.qubits, kCheckAlpha);
  double worst = 0;
  for (int q = 0; q < spec.qubits; ++q) {
    const auto marginal = [&](const Counts& h) {
      double ones = 0;
      for (const auto& [bits, count] : h) {
        ones += ((bits >> q) & 1U) != 0 ? static_cast<double>(count) : 0.0;
      }
      return ones / static_cast<double>(spec.reps);
    };
    worst = std::max(worst, std::fabs(marginal(ha) - marginal(hb)));
  }
  report.operation(worst <= bound,
                   "two-sample marginal gap " + std::to_string(worst) +
                       " over bound " + std::to_string(bound));
  report.note("check two_sample: exact reference skipped (density matrix at "
              "n=11 too slow for set-up); threads=nproc vs threads=1 per-qubit "
              "marginals differ by at most " + std::to_string(worst) +
              " <= Hoeffding bound " + std::to_string(bound) +
              " (false-failure budget 1e-6)");
}

std::string count_note(const char* what, const std::vector<double>& v) {
  return std::string(what) + ": n=" + std::to_string(v.size()) +
         ", tail percentile used p" +
         std::to_string(static_cast<int>(100 * tail_level(v.size())));
}

}  // namespace

void run_simulation(const RunOptions& options, RunReport& report) {
  const SimSpec* found = nullptr;
  for (const SimSpec& s : kSims) {
    if (options.workload == s.name) found = &s;
  }
  const SimSpec& spec = *found;
  const std::uint64_t seed = options.seed;
  const int nproc = options.nproc;

  // --- set-up, 3 to 15 times; the first counts from process start -----
  std::vector<double> setups;
  Inputs in;
  std::unique_ptr<Session> session;
  const double setup_start = now_s();
  // At least three, and up to fifteen while they total under 0.5 s.
  for (int k = 0; k < 3 || (k < 15 && now_s() - setup_start < 0.5); ++k) {
    const double start = k == 0 ? 0.0 : now_s();
    Span span("bench.setup");
    in = make_inputs(spec, seed);
    session = std::make_unique<Session>();
    (void)session->resolve_backend(in.circuit, RunRequest());
    (void)session->run(
        request_for(in, spec, seed, nproc).with_repetitions(1));
    setups.push_back(now_s() - start);
  }
  report.note("set-up: " + std::to_string(in.circuit.num_operations()) +
              " ops at n=" + std::to_string(spec.qubits) + ", reps=" +
              std::to_string(spec.reps) + ", backend=" +
              session->resolve_backend(in.circuit, RunRequest())
                  .backend->name());

  OutputChecker checker(spec, in, report);
  const RunRequest wide = request_for(in, spec, seed, nproc);
  const RunRequest serial = request_for(in, spec, seed, 1);
  const double budget = options.seconds;

  // --- A and B, interleaved ---------------------------------------------
  // A: one caller at threads=nproc. B: one caller at threads=1. They
  // alternate, each time running the one further behind its share of
  // the budget, so host noise that comes and goes over seconds lands on
  // both. CPU time and pool tasks are taken around each call. The
  // traced run first times A with spans off, for the overhead.
  struct Loop {
    std::vector<double> times;
    std::string bytes;
    Sample last;
    double elapsed = 0;
    double cpu = 0;
    double tasks = 0;
  };
  const auto run_one = [&](Loop& loop, const RunRequest& request,
                           const char* what) {
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t tasks0 = pool_tasks();
    loop.last = timed_run(*session, request, loop.times.size());
    loop.cpu += process_cpu_seconds() - cpu0;
    loop.tasks += static_cast<double>(pool_tasks() - tasks0);
    loop.times.push_back(loop.last.seconds);
    loop.elapsed += loop.last.seconds;
    checker.check(request, loop.last.result, loop.bytes, what);
  };
  Loop a;
  Loop b;
  std::vector<double> untraced;
  if (options.trace) {
    Loop off;
    SpanRecorder::global().set_enabled(false);
    const double start = now_s();
    do {
      run_one(off, wide, "A threads=nproc, spans off");
    } while (off.times.size() < 3 || now_s() - start < 0.15 * budget);
    SpanRecorder::global().set_enabled(true);
    untraced = off.times;
    a.bytes = off.bytes;
  }
  const double a_share = options.trace ? 0.15 : 0.25;
  const double b_share = options.trace ? 0.25 : 0.4;
  {
    const double start = now_s();
    while (a.times.size() < 3 || b.times.size() < 3 ||
           now_s() - start < (a_share + b_share) * budget) {
      if (a.elapsed / a_share <= b.elapsed / b_share) {
        run_one(a, wide, "A threads=nproc");
      } else {
        run_one(b, serial, "B threads=1");
      }
    }
  }
  if (options.trace) {
    report.add("bench.trace_overhead_frac",
               median(a.times) / median(untraced) - 1.0, "frac");
  }
  // Above 1.0 means a threads=1 request still ran on several cores.
  report.note("B threads=1 used " + std::to_string(b.cpu / b.elapsed) +
              " CPU-seconds per wall second");
  const std::vector<double>& a_times = a.times;
  const std::vector<double>& b_times = b.times;
  // Before C: its nproc concurrent 1M-record results land in per-thread
  // malloc arenas in a timing-dependent way, which moved dict_heavy's
  // peak 21% (IQR over median) between runs.
  const double peak_rss = self_peak_rss_mib();

  // --- C: nproc concurrent callers, threads=1 ---------------------------
  std::vector<double> c_times;
  double c_rate = 0;
  if (!options.trace) {
    std::mutex mutex;  // guards c_times, checker and b.bytes
    std::vector<std::thread> callers;
    const double start = now_s();
    for (int c = 0; c < nproc; ++c) {
      callers.emplace_back([&, c] {
        try {
          do {
            const Sample s = timed_run(*session, serial, 1000 + c);
            const std::lock_guard<std::mutex> lock(mutex);
            c_times.push_back(s.seconds);
            checker.check(serial, s.result, b.bytes, "C concurrent threads=1");
          } while (now_s() - start < 0.35 * budget);
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(mutex);
          report.operation(false, std::string("C caller: ") + e.what());
        }
      });
    }
    for (std::thread& t : callers) t.join();
    c_rate = static_cast<double>(c_times.size()) / (now_s() - start);
  }

  // --- identity across thread counts >= 2 ------------------------------
  {
    const RunRequest two = request_for(in, spec, seed, 2);
    const RunResult r = session->run(two);
    checker.check(two, r, a.bytes, "threads=2 vs threads=nproc bytes");
  }
  checker.summarize();
  if (spec.noisy) two_sample_check(spec, a.last.result, b.last.result, report);

  if (!options.trace) {
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mib", peak_rss, "MiB");
    report.add("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "frac");
    report.add("run_s_p50", median(a_times), "s");
    report.add("run_s_t1_p50", median(b_times), "s");
    report.add("lat_low_s_p50", median(b_times), "s");
    report.add("lat_low_s_p99", quantile(b_times, tail_level(b_times.size())),
               "s");
    report.add("lat_high_s_p50", median(c_times), "s");
    report.add("lat_high_s_p99", quantile(c_times, tail_level(c_times.size())),
               "s");
    report.add("max_rate_jobs_per_s", c_rate, "1/s");
    report.note(count_note("A threads=nproc (run_s_p50)", a_times));
    report.note(count_note("B threads=1 (run_s_t1_p50, lat_low)", b_times));
    report.note(count_note("C nproc callers at threads=1 (lat_high)", c_times));
    return;
  }

  // --- traced run: per-layer metrics -------------------------------------
  const RunStats& wide_stats = a.last.result.stats;
  const RunStats& serial_stats = b.last.result.stats;
  report.add("core.prob_evals",
             static_cast<double>(serial_stats.probability_evaluations), "count");
  report.add("core.dict_peak",
             static_cast<double>(serial_stats.max_dictionary_size), "count");
  report.add("core.state_applies",
             static_cast<double>(serial_stats.state_applications), "count");
  report.add("engine.prob_evals",
             static_cast<double>(wide_stats.probability_evaluations), "count");
  report.add("engine.dict_peak",
             static_cast<double>(wide_stats.max_dictionary_size), "count");
  report.add("engine.evolve_s", wide_stats.evolve_ms / 1000.0, "s");
  report.add("engine.resample_s",
             (wide_stats.sample_ms - wide_stats.evolve_ms) / 1000.0, "s");
  report.add("engine.pool_tasks",
             a.tasks / static_cast<double>(a.times.size()), "count");
  report.add("engine.cpu_util", a.cpu / (a.elapsed * nproc), "frac");
  report.add("engine.trajectories",
             static_cast<double>(wide_stats.trajectories), "count");
  probe_engine_speedup(in.circuit, spec.reps, seed, report);

  Rng small_rng(seed + 11);
  const Circuit small = brickwork(kSims[2].qubits, kSims[2].rounds, small_rng);
  probe_statevector(in.base, spec.qubits, small, report);
  probe_front(*session, {in.circuit}, {to_qasm(in.base)}, report);

  // The service leg serves the workload's request; QASM carries no
  // channels, so noisy_traj serves its noiseless base circuit.
  service::SubmitArgs args;
  args.qasm = to_qasm(measured(in.base, spec.qubits));
  args.repetitions = spec.reps;
  args.seed = seed;
  args.threads = nproc;
  serve_workload_request(options, args, report);
  probe_journal_append(std::vector<std::size_t>(50, args.qasm.size() + 200),
                       report);
  report.note("service.*: the workload's request served through a spawned "
              "fleet (1 worker), then its exact repeat (a cache hit)" +
              std::string(spec.noisy ? "; noiseless base circuit, QASM has "
                                       "no channels"
                                     : ""));
}

}  // namespace perfbench
