/// \file stats.h
/// The benchmark's own arithmetic: percentiles, the XEB acceptance
/// bound, the two-sample bound, span self time, and open-loop due-time
/// latency. Everything here is pure so `self_check()` (selfcheck.cpp)
/// can pin it against hand-computed cases before any measurement runs.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (the "type 7" rule of R and NumPy) of
/// an unsorted sample; q in [0, 1]. NaN for an empty sample.
double quantile(std::vector<double> values, double q);

double median(const std::vector<double>& values);

/// The tail percentile a sample of size n supports: the highest of
/// p99, p95, p90 that leaves at least ten samples beyond it, else the
/// median. A metric named `*_p99` holds this value and the output
/// states the level used with the sample count.
double tail_level(std::size_t n);

/// What the exact output distribution p (length 2^n) implies for
/// normalized linear cross-entropy (XEB) checks.
struct XebReference {
  double dimension = 0;  // D = 2^n
  double sum_p2 = 0;     // Σ p²
  double sum_p3 = 0;     // Σ p³
  double p_max = 0;
};

XebReference xeb_reference(const std::vector<double>& probabilities);

/// Normalized linear XEB of a histogram against the exact distribution:
/// (mean p(x) over samples − 1/D) / (Σp² − 1/D). Exactly 1 in
/// expectation for a sampler that draws from p, 0 for a uniform one.
double xeb_normalized(const XebReference& ref,
                      const std::vector<double>& probabilities,
                      const std::map<std::uint64_t, std::uint64_t>& counts);

/// Largest |XEB − 1| an exact sampler exceeds with probability at most
/// `alpha` over `reps` samples: Bernstein's inequality on the sample
/// mean of p(X), with variance Σp³ − (Σp²)² and range p_max taken from
/// the exact distribution, divided by the XEB normalizer.
double xeb_tolerance(const XebReference& ref, std::uint64_t reps,
                     double alpha);

/// Hoeffding bound on |mean_a − mean_b| for two independent samples of
/// [0, 1] values (sizes na, nb) drawn from one distribution, with the
/// false-failure budget alpha split over `tests` comparisons.
double two_sample_bound(std::uint64_t na, std::uint64_t nb, std::size_t tests,
                        double alpha);

/// A closed time interval [start, end], seconds.
using Interval = std::pair<double, double>;

/// Length of the union of intervals.
double coverage(std::vector<Interval> intervals);

/// A span's self time: its duration minus the part of it that its
/// children cover (children are clipped to the parent first).
double self_time(const Interval& parent, const std::vector<Interval>& children);

/// Open-loop latency: from when the request was *due* to when its
/// result arrived, so a stalled generator or server charges the wait
/// to every request behind it. A failed request counts as over any
/// limit (+infinity).
inline double due_latency(double due, double done, bool ok) {
  return ok ? done - due : std::numeric_limits<double>::infinity();
}

/// Poisson arrival offsets (seconds from 0) whose rate rises linearly
/// from rate0 to rate1 over `duration` (rate0 == rate1 gives a plain
/// Poisson process). Deterministic for a given seed.
std::vector<double> poisson_schedule(double rate0, double rate1,
                                     double duration, std::uint64_t seed);

/// Offered rate at time t of the schedule above.
inline double ramp_rate(double rate0, double rate1, double duration,
                        double t) {
  return rate0 + (rate1 - rate0) * (t / duration);
}

/// On a ramp, the highest offered rate that still meets `limit`:
/// requests are taken in due order in windows of `window`; the answer
/// is the offered rate at the end of the last passing window before the
/// first two consecutive windows whose tail latency (tail_level(window))
/// exceeds the limit. A backlog that grows shows up as latency that
/// keeps rising, so it fails every later window; a lone failing window
/// is a stall and does not end the search. Returns rate1 when the
/// limit is never exceeded twice running (censored).
double max_rate_on_ramp(const std::vector<double>& due,
                        const std::vector<double>& latency, double rate0,
                        double rate1, double duration, double limit,
                        std::size_t window);

/// Runs every arithmetic check above on hand-computed cases; returns
/// the failures (empty = pass).
std::vector<std::string> self_check();

}  // namespace perfbench
