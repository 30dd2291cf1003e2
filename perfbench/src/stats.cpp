#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // A failed request is +inf; interpolating toward it must not give NaN.
  if (frac == 0.0 || std::isinf(values[hi])) {
    return frac == 0.0 ? values[lo] : values[hi];
  }
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double tail_level(std::size_t n) {
  for (const double level : {0.99, 0.95, 0.90}) {
    if (static_cast<double>(n) * (1.0 - level) >= 10.0 - 1e-9) return level;
  }
  return 0.5;
}

XebReference xeb_reference(const std::vector<double>& probabilities) {
  XebReference ref;
  ref.dimension = static_cast<double>(probabilities.size());
  for (const double p : probabilities) {
    ref.sum_p2 += p * p;
    ref.sum_p3 += p * p * p;
    ref.p_max = std::max(ref.p_max, p);
  }
  return ref;
}

double xeb_normalized(const XebReference& ref,
                      const std::vector<double>& probabilities,
                      const std::map<std::uint64_t, std::uint64_t>& counts) {
  double weighted = 0.0;
  double total = 0.0;
  for (const auto& [bits, count] : counts) {
    weighted += static_cast<double>(count) * probabilities.at(bits);
    total += static_cast<double>(count);
  }
  const double uniform = 1.0 / ref.dimension;
  return (weighted / total - uniform) / (ref.sum_p2 - uniform);
}

double xeb_tolerance(const XebReference& ref, std::uint64_t reps,
                     double alpha) {
  // Bernstein: P(|mean − μ| ≥ t) ≤ 2 exp(−R t² / (2v + 2bt/3)), with
  // v = Var p(X) and b ≥ |p(X) − μ|. Setting the right side to alpha
  // and solving R t² − (2bL/3) t − 2vL = 0 for t, L = ln(2/alpha).
  const double variance = std::max(0.0, ref.sum_p3 - ref.sum_p2 * ref.sum_p2);
  const double range = ref.p_max;
  const double log_term = std::log(2.0 / alpha);
  const double r = static_cast<double>(reps);
  const double linear = 2.0 * range * log_term / 3.0;
  const double t =
      (linear + std::sqrt(linear * linear + 8.0 * r * variance * log_term)) /
      (2.0 * r);
  return t / (ref.sum_p2 - 1.0 / ref.dimension);
}

double two_sample_bound(std::uint64_t na, std::uint64_t nb, std::size_t tests,
                        double alpha) {
  // Hoeffding for a difference of two means of [0,1] variables:
  // P(|Δ| ≥ t) ≤ 2 exp(−2t² / (1/na + 1/nb)); Bonferroni over tests.
  const double spread = 1.0 / static_cast<double>(na) +
                        1.0 / static_cast<double>(nb);
  return std::sqrt(spread * std::log(2.0 * static_cast<double>(tests) / alpha) /
                   2.0);
}

double coverage(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = -std::numeric_limits<double>::infinity();
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, cursor);
    if (end > from) {
      covered += end - from;
      cursor = end;
    }
  }
  return covered;
}

double self_time(const Interval& parent,
                 const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, parent.first);
    const double to = std::min(end, parent.second);
    if (to > from) clipped.emplace_back(from, to);
  }
  return (parent.second - parent.first) - coverage(std::move(clipped));
}

std::vector<double> poisson_schedule(double rate0, double rate1,
                                     double duration, std::uint64_t seed) {
  // Inversion of the cumulative intensity Λ(t) = r0 t + (r1−r0) t²/(2T)
  // at the partial sums of unit-rate exponential gaps.
  std::mt19937_64 gen(seed);
  const double a = (rate1 - rate0) / (2.0 * duration);
  std::vector<double> due;
  double cumulative = 0.0;
  for (;;) {
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
    cumulative += -std::log1p(-u);
    const double t =
        a == 0.0 ? cumulative / rate0
                 : (-rate0 + std::sqrt(rate0 * rate0 + 4.0 * a * cumulative)) /
                       (2.0 * a);
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

double max_rate_on_ramp(const std::vector<double>& due,
                        const std::vector<double>& latency, double rate0,
                        double rate1, double duration, double limit,
                        std::size_t window) {
  std::vector<std::size_t> order(due.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return due[x] < due[y]; });
  const double level = tail_level(window);
  double passed = rate0;
  int failing = 0;
  for (std::size_t begin = 0; begin + window <= order.size(); begin += window) {
    std::vector<double> lat;
    for (std::size_t k = begin; k < begin + window; ++k) {
      lat.push_back(latency[order[k]]);
    }
    if (quantile(lat, level) > limit) {
      if (++failing == 2) return passed;
      continue;
    }
    // A lone failing window between passing ones was a stall, not the
    // knee; the rate is judged by the windows around it.
    failing = 0;
    passed = ramp_rate(rate0, rate1, duration, due[order[begin + window - 1]]);
  }
  return failing > 0 ? passed : rate1;
}

}  // namespace perfbench
