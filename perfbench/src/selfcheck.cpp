/// \file selfcheck.cpp
/// Hand-computed cases for the arithmetic in stats.h. Every run checks
/// these first and refuses to report when one fails.

#include <cmath>
#include <sstream>

#include "stats.h"

namespace perfbench {
namespace {

void expect_near(std::vector<std::string>& failures, const char* what,
                 double got, double want, double tol = 1e-12) {
  if (!(std::fabs(got - want) <= tol)) {
    std::ostringstream os;
    os.precision(17);
    os << what << ": got " << got << ", want " << want;
    failures.push_back(os.str());
  }
}

}  // namespace

std::vector<std::string> self_check() {
  std::vector<std::string> f;

  expect_near(f, "quantile even median", quantile({4, 1, 3, 2}, 0.5), 2.5);
  expect_near(f, "quantile odd median", quantile({3, 1, 2}, 0.5), 2.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  expect_near(f, "quantile p99 of 1..101", quantile(hundred, 0.99), 100.0);

  // Highest percentile with at least ten samples beyond it.
  expect_near(f, "tail n=1000", tail_level(1000), 0.99);
  expect_near(f, "tail n=999", tail_level(999), 0.95);
  expect_near(f, "tail n=200", tail_level(200), 0.95);
  expect_near(f, "tail n=199", tail_level(199), 0.90);
  expect_near(f, "tail n=100", tail_level(100), 0.90);
  expect_near(f, "tail n=99", tail_level(99), 0.5);
  expect_near(f, "tail n=5", tail_level(5), 0.5);

  // XEB on p = (3/4, 1/4): Σp² = 5/8, normalizer 5/8 − 1/2 = 1/8.
  const std::vector<double> p = {0.75, 0.25};
  const XebReference ref = xeb_reference(p);
  expect_near(f, "xeb sum_p2", ref.sum_p2, 0.625);
  expect_near(f, "xeb sum_p3", ref.sum_p3, 0.4375);
  expect_near(f, "xeb exact sampler", xeb_normalized(ref, p, {{0, 3}, {1, 1}}),
              1.0);
  expect_near(f, "xeb uniform sampler",
              xeb_normalized(ref, p, {{0, 1}, {1, 1}}), 0.0);
  // alpha = 2/e makes ln(2/alpha) = 1; R = 3, v = 3/64, b = 3/4:
  // t = (1/2 + sqrt(1/4 + 8·3·3/64)) / 6, tolerance = t / (1/8).
  expect_near(f, "xeb bernstein bound", xeb_tolerance(ref, 3, 2.0 / M_E),
              (0.5 + std::sqrt(1.375)) / 6.0 / 0.125);
  expect_near(f, "two-sample hoeffding",
              two_sample_bound(100, 100, 1, 2.0 / M_E), 0.1);

  // Self time: children overlap each other and stick out of the parent.
  expect_near(f, "coverage", coverage({{0, 2}, {1, 3}, {5, 6}}), 4.0);
  expect_near(f, "self time",
              self_time({0, 10}, {{1, 3}, {2, 4}, {9, 12}, {-1, 0.5}}), 5.5);

  // Due-time latency: due at 1.0, sent late at 1.5, done at 2.0.
  expect_near(f, "due latency", due_latency(1.0, 2.0, true), 1.0);
  if (!std::isinf(due_latency(1.0, 2.0, false))) {
    f.push_back("failed request latency is not +inf");
  }
  if (!std::isinf(quantile({0.1, due_latency(0, 1, false)}, 0.99))) {
    f.push_back("a failed request does not push the tail over any limit");
  }

  // Arrival schedules: expected count within 3.5 sigma, deterministic.
  const auto flat = poisson_schedule(1000, 1000, 10, 7);
  if (flat.size() < 9650 || flat.size() > 10350) {
    f.push_back("poisson count off: " + std::to_string(flat.size()));
  }
  if (poisson_schedule(1000, 1000, 10, 7) != flat) {
    f.push_back("poisson schedule not deterministic");
  }
  const auto ramp = poisson_schedule(100, 300, 10, 7);  // expect 2000
  if (ramp.size() < 1840 || ramp.size() > 2160) {
    f.push_back("ramp count off: " + std::to_string(ramp.size()));
  }
  std::size_t first_half = 0;
  for (const double t : ramp) first_half += t < 5 ? 1 : 0;  // expect 750
  if (first_half < 650 || first_half > 850) {
    f.push_back("ramp shape off: " + std::to_string(first_half));
  }

  // Ramp 0 → 200/s over 10 s; latency breaks the limit from t = 5 s.
  std::vector<double> due;
  std::vector<double> lat;
  for (int i = 0; i < 1000; ++i) {
    due.push_back(i * 0.01);
    lat.push_back(i < 500 ? 0.001 : 1.0);
  }
  expect_near(f, "max rate on ramp",
              max_rate_on_ramp(due, lat, 0, 200, 10, 0.1, 100), 99.8, 1e-9);
  // A stall failing window 2 alone does not end the ramp.
  for (int i = 200; i < 300; ++i) lat[static_cast<std::size_t>(i)] = 5.0;
  expect_near(f, "max rate past a stall",
              max_rate_on_ramp(due, lat, 0, 200, 10, 0.1, 100), 99.8, 1e-9);
  lat.assign(1000, 0.001);
  expect_near(f, "max rate censored",
              max_rate_on_ramp(due, lat, 0, 200, 10, 0.1, 100), 200.0);
  return f;
}

}  // namespace perfbench
