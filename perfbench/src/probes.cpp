#include "probes.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <random>

#include "core/simulator.h"
#include "engine/engine.h"
#include "qasm/qasm.h"
#include "service/journal.h"
#include "spans.h"
#include "stats.h"
#include "statevector/kernels.h"
#include "statevector/state.h"

namespace perfbench {

using namespace bgls;

namespace {

/// The four kernel classes of statevector/kernels.h, in metric order.
constexpr std::array<const char*, 4> kKernelClasses = {
    "dense", "diagonal", "permutation", "controlled"};

std::size_t class_index(const Operation& op) {
  switch (op.gate().compiled_unitary()->classification.cls) {
    case kernels::GateClass::kDense:
      return 0;
    case kernels::GateClass::kDiagonal:
      return 1;
    case kernels::GateClass::kPermutation:
      return 2;
    case kernels::GateClass::kControlled:
      return 3;
  }
  return 0;
}

/// Controlled-H: identity unless the control reads 1, dense inside — a
/// kControlled gate, which the workloads' gate set does not contain.
Gate controlled_h() {
  Matrix m = Matrix::identity(4);
  const double r = 1.0 / std::sqrt(2.0);
  m(2, 2) = r;
  m(2, 3) = r;
  m(3, 2) = r;
  m(3, 3) = -r;
  return Gate::TwoQubitMatrix(m, "CH");
}

/// Calls `body` until at least `min_seconds` passed and `min_calls`
/// calls were made; returns the mean seconds per call.
template <typename Body>
double mean_call_seconds(double min_seconds, int min_calls, Body&& body) {
  const double start = now_s();
  int calls = 0;
  while (calls < min_calls || now_s() - start < min_seconds) {
    body(calls);
    ++calls;
  }
  return (now_s() - start) / calls;
}

}  // namespace

std::uint64_t pool_tasks() {
  for (const auto& series : Session::metrics_snapshot()) {
    if (series.name == "bgls_pool_tasks_total") return series.count;
  }
  return 0;
}

void probe_statevector(const Circuit& unitary, int num_qubits,
                       const Circuit& small, RunReport& report) {
  const std::vector<Operation> ops = unitary.all_operations();
  const double state_bytes = 16.0 * static_cast<double>(1ULL << num_qubits);
  // Computed traffic: one full-state read plus one write per apply.
  const double apply_bytes = 2.0 * state_bytes;

  std::array<double, 4> class_seconds{};
  std::array<std::size_t, 4> class_applies{};
  std::vector<double> evolve;
  StateVectorState evolved(1);
  for (int rep = 0; rep < 3; ++rep) {
    StateVectorState state(num_qubits);
    Span span("statevector.evolve");
    const double start = now_s();
    for (const Operation& op : ops) {
      const std::size_t c = class_index(op);
      const double t0 = now_s();
      state.apply(op);
      class_seconds[c] += now_s() - t0;
      ++class_applies[c];
    }
    evolve.push_back(now_s() - start);
    evolved = std::move(state);
  }
  report.add("statevector.evolve_s", median(evolve), "s");

  if (class_applies[3] == 0) {
    StateVectorState state(num_qubits);
    const Gate ch = controlled_h();
    Span span("statevector.apply_controlled");
    for (int q = 0; q + 1 < num_qubits; ++q) {
      const Operation op(ch, {q, q + 1});
      const double t0 = now_s();
      state.apply(op);
      class_seconds[3] += now_s() - t0;
      ++class_applies[3];
    }
    report.note("statevector.gbps.controlled: the workload's gate set has no "
                "controlled-class gate; measured on " +
                std::to_string(class_applies[3]) +
                " synthetic controlled-H applies at the same width");
  }

  double sweep = 0;
  {
    Span span("statevector.sweep");
    sweep = sweep_gbps(static_cast<std::size_t>(state_bytes), 5);
  }
  report.add("statevector.sweep_gbps", sweep, "GB/s");
  for (std::size_t c = 0; c < 4; ++c) {
    const double gbps = static_cast<double>(class_applies[c]) * apply_bytes /
                        class_seconds[c] / 1e9;
    report.add(std::string("statevector.gbps.") + kKernelClasses[c], gbps,
               "GB/s");
    report.add(std::string("statevector.roofline_frac.") + kKernelClasses[c],
               gbps / sweep, "frac");
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "statevector: GB/s are computed (one full-state read+write "
                "per apply); state %.3g MiB at n=%d, LLC %.0f MiB, applies "
                "dense/diag/perm/ctrl = %zu/%zu/%zu/%zu",
                state_bytes / (1 << 20), num_qubits,
                static_cast<double>(llc_bytes()) / (1 << 20),
                class_applies[0], class_applies[1], class_applies[2],
                class_applies[3]);
  report.note(line);

  {
    std::mt19937_64 gen(12345);
    const std::uint64_t mask = evolved.dimension() - 1;
    double sink = 0;
    Span span("statevector.probability");
    const double seconds = mean_call_seconds(0.05, 100000, [&](int) {
      sink += evolved.probability(gen() & mask);
    });
    report.add("statevector.prob_ns", seconds * 1e9, "ns");
    if (sink < 0) report.note("impossible negative probability sum");
  }

  {
    const std::vector<Operation> small_ops = small.all_operations();
    StateVectorState state(small.num_qubits());
    Span span("statevector.apply_small");
    const double seconds = mean_call_seconds(0.1, 20, [&](int) {
      for (const Operation& op : small_ops) state.apply(op);
    });
    report.add("statevector.apply_ns_small",
               seconds / static_cast<double>(small_ops.size()) * 1e9, "ns");
  }
}

void probe_front(Session& session, const std::vector<Circuit>& circuits,
                 const std::vector<std::string>& qasm_texts,
                 RunReport& report) {
  {
    Span span("api.resolve_backend");
    const RunRequest request;
    const double seconds = mean_call_seconds(0.05, 50, [&](int i) {
      (void)session.resolve_backend(
          circuits[static_cast<std::size_t>(i) % circuits.size()], request);
    });
    report.add("api.resolve_us", seconds * 1e6, "us");
  }
  {
    Span span("qasm.parse_qasm");
    const double seconds = mean_call_seconds(0.05, 50, [&](int i) {
      (void)parse_qasm(qasm_texts[static_cast<std::size_t>(i) %
                                  qasm_texts.size()]);
    });
    report.add("qasm.parse_us", seconds * 1e6, "us");
  }
}

void probe_engine_speedup(const Circuit& circuit, std::uint64_t reps,
                          std::uint64_t seed, RunReport& report) {
  Circuit body;
  for (const Operation& op : circuit.all_operations()) {
    if (!op.gate().is_measurement()) body.append(op);
  }
  const int n = circuit.num_qubits();
  std::array<double, 3> seconds{};
  const std::array<int, 3> threads = {1, 2, 4};
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const SimulatorOptions options =
        RunRequest().with_threads(threads[i]).simulator_options();
    BatchEngine<StateVectorState> engine(
        Simulator<StateVectorState>(StateVectorState(n), options));
    Span span("engine.BatchEngine::sample");
    seconds[i] = mean_call_seconds(0.2, 1, [&](int) {
      Rng rng(seed);
      (void)engine.sample(body, reps, rng);
    });
  }
  report.add("engine.speedup_t2", seconds[0] / seconds[1], "x");
  report.add("engine.speedup_t4", seconds[0] / seconds[2], "x");
}

void probe_journal_append(const std::vector<std::size_t>& record_sizes,
                          RunReport& report) {
  const std::string path = "journal-probe.log";
  std::remove(path.c_str());
  service::Journal journal;
  journal.open(path);
  double total = 0;
  {
    Span span("service.Journal::append");
    for (const std::size_t size : record_sizes) {
      const std::string record =
          "{\"pad\":\"" + std::string(size > 11 ? size - 11 : 0, 'x') + "\"}";
      const double start = now_s();
      journal.append(record);
      total += now_s() - start;
    }
  }
  journal.close();
  std::remove(path.c_str());
  report.add("service.journal_append_us",
             total / static_cast<double>(record_sizes.size()) * 1e6, "us");
}

}  // namespace perfbench
