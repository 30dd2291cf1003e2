/// \file micro_states.cpp
/// google-benchmark microbenchmarks of the per-backend kernels behind
/// the paper's f(n, d) cost model (Secs. 2, 4.1.2, 4.3.3):
///  - statevector apply/probability (f dominated by 2^n gate kernels,
///    O(1) probability lookups),
///  - density-matrix applies (the same kernels over 4^n entries),
///  - CH-form Clifford updates and the O(n²)-class amplitude (bit-packed
///    to O(n) word operations at n ≤ 63), independent of depth,
///  - MPS two-qubit splits and reduced-network amplitudes (O(n·χ³)),
///  - the exact BTRS binomial sampler that powers multinomial
///    dictionary splitting.
///
/// The statevector apply benches run twice: through the gate-class
/// specialized kernels (statevector/kernels.h) and through the
/// forced-generic dense path (the *_Generic variants), so one run of
/// this binary records the kernel speedup in BENCH_micro_states.json.

#include <benchmark/benchmark.h>

#include "bench_guard.h"

#include <string>
#include <vector>

#include "circuit/random.h"
#include "densitymatrix/state.h"
#include "mps/state.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "stabilizer/ch_form.h"
#include "stabilizer/tableau.h"
#include "statevector/kernels.h"
#include "statevector/state.h"
#include "util/rng.h"

namespace {

using namespace bgls;

// Each statevector apply bench has a specialized-kernel and a
// forced-generic variant so the speedup is recorded in one run.
/// Pre-built per-qubit operations, the pattern the samplers execute
/// (Circuit::all_operations() copies share each gate's memoized
/// unitary+classification, so construction cost is paid once, not per
/// apply).
std::vector<Operation> per_qubit_ops(int n, Operation (*make)(Qubit)) {
  std::vector<Operation> ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) ops.push_back(make(q));
  return ops;
}

template <bool kForceGeneric>
void apply_h_body(benchmark::State& state) {
  const kernels::ForceGenericScope scope(kForceGeneric);
  const int n = static_cast<int>(state.range(0));
  StateVectorState psi(n);
  const std::vector<Operation> ops = per_qubit_ops(n, [](Qubit q) {
    return h(q);
  });
  std::size_t q = 0;
  for (auto _ : state) {
    psi.apply(ops[q]);
    q = (q + 1) % ops.size();
  }
  state.SetComplexityN(1 << n);
}
void BM_StateVector_ApplyH(benchmark::State& state) {
  apply_h_body<false>(state);
}
BENCHMARK(BM_StateVector_ApplyH)->Arg(8)->Arg(12)->Arg(16)->Arg(20)->Complexity(benchmark::oN);
void BM_StateVector_ApplyH_Generic(benchmark::State& state) {
  apply_h_body<true>(state);
}
BENCHMARK(BM_StateVector_ApplyH_Generic)->Arg(8)->Arg(12)->Arg(16)->Arg(20)->Complexity(benchmark::oN);

template <bool kForceGeneric>
void apply_cnot_body(benchmark::State& state) {
  const kernels::ForceGenericScope scope(kForceGeneric);
  const int n = static_cast<int>(state.range(0));
  StateVectorState psi(n);
  psi.apply(h(0));
  std::vector<Operation> ops;
  for (int q = 0; q < n; ++q) ops.push_back(cnot(q, (q + 1) % n));
  std::size_t q = 0;
  for (auto _ : state) {
    psi.apply(ops[q]);
    q = (q + 1) % ops.size();
  }
}
void BM_StateVector_ApplyCnot(benchmark::State& state) {
  apply_cnot_body<false>(state);
}
BENCHMARK(BM_StateVector_ApplyCnot)->Arg(8)->Arg(16)->Arg(20);
void BM_StateVector_ApplyCnot_Generic(benchmark::State& state) {
  apply_cnot_body<true>(state);
}
BENCHMARK(BM_StateVector_ApplyCnot_Generic)->Arg(8)->Arg(16)->Arg(20);

template <bool kForceGeneric>
void apply_cz_body(benchmark::State& state) {
  // Diagonal kernel showcase: CZ rescales one quadrant of the index
  // space, the generic path runs the full 4x4 matmul.
  const kernels::ForceGenericScope scope(kForceGeneric);
  const int n = static_cast<int>(state.range(0));
  StateVectorState psi(n);
  for (int q = 0; q < n; ++q) psi.apply(h(q));
  std::vector<Operation> ops;
  for (int q = 0; q < n; ++q) ops.push_back(cz(q, (q + 1) % n));
  std::size_t q = 0;
  for (auto _ : state) {
    psi.apply(ops[q]);
    q = (q + 1) % ops.size();
  }
}
void BM_StateVector_ApplyCz(benchmark::State& state) {
  apply_cz_body<false>(state);
}
BENCHMARK(BM_StateVector_ApplyCz)->Arg(8)->Arg(16)->Arg(20);
void BM_StateVector_ApplyCz_Generic(benchmark::State& state) {
  apply_cz_body<true>(state);
}
BENCHMARK(BM_StateVector_ApplyCz_Generic)->Arg(8)->Arg(16)->Arg(20);

template <bool kForceGeneric>
void apply_t_body(benchmark::State& state) {
  const kernels::ForceGenericScope scope(kForceGeneric);
  const int n = static_cast<int>(state.range(0));
  StateVectorState psi(n);
  for (int q = 0; q < n; ++q) psi.apply(h(q));
  const std::vector<Operation> ops = per_qubit_ops(n, [](Qubit q) {
    return t(q);
  });
  std::size_t q = 0;
  for (auto _ : state) {
    psi.apply(ops[q]);
    q = (q + 1) % ops.size();
  }
}
// Arg(8) exposes the per-apply fixed costs (matrix build +
// classification, now memoized on Gate): at 256 amplitudes the
// amplitude pass is nearly free, so this is where the gate cache shows.
void BM_StateVector_ApplyT(benchmark::State& state) {
  apply_t_body<false>(state);
}
BENCHMARK(BM_StateVector_ApplyT)->Arg(8)->Arg(20);
void BM_StateVector_ApplyT_Generic(benchmark::State& state) {
  apply_t_body<true>(state);
}
BENCHMARK(BM_StateVector_ApplyT_Generic)->Arg(8)->Arg(20);

// Density-matrix applies: ρ → U ρ U† over the 4^n entries of ρ. Only
// the public DensityMatrixState API, so the rows compare across
// implementations of apply.
void BM_DensityMatrix_ApplyH(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrixState rho(n);
  const std::vector<Operation> ops = per_qubit_ops(n, [](Qubit q) {
    return h(q);
  });
  std::size_t q = 0;
  for (auto _ : state) {
    rho.apply(ops[q]);
    benchmark::DoNotOptimize(rho);
    q = (q + 1) % ops.size();
  }
}
BENCHMARK(BM_DensityMatrix_ApplyH)->Arg(6)->Arg(10);

void BM_DensityMatrix_ApplyCnot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrixState rho(n);
  rho.apply(h(0));
  std::vector<Operation> ops;
  for (int q = 0; q < n; ++q) ops.push_back(cnot(q, (q + 1) % n));
  std::size_t q = 0;
  for (auto _ : state) {
    rho.apply(ops[q]);
    benchmark::DoNotOptimize(rho);
    q = (q + 1) % ops.size();
  }
}
BENCHMARK(BM_DensityMatrix_ApplyCnot)->Arg(6)->Arg(10);

// The gate-classification cache, measured directly: a cold compile
// (matrix construction + structural classification, what every apply
// used to pay) against the memoized lookup every apply now performs.
void BM_Gate_CompileUnitaryUncached(benchmark::State& state) {
  const Gate gate = Gate::CX();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::compile(gate.unitary()));
  }
}
BENCHMARK(BM_Gate_CompileUnitaryUncached);

void BM_Gate_CompiledUnitaryCached(benchmark::State& state) {
  const Gate gate = Gate::CX();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gate.compiled_unitary());
  }
}
BENCHMARK(BM_Gate_CompiledUnitaryCached);

void BM_StateVector_SampleN1000(benchmark::State& state) {
  // Batched inverse-CDF draws: one probabilities pass, then O(n) per
  // draw — the conventional direct baseline's sampling cost.
  const int n = static_cast<int>(state.range(0));
  Rng scramble(19);
  RandomCircuitOptions options;
  options.num_moments = 4;
  const Circuit circuit = generate_random_circuit(n, options, scramble);
  StateVectorState psi(n);
  for (const auto& op : circuit.all_operations()) psi.apply(op);
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi.sample_n(1000, rng));
  }
}
BENCHMARK(BM_StateVector_SampleN1000)->Arg(12)->Arg(20);

void BM_StateVector_Probability(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVectorState psi(n);
  psi.apply(h(0));
  Bitstring b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi.probability(b));
    b = (b + 1) & ((Bitstring{1} << n) - 1);
  }
}
BENCHMARK(BM_StateVector_Probability)->Arg(20);

void BM_Ch_ApplyCnot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  CHState ch(n);
  for (int q = 0; q < n; ++q) ch.apply_h(q);
  int q = 0;
  for (auto _ : state) {
    ch.apply_cx(q, (q + 1) % n);
    q = (q + 1) % n;
  }
}
BENCHMARK(BM_Ch_ApplyCnot)->Arg(16)->Arg(32)->Arg(63);

void BM_Ch_ApplyH(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  CHState ch(n);
  const Circuit scramble = random_clifford_circuit(n, 20, rng);
  for (const auto& op : scramble.all_operations()) ch.apply(op);
  int q = 0;
  for (auto _ : state) {
    ch.apply_h(q);
    q = (q + 1) % n;
  }
}
BENCHMARK(BM_Ch_ApplyH)->Arg(16)->Arg(32)->Arg(63);

void BM_Ch_Amplitude(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  CHState ch(n);
  const Circuit scramble = random_clifford_circuit(n, 30, rng);
  for (const auto& op : scramble.all_operations()) ch.apply(op);
  Bitstring b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.amplitude(b));
    b = (b * 2862933555777941757ULL + 3037000493ULL) &
        ((Bitstring{1} << n) - 1);
  }
}
BENCHMARK(BM_Ch_Amplitude)->Arg(16)->Arg(32)->Arg(63);

void BM_Tableau_Probability(benchmark::State& state) {
  // The ablation motivating the CH form: an Aaronson–Gottesman tableau
  // recovers bitstring probabilities only through sequential projection
  // of a copy (O(n³)), vs the CH form's direct amplitude.
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  TableauState tab(n);
  const Circuit scramble = random_clifford_circuit(n, 30, rng);
  for (const auto& op : scramble.all_operations()) tab.apply(op);
  Bitstring b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tab.probability(b));
    b = (b * 2862933555777941757ULL + 3037000493ULL) &
        ((Bitstring{1} << n) - 1);
  }
}
BENCHMARK(BM_Tableau_Probability)->Arg(16)->Arg(32)->Arg(63);

void BM_Mps_TwoQubitGate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MPSState mps(n);
  for (int q = 0; q < n; ++q) mps.apply(h(q));
  int q = 0;
  for (auto _ : state) {
    mps.apply(cnot(q, (q + 1) % n));
    q = (q + 1) % n;
  }
}
BENCHMARK(BM_Mps_TwoQubitGate)->Arg(8)->Arg(16)->Arg(32);

void BM_Mps_Amplitude(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  const Circuit circuit = random_fixed_cnot_circuit(n, 6, 6, rng);
  MPSState mps(n);
  for (const auto& op : circuit.all_operations()) mps.apply(op);
  Bitstring b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mps.amplitude(b));
    b = (b + 0x9E3779B97F4A7C15ULL) & ((Bitstring{1} << n) - 1);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Mps_Amplitude)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity(benchmark::oN);

// Telemetry overhead pair (ISSUE acceptance: the before/after row):
// the same n=20 H apply with the runtime switch on vs off. The on row
// pays the kernel-class counter plus, at this dimension, the timed
// histogram's two clock reads; the delta is the per-apply telemetry
// cost. With -DBGLS_ENABLE_TELEMETRY=OFF both rows measure the same
// inert code.
template <bool kTelemetryOn>
void telemetry_apply_body(benchmark::State& state) {
  const obs::EnabledScope scope(kTelemetryOn);
  const int n = static_cast<int>(state.range(0));
  StateVectorState psi(n);
  const std::vector<Operation> ops = per_qubit_ops(n, [](Qubit q) {
    return h(q);
  });
  std::size_t q = 0;
  for (auto _ : state) {
    psi.apply(ops[q]);
    q = (q + 1) % ops.size();
  }
}
void BM_Telemetry_ApplyH_Enabled(benchmark::State& state) {
  telemetry_apply_body<true>(state);
}
BENCHMARK(BM_Telemetry_ApplyH_Enabled)->Arg(20);
void BM_Telemetry_ApplyH_Disabled(benchmark::State& state) {
  telemetry_apply_body<false>(state);
}
BENCHMARK(BM_Telemetry_ApplyH_Disabled)->Arg(20);

// Structured-log emit pair: one warn-level record with a typical field
// set through the global logger's ring (no file sink), runtime switch
// on vs off. The off row is the cost the serving hot paths pay at
// their (never-taken) log sites; with -DBGLS_ENABLE_TELEMETRY=OFF both
// rows measure the same compiled-out no-op.
template <bool kTelemetryOn>
void log_emit_body(benchmark::State& state) {
  const obs::EnabledScope scope(kTelemetryOn);
  obs::Logger::global().reset_for_testing();
  std::uint64_t job = 0;
  for (auto _ : state) {
    obs::log(obs::LogLevel::kWarn, "bench", "slow request",
             {{"op", "wait"}, {"ms", 12.5}}, /*trace_id=*/424242, ++job);
  }
  obs::Logger::global().reset_for_testing();
}
void BM_Log_Emit_Enabled(benchmark::State& state) {
  log_emit_body<true>(state);
}
BENCHMARK(BM_Log_Emit_Enabled);
void BM_Log_Emit_Disabled(benchmark::State& state) {
  log_emit_body<false>(state);
}
BENCHMARK(BM_Log_Emit_Disabled);

void BM_Rng_BinomialBtrs(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.binomial(1000000, 0.37));
  }
}
BENCHMARK(BM_Rng_BinomialBtrs);

void BM_Rng_Multinomial8(benchmark::State& state) {
  Rng rng(13);
  const std::vector<double> weights{1, 2, 3, 4, 4, 3, 2, 1};
  std::vector<std::uint64_t> counts(8);
  for (auto _ : state) {
    rng.multinomial(1000000, weights, counts);
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_Rng_Multinomial8);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults the JSON output file so every run
// leaves a machine-readable record (BENCH_micro_states.json) for the
// perf-trajectory tracking, matching BENCH_fig2.json. Explicit
// --benchmark_out flags still win.
int main(int argc, char** argv) {
  BGLS_REQUIRE_RELEASE_BENCH("micro_states");
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_states.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false, has_format = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    has_out |= arg.rfind("--benchmark_out=", 0) == 0;
    has_format |= arg.rfind("--benchmark_out_format=", 0) == 0;
  }
  if (!has_out) args.push_back(out_flag.data());
  if (!has_format) args.push_back(format_flag.data());
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  // The JSON context's "library_build_type" describes the *benchmark
  // library* package, not this code; record bgls's own build mode so
  // the file is self-describing (bench_guard.h enforces release).
#ifdef NDEBUG
  benchmark::AddCustomContext("bgls_build_type", "release");
#else
  benchmark::AddCustomContext("bgls_build_type", "debug (allowed via env)");
#endif
#ifdef BGLS_HAVE_OPENMP
  benchmark::AddCustomContext("bgls_openmp", "on");
#else
  benchmark::AddCustomContext("bgls_openmp", "off");
#endif
#ifdef BGLS_HAVE_AVX2
  benchmark::AddCustomContext("bgls_avx2", "on");
#else
  benchmark::AddCustomContext("bgls_avx2", "off");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
