/// \file simulator.h
/// The gate-by-gate sampling simulator — the paper's core contribution
/// (Secs. 2–3), templated over the state representation.
///
/// Algorithm (Bravyi–Gosset–Liu, sketched in Sec. 2 of the paper):
///   1. b ← 0...0 (a "hidden variable" sample of the instantaneous
///      output distribution).
///   2. For each gate: apply it to the state; enumerate the candidate
///      bitstrings that vary b over the gate's support; resample b from
///      the candidates' bitstring probabilities.
///   3. The final b is a sample of |⟨b|ψ_f⟩|².
///
/// Exactly like the Python package, a Simulator is assembled from three
/// ingredients (Sec. 3.1): an initial state of any representation, an
/// `apply_op` function, and a `compute_probability` function. For the
/// library's own state types the two functions default to the
/// ADL-discovered free functions each backend provides, and the
/// simulator can additionally use backend members for exact channel
/// branching and measurement collapse.
///
/// Features reproduced from Sec. 3.2:
///  - automatic sample parallelization (3.2.3): on unitary circuits with
///    terminal measurements, all repetitions evolve one state while a
///    bitstring→multiplicity dictionary is resampled per gate via exact
///    multinomial splitting, so cost saturates once the dictionary
///    reaches the 2^n unique-bitstring ceiling (Fig. 2);
///  - quantum trajectories for channels and mid-circuit measurements
///    (3.2.1): per-repetition evolution. Channels use a *joint*
///    Kraus-branch × candidate update (equivalent to running BGLS on the
///    channel's unitary dilation and discarding the environment bit),
///    which keeps the hidden-variable coupling exact even for non-unital
///    channels. Mid-circuit measurements read their outcome off the
///    current bitstring — a faithful sample by the BGL invariant — and
///    collapse the state accordingly;
///  - optional skipping of diagonal-gate updates: a diagonal unitary
///    rescales every candidate amplitude by a unit-modulus phase, so the
///    candidate distribution is unchanged and the resampling step can be
///    elided exactly (ablated in the bench suite).

#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "core/checkpoint.h"
#include "core/progress.h"
#include "core/result.h"
#include "engine/context.h"  // the reusable pool cached behind the simulator
#include "obs/trace.h"
#include "util/bits.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/timing.h"

namespace bgls {

template <typename State>
class BatchEngine;  // engine/engine.h — included at the end of this file

/// The Sec. 3.2.3 bitstring→multiplicity dictionary the batched sampler
/// resamples per gate.
using BatchDictionary = std::map<Bitstring, std::uint64_t>;

/// Per-RNG-stream shard counters, filled by the BatchEngine (engine.h)
/// in shard order.
struct StreamStats {
  /// Independent state evolutions executed in this shard (1 on the
  /// dictionary-batched path, whose single shard evolves one state).
  std::size_t trajectories = 0;
  /// apply_op invocations executed in this shard.
  std::size_t state_applications = 0;
  /// compute_probability invocations executed in this shard.
  std::size_t probability_evaluations = 0;
};

/// Instrumentation counters for the most recent run (used by the Fig. 2
/// bench to demonstrate dictionary saturation and by the cost-model
/// microbenches).
struct RunStats {
  /// Number of apply_op invocations across all trajectories.
  std::size_t state_applications = 0;
  /// Number of compute_probability invocations.
  std::size_t probability_evaluations = 0;
  /// Peak unique-bitstring dictionary size (≤ 2^n; Sec. 3.2.3).
  std::size_t max_dictionary_size = 0;
  /// Number of independent state evolutions (1 when parallelized).
  std::size_t trajectories = 0;
  /// Whether the dictionary-batched path was used.
  bool used_sample_parallelization = false;
  /// Candidate updates skipped because the gate was diagonal.
  std::size_t diagonal_updates_skipped = 0;
  /// Worker threads the run was executed with.
  std::size_t threads_used = 1;
  /// Per-stream shard counters in shard order: one entry on the
  /// dictionary-batched path, one per RNG stream on trajectory runs.
  std::vector<StreamStats> per_stream;
  /// Why the runtime layer routed this run to its backend — filled by
  /// Session for kAuto requests, including every job of a run_batch, so
  /// per-job routing decisions survive into stats reporting (the
  /// service daemon's stats endpoint). Empty for direct templated runs
  /// and explicit backend picks.
  std::string selection_reason;
  /// Phase wall times, milliseconds. Scheduling-dependent (unlike the
  /// counters above) and therefore excluded from the byte-stable run
  /// reports; surfaced by `bgls_run --verbose` and the daemon's status
  /// op. queue_wait_ms is filled by the service scheduler (time from
  /// admission to run start; 0 for direct Session calls); optimize_ms
  /// and sample_ms by Session::run (circuit fusion / backend dispatch);
  /// evolve_ms by traced dictionary-batched runs (gate applies on the
  /// one evolved state, a subset of sample_ms; 0 when no trace is
  /// attached).
  double queue_wait_ms = 0.0;
  double optimize_ms = 0.0;
  double evolve_ms = 0.0;
  double sample_ms = 0.0;
};

/// Tuning knobs.
struct SimulatorOptions {
  /// When true, the candidate-resampling step is skipped for gates that
  /// are diagonal in the computational basis (exact; see file comment).
  bool skip_diagonal_updates = false;
  /// Force-disable the dictionary batching of Sec. 3.2.3 even when the
  /// circuit allows it (used by the Fig. 2 ablation).
  bool disable_sample_parallelization = false;
  /// Worker threads for run()/sample(): 1 (default) executes every
  /// shard inline on the caller, 0 auto-detects hardware concurrency,
  /// N > 1 fans shards out over a pool of N. Never changes
  /// the sampled values: results are bit-identical for every thread
  /// count, including 1, given the same seed and num_rng_streams.
  int num_threads = 1;
  /// Number of deterministic RNG shards a trajectory circuit (channels,
  /// mid-circuit measurement, feed-forward, or batching disabled) is
  /// split into. This — not the thread count — fixes a trajectory
  /// run's sampled values, so keep it constant when comparing runs.
  /// Dictionary-batched circuits draw one dictionary from the caller's
  /// stream and ignore it.
  std::uint64_t num_rng_streams = 16;
  /// Cooperative stop handle, polled at bounded intervals (per gate on
  /// the trajectory and dictionary-batched loops; additionally per
  /// shard in the engine). Inert by default. Scheduling-only: an
  /// aborted run throws CancelledError/DeadlineExceededError and
  /// discards its partial work; it never alters what an uncancelled run
  /// samples, nor any shared state later runs depend on.
  CancellationToken cancel_token{};
  /// Streaming partial histograms (core/progress.h): run() emits
  /// cumulative per-key histograms every `progress.every` completed
  /// repetitions in canonical shard order (dictionary-batched runs emit
  /// only the final update). sample()/run_batch ignore it.
  /// Observation-only: never changes the sampled records.
  ProgressOptions progress{};
  /// Optional telemetry trace (obs/trace.h) the engine records shard
  /// and phase spans into; non-owning, may be null. Observation-only:
  /// spans time existing work and never touch RNG state, so a traced
  /// run samples exactly what an untraced one does.
  obs::Trace* trace = nullptr;
  /// Checkpoint capture (core/checkpoint.h): run() emits resumable
  /// RunCheckpoint snapshots every `checkpoint.every` completed
  /// repetitions within a shard plus at shard completion.
  /// sample()/run_batch ignore it. Observation-only: capture never
  /// changes the sampled records.
  CheckpointOptions checkpoint{};
  /// Resume a previous run from its checkpoint: run() validates the
  /// checkpoint against this request's shape (mode, totals, shard
  /// count) and continues it, producing a final histogram and report
  /// counters bit-identical to the uninterrupted run, on any thread
  /// count. The request must carry the same circuit/seed/num_rng_streams
  /// as the checkpointed one. Intermediate progress updates are
  /// suppressed on a resumed run; the final update still fires.
  std::shared_ptr<const RunCheckpoint> resume{};
};

/// Gate-by-gate sampler over an arbitrary state representation.
///
/// State requirements (checked at compile time where used):
///  - copy-constructible (fresh copy per run / trajectory);
///  - ADL-visible `apply_op(const Operation&, State&, Rng&)` and
///    `compute_probability(const State&, Bitstring)` — or explicit
///    callables passed to the constructor (the Python package's API);
///  - optional members for full feature support:
///      `project(std::span<const Qubit>, Bitstring)` (mid-circuit
///      measurement), `apply_matrix(const Matrix&, std::span<const
///      Qubit>)` + `renormalize()` (exact channel branching).
///
/// The simulator owns the per-shard primitives — the one-dictionary
/// loop of Sec. 3.2.3 and the per-trajectory loop. run()/sample()
/// always go through a BatchEngine (engine/engine.h), which decides how
/// a run is decomposed into those primitives and where they execute.
template <typename State>
class Simulator {
 public:
  using ApplyOpFn = std::function<void(const Operation&, State&, Rng&)>;
  using ProbabilityFn = std::function<double(const State&, Bitstring)>;

  /// Builds a simulator whose apply/probability hooks are the backend's
  /// ADL free functions.
  explicit Simulator(State initial_state, SimulatorOptions options = {})
      : initial_state_(std::make_shared<const State>(std::move(initial_state))),
        options_(options),
        apply_op_([](const Operation& op, State& s, Rng& rng) {
          apply_op(op, s, rng);
        }),
        compute_probability_([](const State& s, Bitstring b) {
          return compute_probability(s, b);
        }),
        hooks_are_native_(true) {}

  /// The paper's three-ingredient constructor: initial state, apply_op,
  /// compute_probability. With custom hooks the simulator treats the
  /// state as a black box: channels are routed through `apply` followed
  /// by a standard candidate update.
  Simulator(State initial_state, ApplyOpFn apply, ProbabilityFn probability,
            SimulatorOptions options = {})
      : initial_state_(std::make_shared<const State>(std::move(initial_state))),
        options_(options),
        apply_op_(std::move(apply)),
        compute_probability_(std::move(probability)),
        hooks_are_native_(false) {}

  /// Runs the circuit end-to-end `repetitions` times and returns the
  /// measurement records, mirroring cirq.Simulator.run. The circuit must
  /// contain at least one measurement and must be fully resolved.
  Result run(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    return run_with_engine([&](BatchEngine<State>& engine) {
      return engine.run(circuit, repetitions, rng);
    });
  }

  /// Convenience overload with a seed instead of an engine.
  Result run(const Circuit& circuit, std::uint64_t repetitions = 1,
             std::uint64_t seed = 0) {
    Rng rng(seed);
    return run(circuit, repetitions, rng);
  }

  /// Samples final bitstrings over *all* qubits, ignoring measurement
  /// gates (the form the paper's runtime benchmarks use). Returns
  /// outcome counts.
  Counts sample(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    return run_with_engine([&](BatchEngine<State>& engine) {
      return engine.sample(circuit, repetitions, rng);
    });
  }

  /// Counters from the most recent run()/sample() call.
  [[nodiscard]] const RunStats& last_run_stats() const { return stats_; }

  /// Current tuning knobs.
  [[nodiscard]] const SimulatorOptions& options() const { return options_; }

  /// Replaces the tuning knobs.
  void set_options(SimulatorOptions options) { options_ = options; }

  /// The lazily acquired engine context (null until a multi-threaded
  /// run first needs a pool). Copies of this simulator share it.
  [[nodiscard]] const std::shared_ptr<EngineContext>& engine_context() const {
    return engine_context_;
  }

  /// Extracts a key's packed value from a full bitstring: bit j of the
  /// result is b[qubits[j]]. (Public: the engine packs measurement
  /// records from dictionary counts with the same convention.)
  [[nodiscard]] static Bitstring pack_key_bits(Bitstring b,
                                               std::span<const Qubit> qubits) {
    Bitstring packed = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      packed = with_bit(packed, static_cast<int>(j), get_bit(b, qubits[j]));
    }
    return packed;
  }

 private:
  // The engine drives the per-shard primitives below.
  friend class BatchEngine<State>;

  /// Runs `body` against a BatchEngine sharing the cached context and
  /// adopts its merged counters so last_run_stats() stays meaningful.
  template <typename Body>
  auto run_with_engine(Body&& body) {
    BatchEngine<State> engine = make_engine();
    auto result = body(engine);
    stats_ = engine.last_run_stats();
    return result;
  }

  /// Builds an engine around a copy of this simulator. Multi-threaded
  /// engines share this simulator's cached process-wide context
  /// (acquired on first use, re-acquired if the configured thread count
  /// changed); single-threaded ones need no pool.
  BatchEngine<State> make_engine();

  /// Throws unless `circuit` is runnable (parameters resolved, and
  /// measured when `require_measurements`).
  void check_runnable(const Circuit& circuit, bool require_measurements) const {
    BGLS_REQUIRE(!circuit.is_parameterized(),
                 "circuit has unresolved parameters; resolve() it first");
    BGLS_REQUIRE(!require_measurements || circuit.has_measurements(),
                 "circuit has no measurements to sample; append measure()");
  }

  /// True when the circuit takes the dictionary-batched path of
  /// Sec. 3.2.3: one shared state only works when the state evolution
  /// is deterministic (no channels, no classical feed-forward) and
  /// nothing acts after measurement.
  [[nodiscard]] bool can_parallelize(const Circuit& circuit) const {
    if (options_.disable_sample_parallelization || circuit.has_channels() ||
        !circuit.measurements_are_terminal()) {
      return false;
    }
    for (const auto& op : circuit.all_operations()) {
      if (op.is_classically_controlled()) return false;
    }
    return true;
  }

  [[nodiscard]] static std::vector<int> support_of(const Operation& op) {
    return {op.qubits().begin(), op.qubits().end()};
  }

  /// One candidate-resampling step: draws the new bitstring for a single
  /// trajectory.
  Bitstring update_bits(const State& state, Bitstring b, const Operation& op,
                        Rng& rng) {
    const auto support = support_of(op);
    const CandidateList candidates = expand_candidates(b, support);
    std::array<double, (1u << kMaxGateArity)> weights{};
    for (int i = 0; i < candidates.count; ++i) {
      weights[static_cast<std::size_t>(i)] =
          compute_probability_(state, candidates.values[static_cast<std::size_t>(i)]);
    }
    stats_.probability_evaluations +=
        static_cast<std::size_t>(candidates.count);
    const std::size_t chosen = rng.categorical(
        {weights.data(), static_cast<std::size_t>(candidates.count)});
    return candidates.values[chosen];
  }

  /// One Sec. 3.2.3 dictionary-resampling step against an already
  /// evolved state: splits every unique bitstring's multiplicity across
  /// its candidates with exact multinomial draws from `rng`, replacing
  /// `dictionary` in place. Returns the number of probability
  /// evaluations performed.
  std::size_t resample_dictionary(const State& state, const Operation& op,
                                  BatchDictionary& dictionary,
                                  Rng& rng) const {
    const auto support = support_of(op);
    BatchDictionary next;
    std::array<double, (1u << kMaxGateArity)> weights{};
    std::array<std::uint64_t, (1u << kMaxGateArity)> counts{};
    std::size_t evaluations = 0;
    for (const auto& [bits, multiplicity] : dictionary) {
      const CandidateList candidates = expand_candidates(bits, support);
      const auto n = static_cast<std::size_t>(candidates.count);
      for (std::size_t i = 0; i < n; ++i) {
        weights[i] = compute_probability_(state, candidates.values[i]);
      }
      evaluations += n;
      rng.multinomial(multiplicity, {weights.data(), n}, {counts.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        if (counts[i] > 0) next[candidates.values[i]] += counts[i];
      }
    }
    dictionary.swap(next);
    return evaluations;
  }

  /// Dictionary-batched sampling (Sec. 3.2.3): evolves one state and
  /// resamples one bitstring→multiplicity dictionary after each gate,
  /// drawing every multinomial from `rng`.
  Counts sample_parallel(const Circuit& circuit, std::uint64_t repetitions,
                         Rng& rng) {
    stats_.used_sample_parallelization = true;
    stats_.trajectories = 1;
    State state = *initial_state_;
    BatchDictionary dictionary{{Bitstring{0}, repetitions}};
    stats_.max_dictionary_size = 1;
    // Evolution is timed only on traced runs: two clock reads per gate
    // cost more than a small state's gate.
    const bool timed = options_.trace != nullptr;
    double evolve_seconds = 0.0;

    for (const auto& op : circuit.all_operations()) {
      if (op.gate().is_measurement()) continue;
      options_.cancel_token.throw_if_stopped();
      fault::throw_if_fails("shard_run");
      if (timed) {
        const Stopwatch evolve;
        apply_op_(op, state, rng);
        evolve_seconds += evolve.seconds();
      } else {
        apply_op_(op, state, rng);
      }
      ++stats_.state_applications;
      if (options_.skip_diagonal_updates && op.gate().is_diagonal()) {
        ++stats_.diagonal_updates_skipped;
        continue;
      }
      stats_.probability_evaluations +=
          resample_dictionary(state, op, dictionary, rng);
      stats_.max_dictionary_size =
          std::max(stats_.max_dictionary_size, dictionary.size());
    }
    stats_.evolve_ms += evolve_seconds * 1000.0;
    return {dictionary.begin(), dictionary.end()};
  }

  /// Exact channel handling: sample (Kraus branch, candidate) jointly —
  /// this is BGLS on the channel's unitary dilation with the environment
  /// bit discarded, so the hidden-variable invariant holds exactly.
  template <typename S = State>
  Bitstring apply_channel_jointly(const Operation& op, S& state, Bitstring b,
                                  Rng& rng)
    requires requires(S s, const Matrix& m, std::span<const Qubit> qs) {
      s.apply_matrix(m, qs);
      s.renormalize();
    }
  {
    const auto& kraus = op.gate().channel().operators();
    const auto support = support_of(op);
    const CandidateList candidates = expand_candidates(b, support);
    const auto num_candidates = static_cast<std::size_t>(candidates.count);

    std::vector<S> branches;
    branches.reserve(kraus.size());
    std::vector<double> weights;
    weights.reserve(kraus.size() * num_candidates);
    for (const auto& k : kraus) {
      S branch = state;
      branch.apply_matrix(k, op.qubits());
      for (std::size_t i = 0; i < num_candidates; ++i) {
        weights.push_back(compute_probability_(branch, candidates.values[i]));
      }
      branches.push_back(std::move(branch));
    }
    stats_.probability_evaluations += weights.size();
    const std::size_t chosen = rng.categorical(weights);
    state = std::move(branches[chosen / num_candidates]);
    state.renormalize();
    ++stats_.state_applications;
    return candidates.values[chosen % num_candidates];
  }

  /// One full trajectory; returns the final bitstring and (optionally)
  /// appends measurement records.
  Bitstring run_one_trajectory(const Circuit& circuit, Rng& rng,
                               Result* result) {
    State state = *initial_state_;
    Bitstring b = 0;
    // Per-trajectory classical record, read by classically-controlled
    // operations (feed-forward).
    std::map<std::string, Bitstring> records;
    ++stats_.trajectories;
    for (const auto& op : circuit.all_operations()) {
      options_.cancel_token.throw_if_stopped();
      const Gate& gate = op.gate();
      if (gate.is_measurement()) {
        // b is a faithful sample of the instantaneous distribution, so
        // its restriction to the measured qubits *is* the outcome;
        // collapse the state to stay consistent with it.
        const Bitstring packed = pack_key_bits(b, op.qubits());
        records[gate.measurement_key()] = packed;
        if (result != nullptr) {
          result->add_record(gate.measurement_key(), packed);
        }
        project_state(state, op.qubits(), b);
        continue;
      }
      if (op.is_classically_controlled()) {
        const auto it = records.find(op.condition_key());
        BGLS_REQUIRE(it != records.end(), "operation ", op.to_string(),
                     " is conditioned on key '", op.condition_key(),
                     "' which has not been measured yet");
        if (it->second == 0) continue;  // condition false: skip the gate
      }
      if (gate.is_channel() && hooks_are_native_) {
        if constexpr (requires(State s, const Matrix& m,
                               std::span<const Qubit> qs) {
                        s.apply_matrix(m, qs);
                        s.renormalize();
                      }) {
          b = apply_channel_jointly(op, state, b, rng);
          continue;
        }
      }
      apply_op_(op, state, rng);
      ++stats_.state_applications;
      if (options_.skip_diagonal_updates && gate.is_unitary() &&
          gate.is_diagonal()) {
        ++stats_.diagonal_updates_skipped;
        continue;
      }
      b = update_bits(state, b, op, rng);
    }
    return b;
  }

  void project_state(State& state, std::span<const Qubit> qubits,
                     Bitstring b) {
    if constexpr (requires(State s, std::span<const Qubit> qs, Bitstring bb) {
                    s.project(qs, bb);
                  }) {
      state.project(qubits, b);
    } else {
      detail::throw_error<UnsupportedOperationError>(
          "state type does not support projection; mid-circuit "
          "measurements need a project(qubits, bits) member");
    }
  }

  /// Never mutated after construction, so copies of the simulator (one
  /// per engine run and per shard) share it instead of copying it.
  std::shared_ptr<const State> initial_state_;
  SimulatorOptions options_;
  ApplyOpFn apply_op_;
  ProbabilityFn compute_probability_;
  bool hooks_are_native_ = true;
  RunStats stats_;
  /// Lazily acquired shared engine context (pool). Copying the
  /// simulator copies the pointer, so copies share one pool.
  std::shared_ptr<EngineContext> engine_context_;
};

}  // namespace bgls

// The engine templates need the full Simulator definition above, and
// Simulator::run/sample instantiate BatchEngine — pulling the engine in
// here keeps "include core/simulator.h" a complete, self-sufficient way
// to run a circuit.
#include "engine/engine.h"  // IWYU pragma: keep

namespace bgls {

// Out of line: needs the complete BatchEngine/EngineContext definitions.
template <typename State>
BatchEngine<State> Simulator<State>::make_engine() {
  const int resolved = ThreadPool::resolve_num_threads(options_.num_threads);
  if (resolved <= 1) return BatchEngine<State>(*this);
  if (!engine_context_ || engine_context_->num_threads() != resolved) {
    engine_context_ = EngineContext::shared(resolved);
  }
  return BatchEngine<State>(*this, engine_context_);
}

}  // namespace bgls
