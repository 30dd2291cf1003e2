/// \file run_types.h
/// Value types of the runtime API (api/session.h): backend identifiers,
/// capability flags, and the RunRequest/RunResult pair every entry point
/// of the type-erased layer speaks.
///
/// The templated core (Simulator<State>, BatchEngine<State>) stays the
/// zero-overhead way to drive one statically chosen representation; the
/// runtime API wraps it for callers that pick the representation per
/// request — a service routing heterogeneous circuits, a CLI taking
/// `--backend`, a test sweeping every backend. RunRequest unifies
/// SimulatorOptions and the engine knobs into one value with
/// builder-style setters, mirroring how the paper's Python package
/// assembles a simulator from runtime ingredients (Sec. 3.1).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "circuit/circuit.h"
#include "core/progress.h"
#include "core/result.h"
#include "core/simulator.h"
#include "mps/state.h"
#include "util/cancellation.h"

namespace bgls {

/// Identifies a simulation strategy at runtime. kAuto defers the choice
/// to the BackendSelector (api/selector.h); kCustom marks
/// user-registered backends that are addressed by name instead.
enum class BackendId {
  kAuto,
  kStateVector,
  kDensityMatrix,
  kStabilizer,
  kMps,
  kCustom,
};

/// Canonical lowercase name ("auto", "statevector", "densitymatrix",
/// "stabilizer", "mps", "custom").
[[nodiscard]] std::string_view backend_id_name(BackendId id);

namespace detail {
/// ASCII lowercase fold shared by backend-name parsing and the
/// registry's case-insensitive lookup.
[[nodiscard]] std::string ascii_lower(std::string_view text);
}  // namespace detail

// (Backend names/aliases are resolved by the BackendRegistry — the
// single source of truth; see api/registry.h. RunRequest addresses
// backends either by BackendId or by registered name.)

/// What a Backend can simulate — consulted by Backend::can_run and the
/// BackendSelector so unrunnable requests fail with a reason instead of
/// deep inside a kernel.
struct BackendCapabilities {
  /// Largest register the representation supports.
  int max_qubits = 0;
  /// Largest gate arity applied natively (without decomposition).
  int max_gate_arity = 0;
  /// Kraus channels (quantum-trajectory or exact branching).
  bool supports_channels = false;
  /// Mid-circuit measurement collapse (project()).
  bool supports_mid_circuit_measurement = false;
  /// Classical feed-forward (operations conditioned on records).
  bool supports_classical_control = false;
  /// Unitary gates must be Clifford (the stabilizer representation) —
  /// softened by near_clifford_rotations below.
  bool clifford_gates_only = false;
  /// Rz/Phase/T/T† accepted via stochastic sum-over-Cliffords branches
  /// (Sec. 4.2); sampling those circuits is approximate.
  bool near_clifford_rotations = false;
  /// False when some supported circuits sample approximately (the
  /// near-Clifford channel); true for exact representations.
  bool exact_for_all_supported = true;
};

/// One self-contained sampling request: the circuit plus every tuning
/// knob, with builder-style setters so call sites read like the
/// paper's keyword arguments:
///
///   RunRequest()
///       .with_circuit(circuit)
///       .with_repetitions(100000)
///       .with_seed(7)
///       .with_backend(BackendId::kAuto)
///       .with_threads(8);
struct RunRequest {
  /// The circuit to sample (must contain measurements for run()).
  Circuit circuit;
  /// Number of samples. 0 is legal: the run still validates the
  /// circuit and returns an empty, well-formed RunResult with all
  /// measurement keys declared.
  std::uint64_t repetitions = 1;
  /// RNG seed; fixes the sampled records for a given backend.
  std::uint64_t seed = 0;
  /// Which representation runs the request; kAuto asks the selector.
  BackendId backend = BackendId::kAuto;
  /// Registry lookup by name (custom backends); wins over `backend`
  /// when non-empty.
  std::string backend_name;
  /// Initial computational-basis state |initial⟩ (default |0...0⟩).
  Bitstring initial_state = 0;
  /// Worker threads (SimulatorOptions::num_threads: 0 = auto). Never
  /// changes the sampled records.
  int num_threads = 1;
  /// Deterministic RNG shards of a trajectory run (fixes its sampled
  /// values; see SimulatorOptions::num_rng_streams).
  std::uint64_t num_rng_streams = 16;
  /// SimulatorOptions passthroughs (see core/simulator.h).
  bool skip_diagonal_updates = false;
  bool disable_sample_parallelization = false;
  /// Run optimize_for_bgls on the circuit before backend selection and
  /// sampling (fusion may change which backend is eligible: fused
  /// matrix gates are not Clifford).
  bool optimize_circuit = false;
  /// Truncation knobs forwarded to the MPS backend.
  MPSOptions mps_options;
  /// Scheduling priority for queued execution (service JobScheduler):
  /// higher runs first, ties run in submission order. Ignored by
  /// direct Session runs.
  int priority = 0;
  /// Owning tenant for service-side quotas and weighted-fair scheduling
  /// ("" = the anonymous default tenant). Never affects sampled results
  /// — scheduling-only, excluded from the result cache key.
  std::string tenant;
  /// Wall-clock budget in milliseconds; 0 = none. Session::run/
  /// run_async arm it on entry, the service scheduler at submit (so
  /// queue wait counts against it). An exceeded deadline aborts the run
  /// with DeadlineExceededError / a `timeout` job state.
  std::uint64_t deadline_ms = 0;
  /// Cooperative cancellation handle (util/cancellation.h); inert by
  /// default. Callers keep a copy and cancel() it to abort the run
  /// with CancelledError. The deadline above is armed on this token
  /// (one is created when needed).
  CancellationToken cancel_token;
  /// Streaming partial histograms (core/progress.h): run() emits
  /// cumulative per-key histograms every `progress.every` completed
  /// repetitions, deterministically for a fixed seed. run_batch
  /// ignores it.
  ProgressOptions progress;
  /// Optional telemetry trace (obs/trace.h) this run records shard and
  /// phase spans into; non-owning, must outlive the run. The service
  /// scheduler attaches one per job; direct callers may pass their own.
  /// Observation-only — never affects the sampled records.
  obs::Trace* trace = nullptr;
  /// Propagated cross-process trace context (ndjson `trace_id` /
  /// `parent_span_id` on submit): when trace_id is nonzero the
  /// scheduler derives the job's span IDs from it instead of the local
  /// job id, and hangs the job's top-level spans under trace_parent —
  /// so a fleet-front `fleet.place` span and the worker's spans stitch
  /// into one tree. Observation-only; excluded from the result-cache
  /// key (two submissions differing only in trace context share a
  /// cached result).
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;
  /// Checkpoint capture (core/checkpoint.h): the run emits resumable
  /// snapshots every `checkpoint.every` completed repetitions within a
  /// shard plus at shard completion. Observation-only.
  CheckpointOptions checkpoint;
  /// Resume a previous run from its checkpoint: same circuit, seed,
  /// backend, and rng-stream count required; the finished run is
  /// bit-identical to the uninterrupted one.
  std::shared_ptr<const RunCheckpoint> resume;

  // --- Builder-style setters (each returns *this) -----------------------
  RunRequest& with_circuit(Circuit c) {
    circuit = std::move(c);
    return *this;
  }
  RunRequest& with_repetitions(std::uint64_t reps) {
    repetitions = reps;
    return *this;
  }
  RunRequest& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  RunRequest& with_backend(BackendId id) {
    backend = id;
    backend_name.clear();
    return *this;
  }
  RunRequest& with_backend(std::string name) {
    backend_name = std::move(name);
    return *this;
  }
  RunRequest& with_initial_state(Bitstring bits) {
    initial_state = bits;
    return *this;
  }
  RunRequest& with_threads(int threads) {
    num_threads = threads;
    return *this;
  }
  RunRequest& with_rng_streams(std::uint64_t streams) {
    num_rng_streams = streams;
    return *this;
  }
  RunRequest& with_skip_diagonal_updates(bool skip = true) {
    skip_diagonal_updates = skip;
    return *this;
  }
  RunRequest& with_sample_parallelization(bool enabled) {
    disable_sample_parallelization = !enabled;
    return *this;
  }
  RunRequest& with_optimization(bool optimize = true) {
    optimize_circuit = optimize;
    return *this;
  }
  RunRequest& with_mps_options(MPSOptions options) {
    mps_options = options;
    return *this;
  }
  RunRequest& with_priority(int p) {
    priority = p;
    return *this;
  }
  RunRequest& with_tenant(std::string name) {
    tenant = std::move(name);
    return *this;
  }
  RunRequest& with_deadline_ms(std::uint64_t ms) {
    deadline_ms = ms;
    return *this;
  }
  RunRequest& with_cancel_token(CancellationToken token) {
    cancel_token = std::move(token);
    return *this;
  }
  RunRequest& with_progress(std::uint64_t every, ProgressFn sink) {
    progress.every = every;
    progress.sink = std::move(sink);
    return *this;
  }
  RunRequest& with_trace(obs::Trace* t) {
    trace = t;
    return *this;
  }
  RunRequest& with_trace_context(std::uint64_t id, std::uint64_t parent = 0) {
    trace_id = id;
    trace_parent = parent;
    return *this;
  }
  RunRequest& with_checkpoint(std::uint64_t every,
                              std::function<void(const RunCheckpoint&)> sink) {
    checkpoint.every = every;
    checkpoint.sink = std::move(sink);
    return *this;
  }
  RunRequest& with_resume(std::shared_ptr<const RunCheckpoint> from) {
    resume = std::move(from);
    return *this;
  }

  /// The SimulatorOptions this request maps to — exactly what a direct
  /// templated run with the same knobs would use, which is what makes
  /// Session results bit-identical to direct Simulator<State> runs.
  [[nodiscard]] SimulatorOptions simulator_options() const;
};

/// What a run produced: the measurement records plus enough metadata to
/// audit the routing (which backend ran, why, and its counters).
struct RunResult {
  /// Measurement records keyed by measurement key (cirq.Result shape).
  Result measurements;
  /// The executing simulator's counters (merged across shards on
  /// engine runs; shared by the whole batch for run_batch results).
  RunStats stats;
  /// Resolved backend (never kAuto; kCustom for named registrations).
  BackendId backend_id = BackendId::kStateVector;
  /// The executing backend's registered name.
  std::string backend_name;
  /// Why the selector picked this backend (empty for explicit picks).
  std::string selection_reason;
  /// Wall-clock time of the dispatch, seconds (0 when not measured).
  double wall_seconds = 0.0;
};

}  // namespace bgls
