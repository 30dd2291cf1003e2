/// \file bgls.h
/// Aggregate public header: include this to get the whole library (the
/// equivalent of `import bgls` in the Python package).
///
/// Namespaced API tour:
///  - bgls::Session / bgls::RunRequest / bgls::RunResult — the runtime
///    front door: pick a backend per request (or Backend kAuto for the
///    circuit analyzer), run/run_async/run_batch over type-erased
///    circuits (api/session.h); bgls::Backend / bgls::BackendRegistry /
///    bgls::BackendSelector for custom backends and routing
///    (api/backend.h, api/registry.h, api/selector.h);
///  - bgls::Circuit / bgls::Gate / free operation builders (h, cnot,
///    measure, ...) — circuit construction (circuit/*.h);
///  - bgls::Simulator<State> — the gate-by-gate sampler (core/simulator.h);
///  - bgls::BatchEngine<State> / bgls::EngineContext / bgls::ThreadPool
///    — the batch-sampling engine behind every Simulator::run: one
///    dictionary for batched circuits, trajectory shards across
///    deterministic RNG streams on a long-lived shared pool, and
///    run_batch() for many-circuit sweeps (engine/engine.h; threads set
///    via SimulatorOptions::num_threads). The one asynchronous entry
///    point is Session::run_async;
///  - state backends: bgls::StateVectorState, bgls::DensityMatrixState,
///    bgls::CHState (+ act_on_near_clifford), bgls::MPSState;
///  - bgls::optimize_for_bgls — circuit fusion for the sampler;
///  - bgls::parse_qasm / bgls::to_qasm — OpenQASM 2.0 interop;
///  - bgls::Graph / bgls::solve_maxcut_qaoa — the QAOA application;
///  - bgls::obs::MetricsRegistry / bgls::obs::Trace — the telemetry
///    subsystem: process-wide counters/gauges/latency histograms over
///    every layer (kernels, engine, scheduler, daemon), per-job trace
///    spans with deterministic IDs, and Prometheus text exposition
///    (obs/metrics.h, obs/trace.h, obs/exposition.h; compile out with
///    -DBGLS_ENABLE_TELEMETRY=OFF);
///  - bgls::Rng — seeded randomness for reproducible sampling, with
///    jump()/split(i) deterministic stream derivation for parallel runs.

#pragma once

#include "api/adapters.h"
#include "api/backend.h"
#include "api/registry.h"
#include "api/run_types.h"
#include "api/selector.h"
#include "api/session.h"
#include "channels/channels.h"
#include "circuit/circuit.h"
#include "circuit/decompose.h"
#include "circuit/diagram.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/baseline.h"
#include "core/observables.h"
#include "core/optimize.h"
#include "core/result.h"
#include "core/simulator.h"
#include "densitymatrix/state.h"
#include "engine/context.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "mps/state.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qaoa/qaoa.h"
#include "qasm/qasm.h"
#include "stabilizer/ch_form.h"
#include "stabilizer/near_clifford.h"
#include "stabilizer/tableau.h"
#include "statevector/state.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timing.h"
