/// \file probes.h
/// Per-layer probes: each times calls into one layer's public functions
/// on the workload's own inputs, under a span named after the layer.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"
#include "circuit/circuit.h"
#include "common.h"

namespace perfbench {

/// bgls_pool_tasks_total from Session::metrics_snapshot(): the engine
/// pool's task count, one per per-gate fork.
std::uint64_t pool_tasks();

/// Fills the statevector.* metrics for `unitary` (a measurement- and
/// channel-free circuit): evolve time on a fresh state, computed GB/s
/// per kernel class against an in-binary sweep of the state's size,
/// probability() cost, and per-apply cost at `small` (a circuit at
/// noisy_traj's width).
void probe_statevector(const bgls::Circuit& unitary, int num_qubits,
                       const bgls::Circuit& small, RunReport& report);

/// api.resolve_us and qasm.parse_us over the workload's circuits.
void probe_front(bgls::Session& session,
                 const std::vector<bgls::Circuit>& circuits,
                 const std::vector<std::string>& qasm_texts,
                 RunReport& report);

/// engine.speedup_t2/t4: BatchEngine::sample at 1 thread over the same
/// call at 2 and at 4 threads.
void probe_engine_speedup(const bgls::Circuit& circuit, std::uint64_t reps,
                          std::uint64_t seed, RunReport& report);

/// service.journal_append_us: Journal::append (fsync'd) on a scratch
/// file in the working directory, with records of the given sizes.
void probe_journal_append(const std::vector<std::size_t>& record_sizes,
                          RunReport& report);

}  // namespace perfbench
