// Determinism regression suite for the batch engine: for a fixed seed,
// the merged histogram must be bit-identical across every execution
// configuration — thread count (1 included), sync vs async submission,
// direct engine use vs Simulator delegation, native vs custom hooks, and
// run_batch. This pins the engine's core invariant (threads only decide
// *where* a shard runs, never *what* it computes) on both
// decompositions.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"
#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/simulator.h"
#include "engine/engine.h"
#include "engine_test_helpers.h"
#include "statevector/state.h"

namespace bgls {
namespace {

constexpr std::uint64_t kSeed = 20230715;

using testing::histogram_hash;
using testing::with_terminal_measurement;

Circuit batched_workload(int n) {
  return testing::batched_workload(n, /*circuit_seed=*/41, /*num_moments=*/12,
                                   /*op_density=*/0.8);
}

Circuit trajectory_workload(int n) {
  return testing::trajectory_workload(n, /*depolarize_p=*/0.04);
}

Circuit feed_forward_workload() {
  Circuit circuit;
  circuit.append(h(0));
  circuit.append(measure({0}, "mid"));
  circuit.append(x(1).controlled_by_measurement("mid"));
  circuit.append(measure({1}, "out"));
  return circuit;
}

Simulator<StateVectorState> make_simulator(int n, int num_threads) {
  return testing::make_sv_simulator(n, num_threads, /*num_streams=*/8);
}

struct Workload {
  const char* name;
  Circuit circuit;
  int qubits;
  std::uint64_t repetitions;
  std::string key;
};

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  all.push_back({"batched", batched_workload(4), 4, 4000, "m"});
  all.push_back({"trajectory", trajectory_workload(3), 3, 500, "m"});
  all.push_back({"feed-forward", feed_forward_workload(), 2, 400, "out"});
  return all;
}

TEST(EngineDeterminism, HashIdenticalAcrossThreadCountsSyncAndAsync) {
  Session session;
  for (const Workload& workload : workloads()) {
    std::uint64_t reference = 0;
    bool first = true;
    for (const int threads : {1, 2, 8}) {
      BatchEngine<StateVectorState> engine{
          make_simulator(workload.qubits, threads)};
      const std::uint64_t sync_hash = histogram_hash(
          engine.run(workload.circuit, workload.repetitions, kSeed)
              .histogram(workload.key));
      const std::uint64_t async_hash = histogram_hash(
          session
              .run_async(RunRequest()
                             .with_circuit(workload.circuit)
                             .with_repetitions(workload.repetitions)
                             .with_seed(kSeed)
                             .with_threads(threads)
                             .with_rng_streams(8)
                             .with_backend(BackendId::kStateVector))
              .get()
              .measurements.histogram(workload.key));
      EXPECT_EQ(async_hash, sync_hash)
          << workload.name << ": async diverged from sync at " << threads
          << " threads";
      if (first) {
        reference = sync_hash;
        first = false;
      } else {
        EXPECT_EQ(sync_hash, reference)
            << workload.name << ": thread count " << threads
            << " changed the histogram";
      }
    }
  }
}

TEST(EngineDeterminism, SimulatorDelegationMatchesDirectEngineUse) {
  for (const Workload& workload : workloads()) {
    for (const int threads : {1, 2}) {
      BatchEngine<StateVectorState> engine{
          make_simulator(workload.qubits, threads)};
      const std::uint64_t direct = histogram_hash(
          engine.run(workload.circuit, workload.repetitions, kSeed)
              .histogram(workload.key));
      Simulator<StateVectorState> sim =
          make_simulator(workload.qubits, threads);
      Rng rng(kSeed);
      const std::uint64_t delegated = histogram_hash(
          sim.run(workload.circuit, workload.repetitions, rng)
              .histogram(workload.key));
      EXPECT_EQ(delegated, direct) << workload.name << " at " << threads
                                   << " threads";
    }
  }
}

TEST(EngineDeterminism, CustomHooksMatchNativeHooksThroughEngine) {
  // User-provided hooks take the same decomposition as the native ones,
  // so hooks that compute the same values must produce bit-identical
  // histograms at every thread count. (Channel circuits are excluded:
  // native and custom hooks legitimately route channels differently.)
  const Workload workload{"batched", batched_workload(4), 4, 4000, "m"};
  {
    for (const int threads : {1, 2, 8}) {
      SimulatorOptions options;
      options.num_threads = threads;
      options.num_rng_streams = 8;
      Simulator<StateVectorState> native{StateVectorState(workload.qubits),
                                         options};
      Simulator<StateVectorState> custom{
          StateVectorState(workload.qubits),
          [](const Operation& op, StateVectorState& state, Rng& rng) {
            apply_op(op, state, rng);
          },
          [](const StateVectorState& state, Bitstring b) {
            return compute_probability(state, b);
          },
          options};
      BatchEngine<StateVectorState> native_engine{std::move(native)};
      BatchEngine<StateVectorState> custom_engine{std::move(custom)};
      EXPECT_EQ(
          histogram_hash(
              custom_engine.run(workload.circuit, workload.repetitions, kSeed)
                  .histogram(workload.key)),
          histogram_hash(
              native_engine.run(workload.circuit, workload.repetitions, kSeed)
                  .histogram(workload.key)))
          << workload.name << ": custom hooks changed the histogram at "
          << threads << " threads";
    }
  }
}

TEST(EngineDeterminism, RunBatchIdenticalAcrossThreads) {
  std::vector<Circuit> circuits;
  circuits.push_back(batched_workload(3));
  circuits.push_back(trajectory_workload(3));
  circuits.push_back(
      with_terminal_measurement(ghz_circuit(3), 3, "m"));

  std::vector<std::uint64_t> reference;
  for (const int threads : {1, 2, 8}) {
    BatchEngine<StateVectorState> engine{make_simulator(3, threads)};
    Rng rng(kSeed);
    const std::vector<Result> results = engine.run_batch(circuits, 400, rng);
    ASSERT_EQ(results.size(), circuits.size());
    std::vector<std::uint64_t> hashes;
    for (const Result& result : results) {
      EXPECT_EQ(result.repetitions(), 400u);
      hashes.push_back(histogram_hash(result.histogram("m")));
    }
    if (reference.empty()) {
      reference = hashes;
    } else {
      EXPECT_EQ(hashes, reference)
          << "threads=" << threads << " changed a run_batch histogram";
    }
  }
}

}  // namespace
}  // namespace bgls
