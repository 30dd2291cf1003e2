// Tests for the library's one asynchronous entry point,
// Session::run_async, over the batch engine: futures resolve with the
// synchronous result and its RunStats, concurrent submission from many
// threads is race-free and deterministic, shard exceptions propagate
// through the future (not std::terminate), a job outlives the session
// that submitted it, and the pool behind it all is genuinely shared and
// long-lived.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "api/session.h"
#include "circuit/circuit.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/simulator.h"
#include "engine/context.h"
#include "engine/engine.h"
#include "engine_test_helpers.h"
#include "statevector/state.h"
#include "util/error.h"
#include "util/fault.h"

namespace bgls {
namespace {

using testing::with_terminal_measurement;

constexpr std::uint64_t kSeed = 4321;

Circuit batched_workload(int n) {
  return testing::batched_workload(n, /*circuit_seed=*/23, /*num_moments=*/10,
                                   /*op_density=*/0.7);
}

Circuit trajectory_workload(int n) {
  return testing::trajectory_workload(n, /*depolarize_p=*/0.05);
}

Simulator<StateVectorState> make_simulator(int n, int num_threads,
                                           std::uint64_t num_streams = 8) {
  return testing::make_sv_simulator(n, num_threads, num_streams);
}

RunRequest sv_request(Circuit circuit, std::uint64_t reps, std::uint64_t seed,
                      int threads) {
  return RunRequest()
      .with_circuit(std::move(circuit))
      .with_repetitions(reps)
      .with_seed(seed)
      .with_threads(threads)
      .with_rng_streams(8)
      .with_backend(BackendId::kStateVector);
}

TEST(BatchEngineAsync, SubmitResolvesWithSyncResultAndPerStreamStats) {
  const RunRequest request = sv_request(trajectory_workload(3), 120, kSeed, 2);
  Session session;
  const RunResult sync = session.run(request);
  const RunResult async = session.run_async(request).get();

  EXPECT_EQ(async.measurements.histogram("m"),
            sync.measurements.histogram("m"));
  EXPECT_EQ(async.measurements.values("m"), sync.measurements.values("m"));
  ASSERT_EQ(async.stats.per_stream.size(), sync.stats.per_stream.size());
  std::size_t trajectories = 0;
  for (std::size_t i = 0; i < async.stats.per_stream.size(); ++i) {
    const StreamStats& async_shard = async.stats.per_stream[i];
    const StreamStats& sync_shard = sync.stats.per_stream[i];
    EXPECT_EQ(async_shard.trajectories, sync_shard.trajectories);
    EXPECT_EQ(async_shard.state_applications, sync_shard.state_applications);
    EXPECT_EQ(async_shard.probability_evaluations,
              sync_shard.probability_evaluations);
    trajectories += async_shard.trajectories;
  }
  EXPECT_EQ(trajectories, 120u);
  EXPECT_EQ(async.stats.trajectories, sync.stats.trajectories);
  EXPECT_EQ(async.stats.state_applications, sync.stats.state_applications);
}

TEST(BatchEngineAsync, BatchedPathPerStreamCarriesProbabilityEvaluations) {
  Session session;
  const RunResult outcome =
      session.run_async(sv_request(batched_workload(4), 5000, kSeed, 2)).get();
  EXPECT_TRUE(outcome.stats.used_sample_parallelization);
  // One dictionary, one evolution, one stream at every thread count.
  EXPECT_EQ(outcome.stats.trajectories, 1u);
  ASSERT_EQ(outcome.stats.per_stream.size(), 1u);
  EXPECT_EQ(outcome.stats.per_stream[0].probability_evaluations,
            outcome.stats.probability_evaluations);
  EXPECT_GT(outcome.stats.probability_evaluations, 0u);
}

TEST(BatchEngineAsync, RunAsyncMatchesSyncRun) {
  const RunRequest request = sv_request(batched_workload(4), 3000, kSeed, 2);
  Session session;
  std::future<RunResult> future = session.run_async(request);
  EXPECT_EQ(future.get().measurements.histogram("m"),
            session.run(request).measurements.histogram("m"));
}

TEST(BatchEngineAsync, ManyJobsFromManyThreadsAreRaceFreeAndDeterministic) {
  const Circuit circuit = trajectory_workload(3);
  const std::uint64_t reps = 60;
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;

  // Reference histograms computed synchronously, one per distinct seed.
  Session session;
  std::vector<Counts> reference;
  for (int j = 0; j < kThreads * kJobsPerThread; ++j) {
    reference.push_back(
        session.run(sv_request(circuit, reps, kSeed + j, 2))
            .measurements.histogram("m"));
  }

  std::vector<std::future<RunResult>> futures(
      static_cast<std::size_t>(kThreads * kJobsPerThread));
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const int job = t * kJobsPerThread + j;
        futures[static_cast<std::size_t>(job)] =
            session.run_async(sv_request(circuit, reps, kSeed + job, 2));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (int job = 0; job < kThreads * kJobsPerThread; ++job) {
    EXPECT_EQ(futures[static_cast<std::size_t>(job)]
                  .get()
                  .measurements.histogram("m"),
              reference[static_cast<std::size_t>(job)])
        << "job " << job << " diverged from its synchronous reference";
  }
}

TEST(BatchEngineAsync, AsyncWorksOnSingleThreadEngine) {
  const RunRequest request = sv_request(
      with_terminal_measurement(ghz_circuit(2), 2, "m"), 300, kSeed, 1);
  Session session;
  EXPECT_EQ(session.run_async(request).get().measurements.histogram("m"),
            session.run(request).measurements.histogram("m"));
}

TEST(BatchEngineAsync, JobOutlivesTheEngineThatSubmittedIt) {
  const RunRequest request = sv_request(trajectory_workload(3), 150, kSeed, 2);
  Counts sync;
  std::future<RunResult> future;
  {
    Session session;
    sync = session.run(request).measurements.histogram("m");
    future = session.run_async(request);
    // The session dies here; the job holds its backend and the shared
    // pool alive.
  }
  EXPECT_EQ(future.get().measurements.histogram("m"), sync);
}

/// Arms the engine's "shard_run" fault point to fire on every check for
/// the lifetime of the guard, so every shard throws FaultInjectedError.
class FailingShards {
 public:
  FailingShards() { fault::arm("shard_run", 1.0, /*seed=*/1); }
  ~FailingShards() { fault::disarm_all(); }
  FailingShards(const FailingShards&) = delete;
  FailingShards& operator=(const FailingShards&) = delete;
};

TEST(BatchEngineAsync, TrajectoryShardExceptionPropagatesThroughFuture) {
  // Mid-circuit measurement + feed-forward forces the per-trajectory
  // path, so the throw happens inside pool shards.
  Circuit circuit;
  circuit.append(h(0));
  circuit.append(measure({0}, "mid"));
  circuit.append(x(1).controlled_by_measurement("mid"));
  circuit.append(measure({1}, "out"));
  const RunRequest request = sv_request(circuit, 50, kSeed, 2);

  Session session;
  {
    const FailingShards failing;
    std::future<RunResult> future = session.run_async(request);
    EXPECT_THROW((void)future.get(), FaultInjectedError);
  }
  // The session (and its pool) stay usable after a failed job.
  EXPECT_EQ(session.run_async(request).get().measurements.repetitions(), 50u);
}

TEST(BatchEngineAsync, BatchedEvolutionExceptionPropagatesThroughFuture) {
  // A unitary terminal-measurement circuit takes the one-dictionary
  // path; a throw inside its gate loop must surface from the future.
  const RunRequest request = sv_request(
      with_terminal_measurement(ghz_circuit(2), 2, "m"), 100, kSeed, 2);
  Session session;
  {
    const FailingShards failing;
    std::future<RunResult> future = session.run_async(request);
    EXPECT_THROW((void)future.get(), FaultInjectedError);
  }
  EXPECT_EQ(session.run_async(request).get().measurements.repetitions(),
            100u);
}

TEST(EngineContext, SharedCacheReturnsOnePoolPerThreadCount) {
  const std::shared_ptr<EngineContext> a = EngineContext::shared(3);
  const std::shared_ptr<EngineContext> b = EngineContext::shared(3);
  const std::shared_ptr<EngineContext> c = EngineContext::shared(5);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->num_threads(), 3);
  // num_threads - 1 workers; the synchronous caller is the +1.
  EXPECT_EQ(a->pool().size(), 2);
  EXPECT_EQ(EngineContext::shared(1)->pool().size(), 1);
}

TEST(EngineContext, SimulatorCachesAndSharesItsContext) {
  const int n = 3;
  const Circuit circuit = trajectory_workload(n);
  Simulator<StateVectorState> sim = make_simulator(n, 2);
  EXPECT_EQ(sim.engine_context(), nullptr);
  Rng rng(kSeed);
  sim.run(circuit, 40, rng);
  const std::shared_ptr<EngineContext> context = sim.engine_context();
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context, EngineContext::shared(2));

  // A second run reuses the same pool instead of building a new one.
  Rng rng2(kSeed);
  sim.run(circuit, 40, rng2);
  EXPECT_EQ(sim.engine_context(), context);

  // Copies share the context — the copy/move story for the cached pool.
  Simulator<StateVectorState> copy = sim;
  EXPECT_EQ(copy.engine_context(), context);
}

}  // namespace
}  // namespace bgls
