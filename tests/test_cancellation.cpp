/// \file test_cancellation.cpp
/// Cooperative cancellation and deadlines (util/cancellation.h) through
/// every execution layer: the serial Simulator loops, the BatchEngine
/// shard loops, and the Session facade. The load-bearing guarantee: an
/// aborted run discards its partial work and never corrupts shared
/// state — later runs on the same pool/session are bit-identical to
/// runs on a fresh one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "api/session.h"
#include "engine_test_helpers.h"
#include "util/cancellation.h"

namespace bgls {
namespace {

using namespace std::chrono_literals;
using testing::batched_workload;
using testing::make_sv_simulator;
using testing::trajectory_workload;

TEST(CancellationToken, InertTokenNeverStops) {
  const CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_EQ(token.stop_kind(), StopKind::kNone);
  EXPECT_FALSE(token.stop_requested());
  EXPECT_NO_THROW(token.throw_if_stopped());
  // cancel()/set_deadline on an inert token are harmless no-ops.
  CancellationToken inert;
  inert.cancel();
  inert.set_deadline_after(0ms);
  EXPECT_FALSE(inert.stop_requested());
}

TEST(CancellationToken, CancelPropagatesToCopies) {
  const CancellationToken token = CancellationToken::make();
  const CancellationToken copy = token;
  EXPECT_FALSE(copy.stop_requested());
  token.cancel();
  EXPECT_EQ(copy.stop_kind(), StopKind::kCancelled);
  EXPECT_THROW(copy.throw_if_stopped(), CancelledError);
}

TEST(CancellationToken, DeadlineExpires) {
  CancellationToken token = CancellationToken::make();
  token.set_deadline(std::chrono::steady_clock::now() - 1ms);
  EXPECT_EQ(token.stop_kind(), StopKind::kDeadline);
  EXPECT_THROW(token.throw_if_stopped(), DeadlineExceededError);
}

TEST(CancellationToken, CancelWinsOverExpiredDeadline) {
  CancellationToken token = CancellationToken::make();
  token.set_deadline(std::chrono::steady_clock::now() - 1ms);
  token.cancel();
  EXPECT_EQ(token.stop_kind(), StopKind::kCancelled);
}

TEST(SimulatorCancellation, PreCancelledSerialRunThrows) {
  for (const bool batched : {true, false}) {
    const Circuit circuit = batched ? batched_workload(4, 11, 10, 0.8)
                                    : trajectory_workload(3, 0.05);
    SimulatorOptions options;
    options.cancel_token = CancellationToken::make();
    options.cancel_token.cancel();
    Simulator<StateVectorState> sim{StateVectorState(4), options};
    Rng rng(3);
    EXPECT_THROW((void)sim.run(circuit, 100, rng), CancelledError);
  }
}

TEST(SimulatorCancellation, ExpiredDeadlineThrowsDeadlineExceeded) {
  SimulatorOptions options;
  options.cancel_token = CancellationToken::make();
  options.cancel_token.set_deadline(std::chrono::steady_clock::now() - 1ms);
  Simulator<StateVectorState> sim{StateVectorState(3), options};
  Rng rng(3);
  EXPECT_THROW((void)sim.run(trajectory_workload(3, 0.05), 100, rng),
               DeadlineExceededError);
}

TEST(SimulatorCancellation, MidRunCancelStopsTrajectoryRun) {
  // A run big enough to outlive the cancel below by orders of
  // magnitude; per-gate token checks bound the abort latency.
  SimulatorOptions options;
  options.cancel_token = CancellationToken::make();
  Simulator<StateVectorState> sim{StateVectorState(3), options};
  std::thread canceller([token = options.cancel_token]() mutable {
    std::this_thread::sleep_for(20ms);
    token.cancel();
  });
  Rng rng(3);
  EXPECT_THROW(
      (void)sim.run(trajectory_workload(3, 0.05), 500'000'000ULL, rng),
      CancelledError);
  canceller.join();
}

TEST(EngineCancellation, CancelledRunNeverCorruptsLaterRunsOnSamePool) {
  const Circuit circuit = trajectory_workload(3, 0.05);
  const std::uint64_t reps = 5000;

  // Baseline on a fresh engine.
  auto baseline_sim = make_sv_simulator(3, 4, 8);
  BatchEngine<StateVectorState> baseline_engine(baseline_sim);
  const Counts baseline =
      baseline_engine.run(circuit, reps, 77).histogram("m");

  // Same pool: run a huge job, cancel it mid-flight, then re-run the
  // baseline request. The abort must leave no trace.
  SimulatorOptions options;
  options.num_threads = 4;
  options.num_rng_streams = 8;
  options.cancel_token = CancellationToken::make();
  Simulator<StateVectorState> doomed_sim{StateVectorState(3), options};
  BatchEngine<StateVectorState> doomed(doomed_sim);
  std::thread canceller([token = options.cancel_token]() mutable {
    std::this_thread::sleep_for(20ms);
    token.cancel();
  });
  EXPECT_THROW((void)doomed.run(circuit, 500'000'000ULL, 123),
               CancelledError);
  canceller.join();

  auto again_sim = make_sv_simulator(3, 4, 8);
  BatchEngine<StateVectorState> again(again_sim);
  EXPECT_EQ(again.run(circuit, reps, 77).histogram("m"), baseline);
}

TEST(EngineCancellation, CancelAtEveryEarlyGateIsClean) {
  // Cancellation at *any* point must be safe, not just at one lucky
  // timing: pre-cancelled tokens exercise the earliest checks, and the
  // mid-run cases above the later ones. Sweep inline + pooled runs.
  const Circuit circuit = batched_workload(4, 11, 10, 0.8);
  for (const int threads : {1, 4}) {
    SimulatorOptions options;
    options.num_threads = threads;
    options.num_rng_streams = 8;
    options.cancel_token = CancellationToken::make();
    options.cancel_token.cancel();
    Simulator<StateVectorState> sim{StateVectorState(4), options};
    Rng rng(5);
    EXPECT_THROW((void)sim.run(circuit, 512, rng), CancelledError);
    // The simulator object itself stays usable with a fresh token.
    SimulatorOptions clean = options;
    clean.cancel_token = CancellationToken{};
    sim.set_options(clean);
    Rng rng2(5);
    EXPECT_EQ(sim.run(circuit, 512, rng2).repetitions(), 512u);
  }
}

TEST(SessionCancellation, DeadlineMsAbortsRun) {
  Session session;
  const RunRequest request =
      RunRequest()
          .with_circuit(trajectory_workload(3, 0.05))
          .with_repetitions(500'000'000ULL)
          .with_seed(1)
          .with_deadline_ms(50);
  EXPECT_THROW((void)session.run(request), DeadlineExceededError);
}

TEST(SessionCancellation, RunAsyncCancelSurfacesThroughFuture) {
  Session session;
  CancellationToken token = CancellationToken::make();
  std::future<RunResult> future =
      session.run_async(RunRequest()
                            .with_circuit(trajectory_workload(3, 0.05))
                            .with_repetitions(500'000'000ULL)
                            .with_seed(1)
                            .with_threads(2)
                            .with_cancel_token(token));
  std::this_thread::sleep_for(20ms);
  token.cancel();
  EXPECT_THROW((void)future.get(), CancelledError);

  // The session (and its pinned pool) keeps serving identical results.
  const RunRequest small = RunRequest()
                               .with_circuit(trajectory_workload(3, 0.05))
                               .with_repetitions(512)
                               .with_seed(9)
                               .with_threads(2);
  const Counts after = session.run(small).measurements.histogram("m");
  Session fresh;
  EXPECT_EQ(fresh.run(small).measurements.histogram("m"), after);
}

TEST(SessionCancellation, RunBatchHonorsCancellation) {
  Session session;
  CancellationToken token = CancellationToken::make();
  token.cancel();
  const std::vector<Circuit> circuits(4, trajectory_workload(3, 0.05));
  EXPECT_THROW((void)session.run_batch(circuits, RunRequest()
                                                     .with_repetitions(1000)
                                                     .with_threads(2)
                                                     .with_cancel_token(token)),
               CancelledError);
}

TEST(SessionCancellation, CancellationIsObservationOnly) {
  // A token that never fires must not perturb the sampled records.
  const RunRequest plain = RunRequest()
                               .with_circuit(trajectory_workload(3, 0.05))
                               .with_repetitions(2000)
                               .with_seed(21)
                               .with_threads(2);
  RunRequest tokened = plain;
  tokened.with_cancel_token(CancellationToken::make()).with_deadline_ms(
      3'600'000);
  Session session;
  EXPECT_EQ(session.run(plain).measurements.histogram("m"),
            session.run(tokened).measurements.histogram("m"));
}

}  // namespace
}  // namespace bgls
