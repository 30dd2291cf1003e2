/// \file test_checkpoint.cpp
/// Checkpoint/resume (core/checkpoint.h): the crash-safety invariant —
/// resuming from a checkpoint captured at ANY boundary and finishing
/// produces a final histogram and byte-stable report counters identical
/// to the uninterrupted run — pinned for the trajectory decomposition
/// (threads {1, 2, 8}, cross-thread-count) and the one-dictionary path,
/// through the runtime Session on all four builtin backends, plus the
/// JSON round trip and shape-mismatch rejection.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/checkpoint.h"
#include "engine_test_helpers.h"
#include "util/json_parser.h"

namespace bgls {
namespace {

using testing::batched_workload;
using testing::trajectory_workload;
using testing::with_terminal_measurement;

/// Thread-safe collector for every checkpoint a run emits.
class Checkpoints {
 public:
  void operator()(const RunCheckpoint& checkpoint) {
    const std::lock_guard<std::mutex> lock(mutex_);
    all_.push_back(checkpoint);
  }

  std::function<void(const RunCheckpoint&)> sink() {
    return [this](const RunCheckpoint& c) { (*this)(c); };
  }

  [[nodiscard]] const std::vector<RunCheckpoint>& all() const { return all_; }

 private:
  std::mutex mutex_;
  std::vector<RunCheckpoint> all_;
};

void expect_same_run(const RunResult& resumed, const RunResult& baseline,
                     const std::string& context) {
  EXPECT_EQ(resumed.measurements.histogram("m"),
            baseline.measurements.histogram("m"))
      << context;
  const CheckpointStats a = checkpoint_stats_from(resumed.stats);
  const CheckpointStats b = checkpoint_stats_from(baseline.stats);
  EXPECT_EQ(a.state_applications, b.state_applications) << context;
  EXPECT_EQ(a.probability_evaluations, b.probability_evaluations) << context;
  EXPECT_EQ(a.max_dictionary_size, b.max_dictionary_size) << context;
  EXPECT_EQ(a.trajectories, b.trajectories) << context;
  EXPECT_EQ(a.diagonal_updates_skipped, b.diagonal_updates_skipped) << context;
  EXPECT_EQ(resumed.backend_name, baseline.backend_name) << context;
}

/// Runs `request` uninterrupted, then resumes from EVERY checkpoint it
/// emitted (including the complete final one) and asserts each resumed
/// run reproduces the baseline exactly.
void check_resume_at_every_boundary(const RunRequest& prototype,
                                    std::uint64_t every,
                                    std::size_t min_checkpoints = 2) {
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = prototype;
  instrumented.checkpoint.every = every;
  instrumented.checkpoint.sink = checkpoints.sink();
  const RunResult baseline = session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), min_checkpoints);

  for (std::size_t i = 0; i < checkpoints.all().size(); ++i) {
    RunRequest resume_request = prototype;
    resume_request.resume =
        std::make_shared<const RunCheckpoint>(checkpoints.all()[i]);
    const RunResult resumed = session.run(std::move(resume_request));
    expect_same_run(resumed, baseline,
                    "checkpoint " + std::to_string(i) + "/" +
                        std::to_string(checkpoints.all().size()));
  }
}

RunRequest trajectory_request(int threads) {
  return RunRequest()
      .with_circuit(trajectory_workload(3, 0.05))
      .with_repetitions(120)
      .with_seed(7)
      .with_threads(threads)
      .with_rng_streams(8);
}

RunRequest batched_request(int threads) {
  return RunRequest()
      .with_circuit(batched_workload(4, 21, 8, 0.9))
      .with_repetitions(200)
      .with_seed(9)
      .with_threads(threads)
      .with_rng_streams(8);
}

TEST(Checkpoint, SerialTrajectoryResumeAtEveryBoundary) {
  check_resume_at_every_boundary(trajectory_request(1), 20);
}

TEST(Checkpoint, EngineTrajectoryResumeAtEveryBoundaryTwoThreads) {
  check_resume_at_every_boundary(trajectory_request(2), 25);
}

TEST(Checkpoint, EngineTrajectoryResumeAtEveryBoundaryEightThreads) {
  check_resume_at_every_boundary(trajectory_request(8), 25);
}

TEST(Checkpoint, SerialBatchedResumeShardAtomic) {
  // The dictionary-batched path completes its one shard atomically:
  // checkpoints are initial (0 completed) or final snapshots, and both
  // must resume to the identical run.
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = batched_request(1);
  instrumented.checkpoint.every = 50;
  instrumented.checkpoint.sink = checkpoints.sink();
  const RunResult baseline = session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), 1u);
  for (const RunCheckpoint& checkpoint : checkpoints.all()) {
    EXPECT_EQ(checkpoint.mode, CheckpointMode::kDictionary);
    ASSERT_EQ(checkpoint.shards.size(), 1u);
    for (const ShardCheckpoint& shard : checkpoint.shards) {
      EXPECT_TRUE(shard.completed == 0 || shard.completed == shard.total);
    }
  }
  check_resume_at_every_boundary(batched_request(1), 50, 1);
  (void)baseline;
}

TEST(Checkpoint, EngineBatchedResumeAtEveryBoundary) {
  check_resume_at_every_boundary(batched_request(4), 50, 1);
}

TEST(Checkpoint, EngineResumeOnDifferentThreadCount) {
  // Checkpoints record per-shard stream state, not threads: a snapshot
  // produced on 2 threads resumes on 1 or 8 bit-identical.
  Session session;
  const RunResult baseline = session.run(trajectory_request(2));

  Checkpoints checkpoints;
  RunRequest instrumented = trajectory_request(2);
  instrumented.checkpoint.every = 30;
  instrumented.checkpoint.sink = checkpoints.sink();
  (void)session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), 2u);
  const auto middle = std::make_shared<const RunCheckpoint>(
      checkpoints.all()[checkpoints.all().size() / 2]);

  const RunResult on8 =
      session.run(trajectory_request(8).with_resume(middle));
  expect_same_run(on8, baseline, "resume 2->8 threads");
  const RunResult on2 =
      session.run(trajectory_request(2).with_resume(middle));
  expect_same_run(on2, baseline, "resume 2->2 threads");
  const RunResult on1 =
      session.run(trajectory_request(1).with_resume(middle));
  expect_same_run(on1, baseline, "resume 2->1 thread");
}

TEST(Checkpoint, SessionResumesOnEveryBuiltinBackend) {
  // Pure-Clifford GHZ so the stabilizer backend qualifies; the
  // trajectory decomposition on every backend via no-batch.
  const Circuit circuit = with_terminal_measurement(ghz_circuit(3), 3);
  for (const BackendId backend :
       {BackendId::kStateVector, BackendId::kDensityMatrix,
        BackendId::kStabilizer, BackendId::kMps}) {
    RunRequest prototype = RunRequest()
                               .with_circuit(circuit)
                               .with_repetitions(80)
                               .with_seed(5)
                               .with_backend(backend)
                               .with_sample_parallelization(false);
    check_resume_at_every_boundary(prototype, 16);
  }
}

TEST(Checkpoint, JsonRoundTripPreservesEverything) {
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = trajectory_request(2);
  instrumented.checkpoint.every = 30;
  instrumented.checkpoint.sink = checkpoints.sink();
  const RunResult baseline = session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), 2u);
  const RunCheckpoint& original =
      checkpoints.all()[checkpoints.all().size() / 2];

  const std::string json = original.to_json();
  const RunCheckpoint decoded = RunCheckpoint::parse(json);
  EXPECT_EQ(decoded.to_json(), json);  // byte-stable round trip
  EXPECT_EQ(decoded.mode, original.mode);
  EXPECT_EQ(decoded.total_repetitions, original.total_repetitions);
  EXPECT_EQ(decoded.completed_repetitions(),
            original.completed_repetitions());
  ASSERT_EQ(decoded.shards.size(), original.shards.size());
  for (std::size_t i = 0; i < decoded.shards.size(); ++i) {
    EXPECT_EQ(decoded.shards[i].rng_state, original.shards[i].rng_state);
    EXPECT_EQ(decoded.shards[i].histograms, original.shards[i].histograms);
  }

  // The decoded checkpoint is a working resume point.
  const RunResult resumed = session.run(trajectory_request(2).with_resume(
      std::make_shared<const RunCheckpoint>(decoded)));
  expect_same_run(resumed, baseline, "resume from JSON round trip");
}

TEST(Checkpoint, MalformedJsonIsRejected) {
  EXPECT_THROW((void)RunCheckpoint::parse("not json"), ParseError);
  // Parses as JSON but is not a checkpoint (missing 'mode'/'shards').
  EXPECT_THROW((void)RunCheckpoint::parse("{\"version\":1}"), ValueError);
}

TEST(Checkpoint, MismatchedResumeIsRejected) {
  Session session;
  Checkpoints checkpoints;
  RunRequest instrumented = trajectory_request(1);
  instrumented.checkpoint.every = 20;
  instrumented.checkpoint.sink = checkpoints.sink();
  (void)session.run(std::move(instrumented));
  ASSERT_GE(checkpoints.all().size(), 1u);
  const auto checkpoint =
      std::make_shared<const RunCheckpoint>(checkpoints.all().front());

  // Wrong total repetitions.
  EXPECT_THROW((void)session.run(trajectory_request(1)
                                     .with_repetitions(121)
                                     .with_resume(checkpoint)),
               ValueError);
  // Wrong decomposition: a trajectory checkpoint cannot resume a
  // dictionary-batched run.
  EXPECT_THROW((void)session.run(batched_request(1)
                                     .with_repetitions(120)
                                     .with_resume(checkpoint)),
               ValueError);
}

}  // namespace
}  // namespace bgls
