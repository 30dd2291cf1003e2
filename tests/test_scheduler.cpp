/// \file test_scheduler.cpp
/// The service JobScheduler (service/scheduler.h): priority ordering,
/// admission control, cancellation/deadlines through the queue, result
/// integrity after aborts, progress recording, and concurrent
/// submission (the suite runs under TSan in CI).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine_test_helpers.h"
#include "obs/metrics.h"
#include "service/scheduler.h"
#include "util/fault.h"

namespace bgls {
namespace {

using namespace std::chrono_literals;
using service::JobInfo;
using service::JobScheduler;
using service::JobState;
using service::QueueFullError;
using service::SchedulerOptions;
using service::SchedulerStats;
using testing::trajectory_workload;

RunRequest small_job(std::uint64_t seed = 5, std::uint64_t reps = 400) {
  return RunRequest()
      .with_circuit(trajectory_workload(3, 0.05))
      .with_repetitions(reps)
      .with_seed(seed);
}

/// A job big enough to stay running until cancelled (per-gate token
/// checks abort it promptly).
RunRequest blocker_job() {
  return small_job(1, 500'000'000ULL);
}

/// Submits a blocker and waits until it actually occupies the runner.
std::uint64_t start_blocker(JobScheduler& scheduler) {
  const std::uint64_t id = scheduler.submit(blocker_job());
  while (scheduler.info(id).state == JobState::kQueued) {
    std::this_thread::sleep_for(1ms);
  }
  return id;
}

TEST(JobScheduler, SubmitMatchesDirectSessionRun) {
  JobScheduler scheduler;
  const std::uint64_t id = scheduler.submit(small_job(42));
  const JobInfo info = scheduler.wait(id);
  ASSERT_EQ(info.state, JobState::kDone);
  ASSERT_NE(info.result, nullptr);

  Session session;
  const RunResult direct = session.run(small_job(42));
  EXPECT_EQ(info.result->measurements.histogram("m"),
            direct.measurements.histogram("m"));
  EXPECT_EQ(info.result->backend_name, direct.backend_name);
  // The satellite contract: routing reasons survive into RunStats.
  EXPECT_FALSE(info.result->stats.selection_reason.empty());
  EXPECT_EQ(info.result->stats.selection_reason, direct.selection_reason);
}

TEST(JobScheduler, PriorityOrdersQueuedJobs) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(options);

  // Occupy the single runner so the next submissions stack up, then
  // enqueue low before high: the high-priority job must start first.
  const std::uint64_t blocker = start_blocker(scheduler);
  const std::uint64_t low =
      scheduler.submit(small_job(2).with_priority(-5));
  const std::uint64_t mid = scheduler.submit(small_job(3));
  const std::uint64_t high = scheduler.submit(small_job(4).with_priority(9));
  scheduler.cancel(blocker);

  EXPECT_EQ(scheduler.wait(low).state, JobState::kDone);
  EXPECT_EQ(scheduler.wait(mid).state, JobState::kDone);
  EXPECT_EQ(scheduler.wait(high).state, JobState::kDone);
  const std::uint64_t high_order = scheduler.info(high).start_order;
  const std::uint64_t mid_order = scheduler.info(mid).start_order;
  const std::uint64_t low_order = scheduler.info(low).start_order;
  EXPECT_LT(high_order, mid_order);
  EXPECT_LT(mid_order, low_order);
}

TEST(JobScheduler, FifoWithinEqualPriority) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(options);
  const std::uint64_t blocker = start_blocker(scheduler);
  const std::uint64_t first = scheduler.submit(small_job(2));
  const std::uint64_t second = scheduler.submit(small_job(3));
  scheduler.cancel(blocker);
  scheduler.wait(first);
  scheduler.wait(second);
  EXPECT_LT(scheduler.info(first).start_order,
            scheduler.info(second).start_order);
}

TEST(JobScheduler, AdmissionControlRejectsWithReason) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  options.max_queue_depth = 1;
  JobScheduler scheduler(options);
  const std::uint64_t blocker = start_blocker(scheduler);
  const std::uint64_t queued = scheduler.submit(small_job(2));
  try {
    (void)scheduler.submit(small_job(3));
    FAIL() << "expected QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_NE(std::string(e.what()).find("queue is full"), std::string::npos);
  }
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  scheduler.cancel(blocker);
  EXPECT_EQ(scheduler.wait(queued).state, JobState::kDone);
}

TEST(JobScheduler, CancelQueuedJobNeverRuns) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(options);
  const std::uint64_t blocker = start_blocker(scheduler);
  const std::uint64_t queued = scheduler.submit(small_job(2));
  EXPECT_TRUE(scheduler.cancel(queued));
  const JobInfo info = scheduler.wait(queued);
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_EQ(info.start_order, 0u);  // never started
  // Cancelling a terminal job reports false.
  EXPECT_FALSE(scheduler.cancel(queued));
  EXPECT_FALSE(scheduler.cancel(987654));  // unknown id
  scheduler.cancel(blocker);
}

TEST(JobScheduler, DeadlineExpiredInQueueTimesOutWithoutRunning) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(options);
  const std::uint64_t blocker = start_blocker(scheduler);
  const std::uint64_t doomed =
      scheduler.submit(small_job(2).with_deadline_ms(30));
  std::this_thread::sleep_for(60ms);
  scheduler.cancel(blocker);
  const JobInfo info = scheduler.wait(doomed);
  EXPECT_EQ(info.state, JobState::kTimedOut);
  EXPECT_EQ(info.start_order, 0u);
}

TEST(JobScheduler, RunningDeadlineTimesOut) {
  JobScheduler scheduler;
  const std::uint64_t id =
      scheduler.submit(blocker_job().with_deadline_ms(50));
  const JobInfo info = scheduler.wait(id);
  EXPECT_EQ(info.state, JobState::kTimedOut);
}

TEST(JobScheduler, CancelledRunNeverCorruptsLaterRuns) {
  JobScheduler scheduler;
  // Baseline before any abort...
  const std::uint64_t before = scheduler.submit(small_job(31));
  const Counts baseline =
      scheduler.wait(before).result->measurements.histogram("m");
  // ...abort a big job mid-run...
  const std::uint64_t doomed = start_blocker(scheduler);
  std::this_thread::sleep_for(20ms);
  scheduler.cancel(doomed);
  EXPECT_EQ(scheduler.wait(doomed).state, JobState::kCancelled);
  // ...and the identical request still samples identically.
  const std::uint64_t after = scheduler.submit(small_job(31));
  EXPECT_EQ(scheduler.wait(after).result->measurements.histogram("m"),
            baseline);
}

TEST(JobScheduler, ProgressRecordedAndReplayable) {
  // Four trajectory shards of 50: one update per shard completion.
  JobScheduler scheduler;
  const std::uint64_t id = scheduler.submit(
      small_job(7, 200).with_rng_streams(4).with_progress(50, nullptr));
  const JobInfo info = scheduler.wait(id);
  ASSERT_EQ(info.state, JobState::kDone);
  EXPECT_EQ(info.progress_updates, 4u);
  EXPECT_EQ(info.completed_repetitions, 200u);
  const auto all = scheduler.progress_since(id, 0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(all.back().final);
  EXPECT_EQ(all.back().histograms.at("m"),
            info.result->measurements.histogram("m"));
  // Replay from a cursor.
  EXPECT_EQ(scheduler.progress_since(id, 3).size(), 1u);
  EXPECT_TRUE(scheduler.progress_since(id, 4).empty());
  // A caller sink still sees every update.
  std::vector<std::uint64_t> seen;
  std::mutex seen_mutex;
  const std::uint64_t with_sink = scheduler.submit(
      small_job(7, 200).with_rng_streams(4).with_progress(
          50, [&](const ProgressUpdate& update) {
            const std::lock_guard<std::mutex> lock(seen_mutex);
            seen.push_back(update.completed_repetitions);
          }));
  scheduler.wait(with_sink);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{50, 100, 150, 200}));
}

TEST(JobScheduler, StatsAggregateAndRouteByBackend) {
  JobScheduler scheduler;
  const std::uint64_t ok = scheduler.submit(small_job(3));
  scheduler.wait(ok);
  // A failing job: circuit without measurements.
  Circuit unmeasured{h(0)};
  const std::uint64_t bad =
      scheduler.submit(RunRequest().with_circuit(unmeasured));
  EXPECT_EQ(scheduler.wait(bad).state, JobState::kFailed);
  EXPECT_FALSE(scheduler.wait(bad).error.empty());

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  ASSERT_EQ(stats.completed_per_backend.size(), 1u);
  EXPECT_EQ(stats.completed_per_backend.begin()->second, 1u);
}

TEST(JobScheduler, ConcurrentSubmittersAllComplete) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 2;
  options.max_queue_depth = 256;
  JobScheduler scheduler(options);

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 5;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        ids[t].push_back(scheduler.submit(
            small_job(static_cast<std::uint64_t>(t * 100 + j), 100)));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  Session session;
  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kJobsPerThread; ++j) {
      const JobInfo info = scheduler.wait(ids[t][j]);
      ASSERT_EQ(info.state, JobState::kDone);
      const RunResult direct =
          session.run(small_job(static_cast<std::uint64_t>(t * 100 + j), 100));
      EXPECT_EQ(info.result->measurements.histogram("m"),
                direct.measurements.histogram("m"));
    }
  }
  EXPECT_EQ(scheduler.stats().completed,
            static_cast<std::uint64_t>(kThreads * kJobsPerThread));
}

TEST(JobScheduler, DestructorDrainsPendingJobs) {
  std::uint64_t queued = 0;
  {
    SchedulerOptions options;
    options.max_concurrent_jobs = 1;
    JobScheduler scheduler(options);
    start_blocker(scheduler);
    queued = scheduler.submit(small_job(2));
    (void)queued;
    // Destructor must cancel the blocker + queued job and join without
    // hanging.
  }
  SUCCEED();
}

TEST(JobScheduler, RetentionBoundEvictsOldestTerminalJobs) {
  SchedulerOptions options;
  options.max_retained_jobs = 2;
  JobScheduler scheduler(options);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(scheduler.submit(small_job(static_cast<std::uint64_t>(i))));
    scheduler.wait(ids.back());  // serialize completion order
  }
  // The two oldest-finished jobs were evicted; the newest two remain.
  EXPECT_THROW((void)scheduler.info(ids[0]), ValueError);
  EXPECT_THROW((void)scheduler.info(ids[1]), ValueError);
  EXPECT_EQ(scheduler.info(ids[2]).state, JobState::kDone);
  EXPECT_EQ(scheduler.info(ids[3]).state, JobState::kDone);
  EXPECT_EQ(scheduler.min_retained_id(), ids[2]);
  // Aggregate stats survive eviction.
  EXPECT_EQ(scheduler.stats().completed, 4u);
}

TEST(JobScheduler, StatsSurviveRetentionEviction) {
  // Terminal-state counts are folded into SchedulerStats at the
  // terminal transition, so pruning the job records must lose no
  // history — only add to the eviction counter.
  SchedulerOptions options;
  options.max_retained_jobs = 4;
  JobScheduler scheduler(options);
  for (int i = 0; i < 10; ++i) {
    scheduler.wait(
        scheduler.submit(small_job(static_cast<std::uint64_t>(i))));
  }
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.evicted, 6u);
  EXPECT_GT(scheduler.min_retained_id(), 1u);
}

#if BGLS_TELEMETRY
TEST(JobScheduler, JobTraceRecordsQueueAndRunSpans) {
  JobScheduler scheduler;
  const std::uint64_t id = scheduler.submit(small_job(11));
  const JobInfo info = scheduler.wait(id);
  ASSERT_EQ(info.state, JobState::kDone);
  ASSERT_NE(info.trace, nullptr);
  EXPECT_EQ(info.trace->id(), id);
  bool saw_queue = false;
  bool saw_run = false;
  for (const obs::SpanRecord& span : info.trace->spans()) {
    if (span.name == "queue") {
      saw_queue = true;
      // Span IDs derive from (job id, name, index): assertable without
      // knowing anything about scheduling.
      EXPECT_EQ(span.id, obs::Trace::span_id(id, "queue", 0));
    }
    if (span.name == "run") {
      saw_run = true;
      EXPECT_EQ(span.id, obs::Trace::span_id(id, "run", 0));
      EXPECT_GE(span.seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_run);
}
#endif  // BGLS_TELEMETRY

TEST(JobScheduler, ResultCarriesSchedulingPhaseTimes) {
  JobScheduler scheduler;
  const std::uint64_t id = scheduler.submit(small_job(12));
  const JobInfo info = scheduler.wait(id);
  ASSERT_EQ(info.state, JobState::kDone);
  ASSERT_NE(info.result, nullptr);
  // Filled regardless of the telemetry build flag (plain clock reads).
  EXPECT_GE(info.result->stats.queue_wait_ms, 0.0);
  EXPECT_GT(info.result->stats.sample_ms, 0.0);
}

TEST(JobScheduler, TransientFailureRetriesAndSucceeds) {
  SchedulerOptions options;
  options.max_retries = 3;
  options.backoff_base_ms = 1;
  options.checkpoint_every = 25;
  JobScheduler scheduler(options);

  // Exactly one injected mid-shard abort: the first attempt fails
  // transiently, the retry runs clean.
  fault::arm("shard_run", 1.0, 5, 1);
  const std::uint64_t id = scheduler.submit(small_job(42));
  const JobInfo info = scheduler.wait(id);
  fault::disarm_all();
  ASSERT_EQ(info.state, JobState::kDone);
  EXPECT_EQ(info.retries, 1u);
  EXPECT_EQ(scheduler.stats().retried, 1u);
  EXPECT_EQ(scheduler.stats().completed, 1u);
  EXPECT_EQ(scheduler.stats().failed, 0u);

  // The retried job's result is still the canonical one.
  Session session;
  EXPECT_EQ(info.result->measurements.histogram("m"),
            session.run(small_job(42)).measurements.histogram("m"));
}

TEST(JobScheduler, RetryBudgetExhaustionFailsTheJob) {
  SchedulerOptions options;
  options.max_retries = 2;
  options.backoff_base_ms = 1;
  JobScheduler scheduler(options);

  fault::arm("shard_run", 1.0, 5);  // every attempt aborts
  const std::uint64_t id = scheduler.submit(small_job(42));
  const JobInfo info = scheduler.wait(id);
  fault::disarm_all();
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_EQ(info.retries, 2u);
  EXPECT_NE(info.error.find("injected fault"), std::string::npos);
  EXPECT_EQ(scheduler.stats().retried, 2u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

TEST(JobScheduler, InvalidRequestIsNotRetried) {
  SchedulerOptions options;
  options.max_retries = 3;
  options.backoff_base_ms = 1;
  JobScheduler scheduler(options);
  // Circuit without measurements: a ValueError, permanently invalid.
  const std::uint64_t id =
      scheduler.submit(RunRequest().with_circuit(Circuit{h(0)}));
  const JobInfo info = scheduler.wait(id);
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_EQ(info.retries, 0u);
  EXPECT_EQ(scheduler.stats().retried, 0u);
}

TEST(JobScheduler, PreemptionCheckpointsResumesAndStaysCorrect) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  options.preempt_lower_priority = true;
  options.checkpoint_every = 50;
  JobScheduler scheduler(options);

  // A low-priority job big enough to be mid-run (and past several
  // checkpoint boundaries) when the high-priority one arrives.
  const RunRequest low_request = small_job(31, 20'000).with_priority(-1);
  const std::uint64_t low = scheduler.submit(low_request);
  while (scheduler.info(low).state == JobState::kQueued) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(10ms);

  const std::uint64_t high = scheduler.submit(small_job(4).with_priority(9));
  EXPECT_EQ(scheduler.wait(high).state, JobState::kDone);

  // The preempted job resumes from its checkpoint and still finishes
  // with the canonical result — the determinism oracle for resume.
  const JobInfo info = scheduler.wait(low);
  ASSERT_EQ(info.state, JobState::kDone);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.preempted, 1u);
  EXPECT_GE(stats.resumed, 1u);
  EXPECT_LT(scheduler.info(high).start_order, info.start_order);
  Session session;
  EXPECT_EQ(info.result->measurements.histogram("m"),
            session.run(small_job(31, 20'000)).measurements.histogram("m"));
}

TEST(JobScheduler, RetryBacklogCountsAgainstQueueDepth) {
  // Regression: admission used to count only the ready queue, so jobs
  // parked in the retry-backoff list bypassed max_queue_depth — a
  // retry flood could grow the backlog without bound. Delayed jobs
  // must occupy admission slots.
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  options.max_queue_depth = 2;
  options.max_retries = 3;
  options.backoff_base_ms = 60'000;  // retries stay parked in delayed_
  JobScheduler scheduler(options);

  fault::arm("shard_run", 1.0, 5);  // every attempt aborts transiently
  const std::uint64_t a = scheduler.submit(small_job(1));
  const std::uint64_t b = scheduler.submit(small_job(2));
  // Both jobs fail their first attempt and re-enter as retry-delayed
  // (back in kQueued with retries recorded, backoff far in the future).
  const auto parked = [&](std::uint64_t id) {
    const JobInfo info = scheduler.info(id);
    return info.retries >= 1 && info.state == JobState::kQueued;
  };
  while (!parked(a) || !parked(b)) {
    std::this_thread::sleep_for(1ms);
  }
  fault::disarm_all();

  EXPECT_EQ(scheduler.stats().queue_depth, 2u);
  EXPECT_THROW((void)scheduler.submit(small_job(3)), QueueFullError);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  // Destructor cancels the delayed jobs without running them again.
}

#if BGLS_TELEMETRY
TEST(JobScheduler, DestructorResetsQueueGaugeAndCountsCancelled) {
  // Regression: the destructor used to leave the process-wide
  // bgls_scheduler_queue_depth gauge at its last value and never folded
  // shutdown-cancelled queued jobs into
  // bgls_scheduler_jobs_total{state="cancelled"} — a restart-heavy
  // daemon under-reported cancellations forever.
  const auto series = [](const std::string& name) -> obs::SeriesSnapshot {
    for (const obs::SeriesSnapshot& s :
         obs::MetricsRegistry::global().snapshot()) {
      if (s.name == name) return s;
    }
    return {};
  };
  const std::string cancelled_name =
      "bgls_scheduler_jobs_total{state=\"cancelled\"}";
  const std::uint64_t cancelled_before = series(cancelled_name).count;
  {
    SchedulerOptions options;
    options.max_concurrent_jobs = 1;
    JobScheduler scheduler(options);
    start_blocker(scheduler);
    (void)scheduler.submit(small_job(2));
    (void)scheduler.submit(small_job(3));
    EXPECT_GE(series("bgls_scheduler_queue_depth").gauge, 2.0);
  }
  // Two queued jobs died by shutdown, the running blocker by token
  // cancellation: all three are cancelled terminals.
  EXPECT_EQ(series(cancelled_name).count, cancelled_before + 3);
  EXPECT_EQ(series("bgls_scheduler_queue_depth").gauge, 0.0);
}
#endif  // BGLS_TELEMETRY

TEST(JobScheduler, WaitTimeoutReturnsLiveSnapshot) {
  SchedulerOptions options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(options);
  const std::uint64_t blocker = start_blocker(scheduler);
  const JobInfo info = scheduler.wait(blocker, 20ms);
  EXPECT_EQ(info.state, JobState::kRunning);
  scheduler.cancel(blocker);
  EXPECT_EQ(scheduler.wait(blocker).state, JobState::kCancelled);
}

}  // namespace
}  // namespace bgls
