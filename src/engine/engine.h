/// \file engine.h
/// The batch-sampling engine: the one place a Simulator<State> run is
/// decomposed into shards and executed (the scaling layer above the
/// gate-by-gate primitives). Simulator::run/sample always come here.
///
/// The decomposition follows from the circuit alone, never from the
/// thread count:
///  - circuits eligible for the dictionary batching of Sec. 3.2.3
///    (unitary, terminal measurements) evolve one state and resample one
///    bitstring→multiplicity dictionary, every multinomial drawn from the
///    caller's stream. Extra threads go to the gate kernels (OpenMP);
///  - per-trajectory circuits (channels, mid-circuit measurement,
///    classical feed-forward, or batching disabled) split the repetition
///    count evenly across SimulatorOptions::num_rng_streams
///    jump-derived streams, one cloned state + one stream per shard, the
///    same direction qsim takes with multi-threaded trajectory
///    simulation;
///  - run_batch() spreads many circuits (QAOA parameter sweeps,
///    randomized benchmarking) across the pool with one job per
///    (circuit, repetition-shard) pair, so a few large trajectory
///    circuits still saturate the pool.
///
/// The pool itself is long-lived: multi-threaded engines share a
/// process-wide EngineContext (context.h) cached per thread count, so
/// tight loops of small runs stop paying thread-spawn latency per call.
/// At num_threads <= 1 every shard runs inline on the calling thread.
///
/// Determinism is a hard guarantee: the decomposition depends only on
/// the circuit, the repetitions, num_rng_streams and the caller's seed,
/// and every shard's draws are fixed by its own stream. Threads only
/// decide which core executes a shard, never what the shard computes,
/// so a fixed seed yields bit-identical merged histograms at every
/// thread count, including 1.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "core/checkpoint.h"
#include "core/progress.h"
#include "core/result.h"
#include "core/simulator.h"
#include "engine/context.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/rng.h"

namespace bgls {

namespace engine_detail {

/// Derives `count` jump-separated Rng streams from `base` (stream i is
/// `base` advanced by (i + 1) jumps). Pure in `base`, O(count) jumps.
[[nodiscard]] std::vector<Rng> make_streams(const Rng& base,
                                            std::size_t count);

/// Deterministic near-equal split of `total` into `shards` counts
/// (first `total % shards` shards get one extra).
[[nodiscard]] std::vector<std::uint64_t> even_split(std::uint64_t total,
                                                    std::size_t shards);

/// Aggregates per-shard counters into one RunStats (totals summed, peak
/// dictionary maxed, per_stream filled in shard order).
[[nodiscard]] RunStats merge_shard_stats(std::span<const RunStats> shards,
                                         int threads_used);

/// Sums shard histograms into one.
[[nodiscard]] Counts merge_counts(std::span<const Counts> shards);

/// Telemetry hooks (engine.cpp) feeding the process-wide engine series
/// — bgls_engine_runs_total / bgls_engine_shards_total /
/// bgls_engine_shard_seconds. Inert when telemetry is compiled out.
void count_engine_run() noexcept;
void observe_shard(double seconds) noexcept;

/// RAII shard timer: counts the shard and observes its wall time into
/// bgls_engine_shard_seconds on destruction. Shards are coarse units
/// (one per RNG stream), so the clock-read pair is lost in the noise.
class [[maybe_unused]] ShardTimer {
 public:
#if BGLS_TELEMETRY
  ShardTimer() : start_(std::chrono::steady_clock::now()) {}
  ~ShardTimer() {
    observe_shard(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }
#else
  ShardTimer() = default;
#endif
  ShardTimer(const ShardTimer&) = delete;
  ShardTimer& operator=(const ShardTimer&) = delete;

 private:
#if BGLS_TELEMETRY
  std::chrono::steady_clock::time_point start_;
#endif
};

}  // namespace engine_detail

/// Executes a Simulator<State>'s runs: decomposes each run into shards
/// (see file comment), executes them on a long-lived thread pool — or
/// inline at one thread — and merges the results deterministically in
/// shard order.
///
/// Thread count comes from the prototype simulator's
/// SimulatorOptions::num_threads (0 = hardware concurrency) — or, when
/// an EngineContext is shared in, from the context. It never changes
/// the sampled values.
///
/// Concurrency contract: run()/sample()/run_batch() mutate
/// last_run_stats() and must not be called concurrently on one engine;
/// give each concurrent caller its own engine, as Session's asynchronous
/// jobs do.
template <typename State>
class BatchEngine {
 public:
  /// Wraps a copy of `prototype`, optionally sharing a long-lived
  /// `context` (its thread count wins over the prototype's options).
  /// Without one, a multi-threaded engine acquires the process-wide
  /// shared pool on first need.
  explicit BatchEngine(Simulator<State> prototype,
                       std::shared_ptr<EngineContext> context = nullptr)
      : prototype_(std::move(prototype)), context_(std::move(context)) {
    // Shards copy the prototype, so they start from fresh counters.
    prototype_.stats_ = RunStats{};
    const SimulatorOptions& options = prototype_.options();
    num_threads_ = context_
                       ? context_->num_threads()
                       : ThreadPool::resolve_num_threads(options.num_threads);
    num_streams_ = options.num_rng_streams < 1 ? 1 : options.num_rng_streams;
  }

  /// Effective worker count (after resolving 0 = auto).
  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Number of deterministic RNG shards per trajectory run.
  [[nodiscard]] std::uint64_t num_streams() const { return num_streams_; }

  /// Samples `repetitions` runs of `circuit` and returns the measurement
  /// records, merged in shard order. Progress streaming, checkpoint
  /// capture and resume follow the prototype's options.
  Result run(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    begin_run(circuit, /*require_measurements=*/true);
    Result result;
    declare_measurement_keys(circuit, result);
    if (prototype_.can_parallelize(circuit)) {
      run_dictionary(circuit, repetitions, rng, result);
    } else {
      run_trajectories(circuit, repetitions, rng, result);
    }
    return result;
  }

  /// Convenience overload with a seed instead of an engine.
  Result run(const Circuit& circuit, std::uint64_t repetitions,
             std::uint64_t seed) {
    Rng rng(seed);
    return run(circuit, repetitions, rng);
  }

  /// Final-bitstring counts over all qubits, ignoring measurement gates
  /// (Simulator::sample), merged by summation.
  Counts sample(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    begin_run(circuit, /*require_measurements=*/false);
    if (prototype_.can_parallelize(circuit)) {
      return sample_dictionary(circuit, repetitions, rng);
    }
    const TrajectoryPlan plan = plan_trajectories(repetitions, rng);
    std::vector<Counts> shard_counts(plan.shard_reps.size());
    std::vector<RunStats> shard_stats(plan.shard_reps.size());
    execute(plan.shard_reps.size(), [&](std::size_t i) {
      if (plan.shard_reps[i] == 0) return;
      options().cancel_token.throw_if_stopped();
      Simulator<State> local = prototype_;
      Rng stream = plan.streams[i];
      const ShardScope scope(*this, i);
      for (std::uint64_t rep = 0; rep < plan.shard_reps[i]; ++rep) {
        fault::throw_if_fails("shard_run");
        ++shard_counts[i][local.run_one_trajectory(circuit, stream, nullptr)];
      }
      shard_stats[i] = local.stats_;
    });
    stats_ = engine_detail::merge_shard_stats(shard_stats, num_threads_);
    return engine_detail::merge_counts(shard_counts);
  }

  /// Many-circuit batch API (QAOA parameter sweeps, randomized
  /// benchmarking): runs every circuit for `repetitions` and returns the
  /// per-circuit results in input order.
  ///
  /// Every circuit owns a root stream split off `rng`. A trajectory
  /// circuit's repetitions are sharded across num_rng_streams
  /// jump-derived streams; a dictionary-batched circuit keeps one shard,
  /// since its single evolution already amortizes the repetitions. Each
  /// (circuit, shard) pair is its own pool job. The decomposition is
  /// independent of the thread count, so the outputs are bit-identical
  /// across threads.
  std::vector<Result> run_batch(std::span<const Circuit> circuits,
                                std::uint64_t repetitions, Rng& rng) {
    struct Job {
      std::size_t circuit = 0;
      bool batched = false;
      Rng stream;
      std::uint64_t repetitions = 0;
    };
    engine_detail::count_engine_run();
    Rng root = rng.split();
    const std::size_t traj_shards = shard_count(repetitions);
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      // Validate up front: zero-repetition shards never run, so without
      // this an unrunnable circuit would silently yield an empty Result
      // instead of throwing.
      prototype_.check_runnable(circuits[i], /*require_measurements=*/true);
      // Stateful split: each circuit's root leaves the jump chain, so
      // shard streams of different circuits never coincide.
      const Rng circuit_root = root.split();
      const bool batched = prototype_.can_parallelize(circuits[i]);
      const std::size_t shards = batched ? 1 : traj_shards;
      const std::vector<Rng> streams =
          engine_detail::make_streams(circuit_root, shards);
      const std::vector<std::uint64_t> shard_reps =
          engine_detail::even_split(repetitions, shards);
      for (std::size_t s = 0; s < shards; ++s) {
        jobs.push_back(Job{i, batched, streams[s], shard_reps[s]});
      }
    }

    std::vector<Result> shard_results(jobs.size());
    std::vector<RunStats> shard_stats(jobs.size());
    execute(jobs.size(), [&](std::size_t j) {
      const Job& job = jobs[j];
      if (job.repetitions == 0) return;
      options().cancel_token.throw_if_stopped();
      const Circuit& circuit = circuits[job.circuit];
      Simulator<State> local = prototype_;
      Rng stream = job.stream;
      Result& out = shard_results[j];
      declare_measurement_keys(circuit, out);
      const ShardScope scope(*this, j);
      if (job.batched) {
        add_dictionary_records(
            circuit, local.sample_parallel(circuit, job.repetitions, stream),
            out);
      } else {
        for (std::uint64_t rep = 0; rep < job.repetitions; ++rep) {
          fault::throw_if_fails("shard_run");
          local.run_one_trajectory(circuit, stream, &out);
        }
      }
      shard_stats[j] = local.stats_;
    });

    std::vector<Result> results(circuits.size());
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      declare_measurement_keys(circuits[i], results[i]);
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      results[jobs[j].circuit].append(shard_results[j]);
    }
    stats_ = engine_detail::merge_shard_stats(shard_stats, num_threads_);
    return results;
  }

  /// Aggregated counters from the most recent run()/sample()/
  /// run_batch(), including the per-stream shard counters.
  [[nodiscard]] const RunStats& last_run_stats() const { return stats_; }

 private:
  /// The seed-determined decomposition of a trajectory run: one
  /// jump-derived stream per shard and the even repetition split.
  struct TrajectoryPlan {
    std::vector<Rng> streams;
    std::vector<std::uint64_t> shard_reps;
  };

  /// Times and traces one executing shard: counts it into the engine
  /// shard series and records a "shard" span. kRoot: a shard runs
  /// inline on the caller's thread at 1 thread but on a pool thread
  /// otherwise; pinning its parent to the trace root keeps the span
  /// tree byte-stable across thread counts.
  struct ShardScope {
    ShardScope(const BatchEngine& engine, std::size_t index)
        : span(engine.options().trace, "shard", index,
               obs::TraceSpan::Nest::kRoot) {}
    const engine_detail::ShardTimer timer;
    obs::TraceSpan span;
  };

  [[nodiscard]] const SimulatorOptions& options() const {
    return prototype_.options();
  }

  /// Up-front checks shared by run() and sample(). Validated here, not
  /// in the shards: zero-repetition shards never run, which must not let
  /// an unrunnable circuit slip through silently.
  void begin_run(const Circuit& circuit, bool require_measurements) {
    prototype_.check_runnable(circuit, require_measurements);
    options().cancel_token.throw_if_stopped();
    engine_detail::count_engine_run();
  }

  /// The shard count of a trajectory run: min(num_rng_streams,
  /// max(1, reps)).
  [[nodiscard]] std::size_t shard_count(std::uint64_t repetitions) const {
    const std::uint64_t max_shards = repetitions < 1 ? 1 : repetitions;
    return static_cast<std::size_t>(
        num_streams_ < max_shards ? num_streams_ : max_shards);
  }

  TrajectoryPlan plan_trajectories(std::uint64_t repetitions, Rng& rng) const {
    const std::size_t shards = shard_count(repetitions);
    Rng root = rng.split();
    // Advances `root` exactly as earlier releases did when they derived
    // a planning stream here, so the shard streams — and the "engine"
    // checkpoints journaled with them — stay valid.
    (void)root.split();
    return {engine_detail::make_streams(root, shards),
            engine_detail::even_split(repetitions, shards)};
  }

  /// Appends the records of a dictionary's (bitstring, count) pairs to
  /// `out`, one add_records per measurement key in circuit order.
  static void add_dictionary_records(const Circuit& circuit,
                                     const Counts& counts, Result& out) {
    std::vector<Operation> measurements;
    for (const Operation& op : circuit.all_operations()) {
      if (op.gate().is_measurement()) measurements.push_back(op);
    }
    for (const auto& [bits, count] : counts) {
      for (const Operation& op : measurements) {
        out.add_records(op.gate().measurement_key(),
                        Simulator<State>::pack_key_bits(bits, op.qubits()),
                        count);
      }
    }
  }

  /// The one-dictionary loop as the run's single shard: timed, traced
  /// (its evolution recorded as an "evolve" span under the shard), and
  /// its counters adopted as the run's.
  Counts sample_dictionary(const Circuit& circuit, std::uint64_t repetitions,
                           Rng& rng) {
    Simulator<State> local = prototype_;
    const ShardScope scope(*this, 0);
    Counts counts = local.sample_parallel(circuit, repetitions, rng);
    if (scope.span.id() != 0) {
      obs::Trace* trace = options().trace;
      trace->record(obs::SpanRecord{
          obs::Trace::span_id(trace->id(), "evolve", 0), scope.span.id(),
          "evolve", 0, local.stats_.evolve_ms / 1000.0});
    }
    stats_ = engine_detail::merge_shard_stats({&local.stats_, 1},
                                              num_threads_);
    return counts;
  }

  /// The dictionary-batched run: one dictionary drawn from the caller's
  /// stream. It completes every repetition together at the final gate,
  /// so it is one atomic shard — checkpoints exist only at its start
  /// (the entry stream state) and at completion — and streaming
  /// degenerates to the one final update.
  void run_dictionary(const Circuit& circuit, std::uint64_t repetitions,
                      Rng& rng, Result& result) {
    const RunCheckpoint* resume = options().resume.get();
    Rng resumed;
    Rng* stream = &rng;
    if (resume != nullptr) {
      validate_resume(*resume, CheckpointMode::kDictionary, repetitions, 1);
      const ShardCheckpoint& shard = resume->shards.front();
      if (shard.completed == repetitions && repetitions > 0) {
        // Already finished: rebuild the result and counters from the
        // checkpoint without sampling.
        restore_result_histograms(result, shard.histograms);
        RunStats restored;
        restored.used_sample_parallelization = true;
        apply_checkpoint_stats(restored, resume->stats);
        stats_ = engine_detail::merge_shard_stats({&restored, 1},
                                                  num_threads_);
        emit_final_progress(result, repetitions);
        return;
      }
      resumed = Rng::from_state(shard.rng_state);
      stream = &resumed;
    }
    const std::array<std::uint64_t, 4> entry = stream->state();
    const bool checkpointing = options().checkpoint.enabled();
    if (checkpointing && resume == nullptr) {
      emit_dictionary_checkpoint(repetitions, 0, entry, {}, RunStats{});
    }
    add_dictionary_records(
        circuit, sample_dictionary(circuit, repetitions, *stream), result);
    if (checkpointing) {
      emit_dictionary_checkpoint(repetitions, repetitions, entry,
                                 key_histograms(result), stats_);
    }
    emit_final_progress(result, repetitions);
  }

  /// Emits a single-shard kDictionary checkpoint.
  void emit_dictionary_checkpoint(
      std::uint64_t repetitions, std::uint64_t done,
      const std::array<std::uint64_t, 4>& rng_state,
      std::map<std::string, Counts> histograms, const RunStats& stats) const {
    RunCheckpoint checkpoint;
    checkpoint.mode = CheckpointMode::kDictionary;
    checkpoint.total_repetitions = repetitions;
    ShardCheckpoint& shard = checkpoint.shards.emplace_back();
    shard.total = repetitions;
    shard.completed = done;
    shard.rng_state = rng_state;
    shard.histograms = std::move(histograms);
    checkpoint.stats = checkpoint_stats_from(stats);
    options().checkpoint.sink(checkpoint);
  }

  /// The trajectory run: even split across the plan's streams, records
  /// merged in shard order. Progress updates and checkpoints fire every
  /// `every` repetitions within a shard plus at shard completion, in
  /// canonical shard order (core/progress.h). A resumed run re-derives
  /// the plan from the same seed, validates it against the checkpoint,
  /// and continues each shard from its checkpointed (cursor, stream
  /// state, prefix histograms).
  void run_trajectories(const Circuit& circuit, std::uint64_t repetitions,
                        Rng& rng, Result& result) {
    const SimulatorOptions& opts = options();
    const TrajectoryPlan plan = plan_trajectories(repetitions, rng);
    const std::size_t shards = plan.shard_reps.size();
    const RunCheckpoint* resume = opts.resume.get();
    if (resume != nullptr) {
      validate_resume(*resume, CheckpointMode::kEngine, repetitions, shards);
      for (std::size_t i = 0; i < shards; ++i) {
        BGLS_REQUIRE(resume->shards[i].total == plan.shard_reps[i],
                     "checkpoint shard sizes do not match this request's "
                     "decomposition; resume with the original seed and "
                     "num_rng_streams");
      }
    }
    std::unique_ptr<CheckpointCollector> checkpoints;
    if (opts.checkpoint.enabled()) {
      RunCheckpoint base;
      if (resume != nullptr) {
        base = *resume;
      } else {
        base.mode = CheckpointMode::kEngine;
        base.total_repetitions = repetitions;
        base.shards.resize(shards);
        for (std::size_t i = 0; i < shards; ++i) {
          base.shards[i].total = plan.shard_reps[i];
          base.shards[i].rng_state = plan.streams[i].state();
        }
      }
      checkpoints =
          std::make_unique<CheckpointCollector>(opts.checkpoint, base);
      // Durable initial checkpoint of a fresh run: the decomposition
      // plus each shard's starting stream.
      if (resume == nullptr) checkpoints->emit();
    }
    // A resumed run suppresses intermediate progress updates (the
    // pre-interruption prefix already streamed them) and emits only the
    // final one.
    std::unique_ptr<ProgressCollector> progress;
    if (opts.progress.enabled() && resume == nullptr) {
      progress = std::make_unique<ProgressCollector>(
          opts.progress, plan.shard_reps);
    }

    std::vector<Result> outputs(shards);
    std::vector<RunStats> shard_stats(shards);
    execute(shards, [&](std::size_t i) {
      const std::uint64_t total = plan.shard_reps[i];
      if (total == 0) {
        // Nothing to sample, but the canonical update sequence still
        // needs the shard's (empty) checkpoint.
        if (progress) progress->report(i, 0, {});
        return;
      }
      Result& out = outputs[i];
      declare_measurement_keys(circuit, out);
      std::map<std::string, Counts> cumulative;
      std::uint64_t done = 0;
      Rng stream = plan.streams[i];
      if (resume != nullptr) {
        const ShardCheckpoint& base = resume->shards[i];
        done = base.completed;
        cumulative = base.histograms;
        restore_result_histograms(out, cumulative);
        stream = Rng::from_state(base.rng_state);
      }
      if (done == total) return;
      opts.cancel_token.throw_if_stopped();
      Simulator<State> local = prototype_;
      const ShardScope scope(*this, i);
      while (done < total) {
        // Deterministic mid-run abort hook for crash-safety tests
        // (util/fault.h); inert unless armed.
        fault::throw_if_fails("shard_run");
        local.run_one_trajectory(circuit, stream, &out);
        ++done;
        if (!progress && !checkpoints) continue;
        for (const std::string& key : out.keys()) {
          ++cumulative[key][out.values(key).back()];
        }
        if (progress && (done % opts.progress.every == 0 || done == total)) {
          progress->report(i, done, cumulative);
        }
        if (checkpoints &&
            (done % opts.checkpoint.every == 0 || done == total)) {
          checkpoints->record(i, done, stream.state(), cumulative,
                              checkpoint_stats_from(local.stats_));
        }
      }
      shard_stats[i] = local.stats_;
    });
    for (const Result& shard : outputs) result.append(shard);
    stats_ = engine_detail::merge_shard_stats(shard_stats, num_threads_);
    if (resume != nullptr) {
      // The merged counters cover this run's work; fold in the resumed
      // prefix so the totals match the uninterrupted run exactly.
      apply_checkpoint_stats(stats_, resume->stats);
      emit_final_progress(result, repetitions);
    }
  }

  /// Emits the final ProgressUpdate carrying the run's complete
  /// histograms, when streaming is on.
  void emit_final_progress(const Result& result,
                           std::uint64_t repetitions) const {
    const ProgressOptions& progress = options().progress;
    if (!progress.enabled()) return;
    ProgressUpdate update;
    update.completed_repetitions = repetitions;
    update.total_repetitions = repetitions;
    update.final = true;
    update.histograms = key_histograms(result);
    progress.sink(update);
  }

  /// Runs job(0..count-1), on the pool when more than one thread is
  /// configured. Output slots are indexed, so scheduling never affects
  /// the merged result.
  template <typename Job>
  void execute(std::size_t count, Job&& job) {
    if (num_threads_ <= 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) job(i);
      return;
    }
    if (!context_) context_ = EngineContext::shared(num_threads_);
    context_->pool().parallel_for(count, job);
  }

  Simulator<State> prototype_;
  std::shared_ptr<EngineContext> context_;
  int num_threads_ = 1;
  std::uint64_t num_streams_ = 1;
  RunStats stats_;
};

}  // namespace bgls
