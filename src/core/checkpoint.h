/// \file checkpoint.h
/// Crash-safe checkpoint/resume for sampling runs.
///
/// A RunCheckpoint captures everything a run needs to continue from a
/// chunk boundary: per-shard RNG engine state, the completed-repetition
/// cursor, the cumulative per-key histograms of the completed prefix,
/// and the run-level instrumentation counters for that prefix. Because
/// the shard decomposition and every shard's draw sequence are fixed by
/// the seed and SimulatorOptions::num_rng_streams alone (see
/// engine/engine.h), resuming from a checkpoint and finishing the run
/// produces a final histogram — and the byte-stable report counters —
/// bit-identical to the uninterrupted run, on any thread count.
///
/// Production: BatchEngine (engine/engine.h) emits checkpoints through
/// CheckpointOptions::sink every `every` completed repetitions within a
/// shard, plus at shard completion. Consumption: SimulatorOptions::resume
/// / RunRequest::with_resume re-enter the same run mid-stream. The
/// service scheduler uses checkpoints for preemption and retry, and the
/// daemon journals them (service/journal.h) so a killed process resumes
/// its jobs on restart.
///
/// Checkpoints are mode-tagged: the trajectory and dictionary-batched
/// decompositions draw from different streams and chunk differently, so
/// a checkpoint only resumes the decomposition that produced it. Thread
/// count is *not* part of the mode — checkpoints resume on any thread
/// count. A mode name this build does not know (such as one written
/// by an older decomposition) fails to parse, and the service journal
/// then re-runs the job from scratch.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace bgls {

class JsonValue;
class Result;
struct RunStats;

/// The subset of RunStats counters a resumed run must reproduce exactly
/// (the byte-stable report fields, core/report-visible). Wall times and
/// per-stream breakdowns are scheduling-dependent and excluded.
struct CheckpointStats {
  std::uint64_t state_applications = 0;
  std::uint64_t probability_evaluations = 0;
  std::uint64_t max_dictionary_size = 0;
  std::uint64_t trajectories = 0;
  std::uint64_t diagonal_updates_skipped = 0;
};

/// Extracts the checkpointed counters from a run's RunStats.
[[nodiscard]] CheckpointStats checkpoint_stats_from(const RunStats& stats);

/// Folds checkpointed prefix counters into a (post-resume) RunStats:
/// counters sum, the dictionary peak maxes.
void apply_checkpoint_stats(RunStats& stats, const CheckpointStats& prefix);

/// Sums `delta` into `into` (counters add, dictionary peak maxes).
void add_checkpoint_stats(CheckpointStats& into, const CheckpointStats& delta);

/// Which sampling path produced a checkpoint (see file comment).
enum class CheckpointMode {
  /// Trajectory sharding (per-shard streams, chunked); "engine".
  kEngine,
  /// The one dictionary of Sec. 3.2.3, drawn from the caller's stream
  /// (a single shard, atomic); "dictionary".
  kDictionary,
};

[[nodiscard]] std::string_view checkpoint_mode_name(CheckpointMode mode);
[[nodiscard]] CheckpointMode parse_checkpoint_mode(std::string_view name);

/// One shard's progress: how far its stream has been consumed and what
/// it produced so far.
struct ShardCheckpoint {
  /// Repetitions assigned to this shard by the decomposition.
  std::uint64_t total = 0;
  /// Repetitions completed (<= total; == total when the shard is done).
  std::uint64_t completed = 0;
  /// The shard's Rng engine state after `completed` repetitions
  /// (Rng::state()/from_state()).
  std::array<std::uint64_t, 4> rng_state{};
  /// Cumulative per-measurement-key packed-outcome counts for the
  /// completed prefix.
  std::map<std::string, Counts> histograms;
};

/// A resumable snapshot of a whole run.
struct RunCheckpoint {
  int version = 1;
  CheckpointMode mode = CheckpointMode::kEngine;
  /// Total repetitions of the run (must match the resuming request).
  std::uint64_t total_repetitions = 0;
  /// Per-shard progress in shard order (one entry on the dictionary
  /// path).
  std::vector<ShardCheckpoint> shards;
  /// Run-level counters for the completed prefix (summed over shards).
  CheckpointStats stats;

  /// Repetitions completed across all shards.
  [[nodiscard]] std::uint64_t completed_repetitions() const;
  /// True when every shard has finished.
  [[nodiscard]] bool complete() const;

  /// Compact single-line JSON (journal-record friendly).
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json(). Throws ParseError on malformed input.
  [[nodiscard]] static RunCheckpoint from_json(const JsonValue& value);
  [[nodiscard]] static RunCheckpoint parse(std::string_view text);
};

/// Throws ValueError unless `checkpoint` matches the resuming run's
/// shape: same mode, same total repetitions, same shard count, and
/// per-shard completed <= total. A mismatch means the checkpoint was
/// produced by a different decomposition or request.
void validate_resume(const RunCheckpoint& checkpoint, CheckpointMode mode,
                     std::uint64_t total_repetitions, std::size_t shards);

/// Replays per-key histograms into a Result as add_records calls (keys
/// must already be declared). Record *order* differs from the original
/// run; histograms — the byte-stable report content — are identical.
void restore_result_histograms(Result& result,
                               const std::map<std::string, Counts>& histograms);

/// Checkpointing knobs carried by SimulatorOptions / RunRequest.
/// Observation-only on the emitting run: capture never changes what the
/// run samples.
struct CheckpointOptions {
  /// Capture cadence in repetitions within a shard (plus shard
  /// completion); 0 disables checkpointing.
  std::uint64_t every = 0;
  /// Destination for snapshots. Invoked serially under an internal
  /// lock, possibly from worker threads; must not call back into the
  /// emitting run.
  std::function<void(const RunCheckpoint&)> sink;

  [[nodiscard]] bool enabled() const { return every > 0 && sink != nullptr; }
};

/// Engine-side merger: shards record their progress as they reach
/// checkpoint boundaries (concurrently, in any order) and the collector
/// emits a consistent whole-run snapshot per record. Seeded with a base
/// checkpoint (the initial shard decomposition, or the checkpoint a
/// resumed run continues from) so re-checkpointing after a resume stays
/// correct.
class CheckpointCollector {
 public:
  CheckpointCollector(CheckpointOptions options, RunCheckpoint base);

  /// Shard `shard` has completed `completed` of its repetitions (base
  /// prefix included); `rng_state` is its engine state at that
  /// boundary, `cumulative` its prefix histograms, and `delta` the
  /// counters for the work done *since this run began* (the base
  /// checkpoint's share is accounted separately).
  void record(std::size_t shard, std::uint64_t completed,
              const std::array<std::uint64_t, 4>& rng_state,
              const std::map<std::string, Counts>& cumulative,
              const CheckpointStats& delta);

  /// Emits the current snapshot to the sink (used for the initial
  /// checkpoint of a fresh run).
  void emit();

  /// The current snapshot.
  [[nodiscard]] RunCheckpoint snapshot() const;

 private:
  CheckpointOptions options_;
  mutable std::mutex mutex_;
  RunCheckpoint current_;
  CheckpointStats base_stats_;
  std::vector<CheckpointStats> deltas_;
};

}  // namespace bgls
