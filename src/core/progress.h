/// \file progress.h
/// Streaming partial histograms for long-running sampling jobs.
///
/// A run configured with ProgressOptions emits ProgressUpdate values as
/// repetitions complete: cumulative per-measurement-key histograms over
/// a *canonical prefix* of the run's repetitions. The canonical order
/// is shard-major (all repetitions of RNG stream 0, then stream 1, ...),
/// and within a shard updates fire
/// every `every` repetitions plus at shard completion. Because both the
/// shard decomposition and every shard's per-repetition outcomes are
/// fixed by the seed and SimulatorOptions::num_rng_streams alone, the
/// emitted update *sequence* — positions and contents — is bit-identical
/// across thread counts and scheduling: threads only change when an
/// update is delivered, never what it says. The final update carries
/// the complete histogram of the run.
///
/// On the dictionary-batched path (Sec. 3.2.3) all repetitions complete
/// together at the final gate of its one shard, so streaming
/// degenerates to the one final update; per-trajectory workloads
/// (channels, mid-circuit measurement, or
/// RunRequest::with_sample_parallelization(false)) stream throughout.
///
/// ProgressCollector is the engine-side merger: shards report their
/// cumulative histograms at the canonical checkpoints as they reach
/// them (possibly out of order across shards), and the collector
/// buffers and flushes updates strictly in canonical order.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace bgls {

/// One streamed snapshot: cumulative histograms over the canonical
/// prefix of `completed_repetitions` repetitions.
struct ProgressUpdate {
  /// Repetitions covered by this update (canonical prefix length).
  std::uint64_t completed_repetitions = 0;
  /// Total repetitions of the run.
  std::uint64_t total_repetitions = 0;
  /// True for the last update of the run (the complete histogram).
  bool final = false;
  /// Cumulative outcome counts per measurement key for the prefix.
  std::map<std::string, Counts> histograms;
};

/// Callback receiving updates. Invoked serially (updates never race or
/// arrive out of canonical order) from worker threads; it must not call
/// back into the emitting run.
using ProgressFn = std::function<void(const ProgressUpdate&)>;

/// Streaming knobs carried by SimulatorOptions / RunRequest.
struct ProgressOptions {
  /// Emission cadence in repetitions (within a shard); 0 disables
  /// streaming entirely.
  std::uint64_t every = 0;
  /// Destination for updates; streaming is off when empty.
  ProgressFn sink;

  [[nodiscard]] bool enabled() const { return every > 0 && sink != nullptr; }
};

/// Merges per-shard checkpoint reports into the canonical update
/// sequence (see file comment). Thread-safe: shards report
/// concurrently; updates are emitted under the internal lock, strictly
/// in canonical order.
class ProgressCollector {
 public:
  /// `shard_reps[i]` is shard i's repetition count. Checkpoints fall
  /// every `options.every` repetitions within a shard plus at shard
  /// completion.
  ProgressCollector(ProgressOptions options,
                    std::vector<std::uint64_t> shard_reps);

  /// The canonical checkpoint after `done` of `total` shard repetitions
  /// under cadence `every`: the next multiple of `every`, capped at
  /// `total` — the schedule the engine's shard loop reports on.
  [[nodiscard]] static std::uint64_t next_checkpoint(std::uint64_t done,
                                                     std::uint64_t total,
                                                     std::uint64_t every);

  /// Shard `shard` has completed `done` of its repetitions; `cumulative`
  /// holds its per-key counts for those repetitions. Must be called at
  /// exactly the canonical checkpoints, in order within the shard
  /// (shards may interleave freely).
  void report(std::size_t shard, std::uint64_t done,
              std::map<std::string, Counts> cumulative);

 private:
  /// Emits every update whose canonical predecessors have all arrived.
  void flush_locked();

  struct ShardSlot {
    /// Buffered checkpoints (done -> cumulative histograms) not yet
    /// consumed by the canonical cursor.
    std::map<std::uint64_t, std::map<std::string, Counts>> pending;
  };

  ProgressOptions options_;
  std::vector<std::uint64_t> shard_reps_;
  std::uint64_t total_ = 0;

  std::mutex mutex_;
  std::vector<ShardSlot> slots_;
  /// Canonical cursor: next shard to consume, the checkpoint expected
  /// from it, and the repetitions of fully consumed shards.
  std::size_t cursor_shard_ = 0;
  std::uint64_t cursor_done_ = 0;
  std::uint64_t prefix_base_ = 0;
  /// Merged histograms of fully consumed shards (the prefix base).
  std::map<std::string, Counts> base_histograms_;
  /// Largest prefix emitted so far / whether the final update went out
  /// (dedups zero-advance checkpoints from empty shards).
  std::uint64_t last_emitted_ = 0;
  bool final_emitted_ = false;
};

/// Adds every count of `delta` into `into` (prefix accumulation).
void merge_histograms(std::map<std::string, Counts>& into,
                      const std::map<std::string, Counts>& delta);

}  // namespace bgls
