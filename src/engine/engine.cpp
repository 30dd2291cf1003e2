#include "engine/engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/error.h"

namespace bgls::engine_detail {

namespace {

struct EngineMetrics {
  obs::Counter runs;
  obs::Counter shards;
  obs::Histogram shard_seconds;

  EngineMetrics() {
    auto& registry = obs::MetricsRegistry::global();
    runs = registry.counter("bgls_engine_runs_total",
                            "Batch-engine runs (run/sample/run_batch)");
    shards = registry.counter("bgls_engine_shards_total",
                              "Batch-engine shards executed");
    shard_seconds = registry.histogram(
        "bgls_engine_shard_seconds",
        "Per-shard wall time (a trajectory shard, or the whole "
        "dictionary-batched run)");
  }

  static EngineMetrics& instance() {
    static EngineMetrics metrics;
    return metrics;
  }
};

}  // namespace

void count_engine_run() noexcept { EngineMetrics::instance().runs.add(); }

void observe_shard(double seconds) noexcept {
  EngineMetrics& metrics = EngineMetrics::instance();
  metrics.shards.add();
  metrics.shard_seconds.observe(seconds);
}

std::vector<Rng> make_streams(const Rng& base, std::size_t count) {
  std::vector<Rng> streams;
  streams.reserve(count);
  Rng walker = base;
  for (std::size_t i = 0; i < count; ++i) {
    walker.jump();
    streams.push_back(walker);
  }
  return streams;
}

std::vector<std::uint64_t> even_split(std::uint64_t total,
                                      std::size_t shards) {
  BGLS_REQUIRE(shards > 0, "cannot split across zero shards");
  const std::uint64_t n = static_cast<std::uint64_t>(shards);
  const std::uint64_t base = total / n;
  const std::uint64_t extra = total % n;
  std::vector<std::uint64_t> counts(shards, base);
  for (std::uint64_t i = 0; i < extra; ++i) ++counts[i];
  return counts;
}

RunStats merge_shard_stats(std::span<const RunStats> shards,
                           int threads_used) {
  RunStats merged;
  merged.threads_used = static_cast<std::size_t>(threads_used);
  merged.per_stream.reserve(shards.size());
  for (const RunStats& shard : shards) {
    merged.state_applications += shard.state_applications;
    merged.probability_evaluations += shard.probability_evaluations;
    merged.max_dictionary_size =
        std::max(merged.max_dictionary_size, shard.max_dictionary_size);
    merged.trajectories += shard.trajectories;
    merged.used_sample_parallelization |= shard.used_sample_parallelization;
    merged.diagonal_updates_skipped += shard.diagonal_updates_skipped;
    merged.evolve_ms += shard.evolve_ms;
    merged.per_stream.push_back(StreamStats{shard.trajectories,
                                            shard.state_applications,
                                            shard.probability_evaluations});
  }
  return merged;
}

Counts merge_counts(std::span<const Counts> shards) {
  Counts merged;
  for (const Counts& shard : shards) {
    for (const auto& [bits, count] : shard) merged[bits] += count;
  }
  return merged;
}

}  // namespace bgls::engine_detail
