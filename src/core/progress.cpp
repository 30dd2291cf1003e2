#include "core/progress.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace bgls {

void merge_histograms(std::map<std::string, Counts>& into,
                      const std::map<std::string, Counts>& delta) {
  for (const auto& [key, counts] : delta) {
    Counts& target = into[key];
    for (const auto& [bits, count] : counts) target[bits] += count;
  }
}

ProgressCollector::ProgressCollector(ProgressOptions options,
                                     std::vector<std::uint64_t> shard_reps)
    : options_(std::move(options)),
      shard_reps_(std::move(shard_reps)),
      slots_(shard_reps_.size()) {
  BGLS_REQUIRE(options_.enabled(),
               "ProgressCollector needs enabled ProgressOptions");
  BGLS_REQUIRE(!shard_reps_.empty(), "ProgressCollector needs >= 1 shard");
  for (const std::uint64_t reps : shard_reps_) total_ += reps;
}

std::uint64_t ProgressCollector::next_checkpoint(std::uint64_t done,
                                                 std::uint64_t total,
                                                 std::uint64_t every) {
  if (done >= total) return total;
  // Reports always land exactly on checkpoints, so `done` is a multiple
  // of `every` here and the next checkpoint is one full step away.
  return std::min(done + every, total);
}

void ProgressCollector::report(std::size_t shard, std::uint64_t done,
                               std::map<std::string, Counts> cumulative) {
  const std::lock_guard<std::mutex> lock(mutex_);
  BGLS_REQUIRE(shard < slots_.size(), "progress report from unknown shard ",
               shard);
  slots_[shard].pending.emplace(done, std::move(cumulative));
  flush_locked();
}

void ProgressCollector::flush_locked() {
  while (cursor_shard_ < slots_.size()) {
    const std::uint64_t reps = shard_reps_[cursor_shard_];
    const std::uint64_t expected =
        next_checkpoint(cursor_done_, reps, options_.every);
    auto& pending = slots_[cursor_shard_].pending;
    const auto it = pending.find(expected);
    if (it == pending.end()) return;  // canonical predecessor still running

    std::map<std::string, Counts> cumulative = std::move(it->second);
    pending.erase(it);

    const std::uint64_t completed = prefix_base_ + expected;
    const bool shard_complete = expected == reps;
    const bool final = shard_complete && cursor_shard_ + 1 == slots_.size();
    // Zero-advance checkpoints (empty shards) fold into the next real
    // one; the rule depends only on canonical positions, never timing.
    if (completed > last_emitted_ || (final && !final_emitted_)) {
      ProgressUpdate update;
      update.completed_repetitions = completed;
      update.total_repetitions = total_;
      update.final = final;
      update.histograms = base_histograms_;
      merge_histograms(update.histograms, cumulative);
      options_.sink(update);
      last_emitted_ = completed;
      final_emitted_ = final;
    }

    if (shard_complete) {
      merge_histograms(base_histograms_, cumulative);
      prefix_base_ += reps;
      ++cursor_shard_;
      cursor_done_ = 0;
    } else {
      cursor_done_ = expected;
    }
  }
}

}  // namespace bgls
