#include "core/checkpoint.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>

#include "core/result.h"
#include "core/simulator.h"
#include "util/error.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/parse.h"

namespace bgls {

CheckpointStats checkpoint_stats_from(const RunStats& stats) {
  CheckpointStats out;
  out.state_applications = stats.state_applications;
  out.probability_evaluations = stats.probability_evaluations;
  out.max_dictionary_size = stats.max_dictionary_size;
  out.trajectories = stats.trajectories;
  out.diagonal_updates_skipped = stats.diagonal_updates_skipped;
  return out;
}

void apply_checkpoint_stats(RunStats& stats, const CheckpointStats& prefix) {
  stats.state_applications += prefix.state_applications;
  stats.probability_evaluations += prefix.probability_evaluations;
  stats.max_dictionary_size = std::max<std::size_t>(
      stats.max_dictionary_size, prefix.max_dictionary_size);
  stats.trajectories += prefix.trajectories;
  stats.diagonal_updates_skipped += prefix.diagonal_updates_skipped;
}

void add_checkpoint_stats(CheckpointStats& into, const CheckpointStats& delta) {
  into.state_applications += delta.state_applications;
  into.probability_evaluations += delta.probability_evaluations;
  into.max_dictionary_size =
      std::max(into.max_dictionary_size, delta.max_dictionary_size);
  into.trajectories += delta.trajectories;
  into.diagonal_updates_skipped += delta.diagonal_updates_skipped;
}

std::string_view checkpoint_mode_name(CheckpointMode mode) {
  switch (mode) {
    case CheckpointMode::kEngine: return "engine";
    case CheckpointMode::kDictionary: return "dictionary";
  }
  return "?";
}

CheckpointMode parse_checkpoint_mode(std::string_view name) {
  if (name == "engine") return CheckpointMode::kEngine;
  if (name == "dictionary") return CheckpointMode::kDictionary;
  detail::throw_error<ParseError>("unknown checkpoint mode '", name, "'");
}

std::uint64_t RunCheckpoint::completed_repetitions() const {
  std::uint64_t done = 0;
  for (const ShardCheckpoint& shard : shards) done += shard.completed;
  return done;
}

bool RunCheckpoint::complete() const {
  for (const ShardCheckpoint& shard : shards) {
    if (shard.completed != shard.total) return false;
  }
  return true;
}

std::string RunCheckpoint::to_json() const {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("version").value(version);
  json.key("mode").value(checkpoint_mode_name(mode));
  json.key("total").value(total_repetitions);
  json.key("stats").begin_object();
  json.key("state_applications").value(stats.state_applications);
  json.key("probability_evaluations").value(stats.probability_evaluations);
  json.key("max_dictionary_size").value(stats.max_dictionary_size);
  json.key("trajectories").value(stats.trajectories);
  json.key("diagonal_updates_skipped").value(stats.diagonal_updates_skipped);
  json.end_object();
  json.key("shards").begin_array();
  for (const ShardCheckpoint& shard : shards) {
    json.begin_object();
    json.key("total").value(shard.total);
    json.key("completed").value(shard.completed);
    json.key("rng").begin_array();
    for (const std::uint64_t word : shard.rng_state) json.value(word);
    json.end_array();
    json.key("histograms").begin_object();
    for (const auto& [key, counts] : shard.histograms) {
      json.key(key).begin_object();
      for (const auto& [bits, count] : counts) {
        json.key(std::to_string(bits)).value(count);
      }
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return out.str();
}

namespace {

CheckpointStats stats_from_json(const JsonValue& value) {
  CheckpointStats stats;
  stats.state_applications = value.u64_or("state_applications", 0);
  stats.probability_evaluations = value.u64_or("probability_evaluations", 0);
  stats.max_dictionary_size = value.u64_or("max_dictionary_size", 0);
  stats.trajectories = value.u64_or("trajectories", 0);
  stats.diagonal_updates_skipped = value.u64_or("diagonal_updates_skipped", 0);
  return stats;
}

std::uint64_t parse_u64_key(const std::string& text) {
  // Checked parse (util/parse.h): std::stoull would throw raw
  // std::invalid_argument/std::out_of_range — not a bgls error type —
  // on a corrupt checkpoint, and accept a leading '-' by wrapping.
  const std::optional<std::uint64_t> parsed = util::try_parse_u64(text);
  BGLS_REQUIRE(parsed.has_value(), "malformed histogram key '", text, "'");
  return *parsed;
}

}  // namespace

RunCheckpoint RunCheckpoint::from_json(const JsonValue& value) {
  BGLS_REQUIRE(value.kind() == JsonValue::Kind::kObject,
               "checkpoint JSON must be an object");
  RunCheckpoint checkpoint;
  checkpoint.version = static_cast<int>(value.u64_or("version", 1));
  const JsonValue* mode = value.find("mode");
  BGLS_REQUIRE(mode != nullptr, "checkpoint JSON missing 'mode'");
  checkpoint.mode = parse_checkpoint_mode(mode->as_string());
  checkpoint.total_repetitions = value.u64_or("total", 0);
  const JsonValue* stats = value.find("stats");
  if (stats != nullptr) checkpoint.stats = stats_from_json(*stats);
  const JsonValue* shards = value.find("shards");
  BGLS_REQUIRE(shards != nullptr, "checkpoint JSON missing 'shards'");
  for (const JsonValue& entry : shards->items()) {
    ShardCheckpoint shard;
    shard.total = entry.u64_or("total", 0);
    shard.completed = entry.u64_or("completed", 0);
    BGLS_REQUIRE(shard.completed <= shard.total,
                 "checkpoint shard completed > total");
    const JsonValue* rng = entry.find("rng");
    BGLS_REQUIRE(rng != nullptr && rng->items().size() == 4,
                 "checkpoint shard needs a 4-word rng state");
    for (std::size_t i = 0; i < 4; ++i) {
      shard.rng_state[i] = rng->items()[i].as_u64();
    }
    if (const JsonValue* histograms = entry.find("histograms")) {
      for (const auto& [key, counts] : histograms->members()) {
        Counts& into = shard.histograms[key];
        for (const auto& [bits, count] : counts.members()) {
          into[parse_u64_key(bits)] = count.as_u64();
        }
      }
    }
    checkpoint.shards.push_back(std::move(shard));
  }
  return checkpoint;
}

RunCheckpoint RunCheckpoint::parse(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

void validate_resume(const RunCheckpoint& checkpoint, CheckpointMode mode,
                     std::uint64_t total_repetitions, std::size_t shards) {
  BGLS_REQUIRE(checkpoint.mode == mode,
               "checkpoint was produced by the '",
               checkpoint_mode_name(checkpoint.mode),
               "' decomposition but this run takes '",
               checkpoint_mode_name(mode),
               "'; resume with the same circuit and batching configuration");
  BGLS_REQUIRE(checkpoint.total_repetitions == total_repetitions,
               "checkpoint covers ", checkpoint.total_repetitions,
               " repetitions but the run asks for ", total_repetitions);
  BGLS_REQUIRE(checkpoint.shards.size() == shards,
               "checkpoint has ", checkpoint.shards.size(),
               " shards but the run decomposes into ", shards,
               "; resume with the same num_rng_streams");
  for (const ShardCheckpoint& shard : checkpoint.shards) {
    BGLS_REQUIRE(shard.completed <= shard.total,
                 "checkpoint shard completed > total");
  }
}

void restore_result_histograms(
    Result& result, const std::map<std::string, Counts>& histograms) {
  for (const auto& [key, counts] : histograms) {
    for (const auto& [value, count] : counts) {
      result.add_records(key, value, count);
    }
  }
}

CheckpointCollector::CheckpointCollector(CheckpointOptions options,
                                         RunCheckpoint base)
    : options_(std::move(options)),
      current_(std::move(base)),
      base_stats_(current_.stats),
      deltas_(current_.shards.size()) {}

void CheckpointCollector::record(std::size_t shard, std::uint64_t completed,
                                 const std::array<std::uint64_t, 4>& rng_state,
                                 const std::map<std::string, Counts>& cumulative,
                                 const CheckpointStats& delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ShardCheckpoint& slot = current_.shards.at(shard);
  slot.completed = completed;
  slot.rng_state = rng_state;
  slot.histograms = cumulative;
  deltas_.at(shard) = delta;
  CheckpointStats stats = base_stats_;
  for (const CheckpointStats& d : deltas_) add_checkpoint_stats(stats, d);
  current_.stats = stats;
  if (options_.sink) options_.sink(current_);
}

void CheckpointCollector::emit() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (options_.sink) options_.sink(current_);
}

RunCheckpoint CheckpointCollector::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

}  // namespace bgls
