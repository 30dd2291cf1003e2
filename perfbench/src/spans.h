/// \file spans.h
/// The benchmark's own span recorder. Spans wrap the benchmark's calls
/// into each layer's public functions (nothing is recorded inside the
/// library); they are kept in memory and written out once, when the
/// run ends. Off unless the run was started with `--trace 1`, in which
/// case a Span costs two clock reads and one locked push.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process started measuring.
double now_s();

struct SpanRecord {
  std::string name;  // "<layer>.<call>", e.g. "api.Session::run"
  double start = 0;
  double end = 0;
  int parent = -1;           // index into the recorder's spans, -1 = root
  std::uint64_t request = 0; // spans of one request share this id
};

class SpanRecorder {
 public:
  static SpanRecorder& global();

  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Records the start of a span; returns its index.
  int open(std::string name, std::uint64_t request, int parent);
  void close(int index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Writes every span plus per-name total and self time (span minus
  /// the part its children cover) as JSON.
  void write_json(std::ostream& os) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// The calling thread's innermost open span (-1 = none), for spans
/// opened here and closed on another thread.
int current_span();

/// RAII span; inert while the recorder is disabled.
class Span {
 public:
  /// Nests under the calling thread's innermost open span.
  explicit Span(const char* name, std::uint64_t request = 0);
  /// Nests under `parent` (a span opened on another thread).
  Span(const char* name, std::uint64_t request, int parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
  int saved_parent_ = -1;
};

}  // namespace perfbench
