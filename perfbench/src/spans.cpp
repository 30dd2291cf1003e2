#include "spans.h"

#include <map>

#include "stats.h"

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/// The calling thread's innermost open span (-1 = none).
thread_local int tl_current = -1;

void write_escaped(std::ostream& os, const std::string& text) {
  os << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

int current_span() { return tl_current; }

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::open(std::string name, std::uint64_t request, int parent) {
  const double start = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start, start, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int index) {
  const double end = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_json(std::ostream& os) const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<Interval>> children(all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  struct Totals {
    std::size_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Totals> by_name;
  os.precision(9);
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const double self = self_time({s.start, s.end}, children[i]);
    Totals& t = by_name[s.name];
    ++t.count;
    t.total += s.end - s.start;
    t.self += self;
    os << (i == 0 ? "" : ",") << "\n{\"name\":";
    write_escaped(os, s.name);
    os << ",\"start\":" << s.start << ",\"end\":" << s.end
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"self\":" << self << "}";
  }
  os << "],\n\"by_name\":{";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    os << (first ? "" : ",") << "\n";
    first = false;
    write_escaped(os, name);
    os << ":{\"count\":" << t.count << ",\"total_s\":" << t.total
       << ",\"self_s\":" << t.self << "}";
  }
  os << "}}\n";
}

Span::Span(const char* name, std::uint64_t request) {
  SpanRecorder& recorder = SpanRecorder::global();
  if (!recorder.enabled()) return;
  saved_parent_ = tl_current;
  index_ = recorder.open(name, request, tl_current);
  tl_current = index_;
}

Span::Span(const char* name, std::uint64_t request, int parent) {
  SpanRecorder& recorder = SpanRecorder::global();
  if (!recorder.enabled()) return;
  saved_parent_ = tl_current;
  index_ = recorder.open(name, request, parent);
  tl_current = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  SpanRecorder::global().close(index_);
  tl_current = saved_parent_;
}

}  // namespace perfbench
