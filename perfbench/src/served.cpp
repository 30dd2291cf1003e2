#include "served.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "api/session.h"
#include "fleet.h"
#include "service/client.h"
#include "service/report.h"
#include "spans.h"
#include "stats.h"
#include "util/json_parser.h"

namespace perfbench {

using namespace bgls;
using service::Endpoint;
using service::ServiceClient;
using service::SubmitArgs;

namespace {

/// Hand-off from the submitter to the waiters; -1 ends a waiter.
class WorkQueue {
 public:
  void push(long index) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      items_.push_back(index);
    }
    ready_.notify_one();
  }
  long pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return !items_.empty(); });
    const long index = items_.front();
    items_.pop_front();
    return index;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<long> items_;  // guarded by mutex_
};

void sleep_until_s(double when) {
  const double wait = when - now_s();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

}  // namespace

std::vector<Outcome> drive_open_loop(const Endpoint& front,
                                     const std::vector<SubmitArgs>& requests,
                                     const std::vector<double>& due,
                                     int waiters, std::size_t max_in_flight) {
  std::vector<Outcome> out(requests.size());
  std::vector<int> roots(requests.size(), -1);
  std::atomic<std::size_t> completed{0};
  WorkQueue queue;
  SpanRecorder& recorder = SpanRecorder::global();

  // Connect before any thread starts, so a refused connection throws
  // here rather than inside a thread.
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (int w = 0; w <= waiters; ++w) {
    clients.push_back(std::make_unique<ServiceClient>(front));
  }
  std::vector<std::thread> threads;
  for (int w = 1; w <= waiters; ++w) {
    threads.emplace_back([&, w] {
      ServiceClient& client = *clients[static_cast<std::size_t>(w)];
      for (long index = queue.pop(); index >= 0; index = queue.pop()) {
        Outcome& o = out[static_cast<std::size_t>(index)];
        if (o.ok) {
          const int root = roots[static_cast<std::size_t>(index)];
          Span span("service.ServiceClient::wait_report",
                    static_cast<std::uint64_t>(index), root);
          try {
            o.report = client.wait_report(o.job);
          } catch (const std::exception& e) {
            o.ok = false;
            o.error = e.what();
          }
        }
        o.done = now_s();
        if (roots[static_cast<std::size_t>(index)] >= 0) {
          recorder.close(roots[static_cast<std::size_t>(index)]);
        }
        completed.fetch_add(1);
      }
    });
  }

  const double start = now_s() + 0.005;
  bool stopped = false;
  try {
    ServiceClient& submitter = *clients.front();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Outcome& o = out[i];
      o.due = start + due[i];
      if (!stopped && i - completed.load() > max_in_flight) stopped = true;
      if (stopped) continue;
      sleep_until_s(o.due);
      o.attempted = true;
      if (recorder.enabled()) {
        roots[i] = recorder.open("service.request", i, current_span());
      }
      Span span("service.ServiceClient::submit", i, roots[i]);
      o.sent = now_s();
      try {
        o.job = submitter.submit(requests[i]);
        o.ok = true;
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      o.acked = now_s();
      queue.push(static_cast<long>(i));
    }
  } catch (...) {
    for (std::size_t w = 0; w < threads.size(); ++w) queue.push(-1);
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::size_t w = 0; w < threads.size(); ++w) queue.push(-1);
  for (std::thread& t : threads) t.join();
  return out;
}

Scrape scrape(const Endpoint& front) {
  ServiceClient client(front);
  std::istringstream text(client.metrics_text());
  Scrape sums;
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    const std::size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) continue;
    sums[line.substr(0, name_end)] += std::stod(line.substr(value_at + 1));
  }
  return sums;
}

namespace {

double delta(const Scrape& before, const Scrape& after,
             const std::string& name) {
  const auto get = [&](const Scrape& s) {
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

double histogram_mean(const Scrape& before, const Scrape& after,
                      const std::string& base) {
  const double count = delta(before, after, base + "_count");
  return count > 0 ? delta(before, after, base + "_sum") / count : 0.0;
}

}  // namespace

void add_service_metrics(const Endpoint& front,
                         const std::vector<Outcome>& outcomes,
                         const Scrape& before, const Scrape& after,
                         std::size_t traced_jobs, RunReport& report) {
  std::vector<double> rtt;
  std::vector<double> wait;
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.attempted) continue;
    rtt.push_back(o.acked - o.sent);
    if (o.ok) {
      wait.push_back(o.done - o.acked);
      done.push_back(i);
    }
  }
  report.add("service.submit_rtt_s_p50", median(rtt), "s");
  report.add("service.submit_rtt_s_p99", quantile(rtt, tail_level(rtt.size())),
             "s");
  report.add("service.wait_s_p50", median(wait), "s");
  report.add("service.queue_wait_s",
             histogram_mean(before, after, "bgls_scheduler_queue_wait_seconds"),
             "s");
  report.add("service.run_s",
             histogram_mean(before, after, "bgls_scheduler_run_seconds"), "s");
  const double hits = delta(before, after, "bgls_cache_hits_total");
  const double misses = delta(before, after, "bgls_cache_misses_total");
  report.add("service.cache_hit_frac",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
  report.add("service.journal_records",
             delta(before, after, "bgls_journal_records_total"), "count");
  report.add("service.rejected",
             delta(before, after, "bgls_scheduler_rejected_total"), "count");

  // Top-level span time of the merged fleet+worker trace tree over the
  // client's own submit-to-report time, over the latest jobs (workers
  // retain a bounded number of finished jobs).
  double top = 0;
  double client_seconds = 0;
  ServiceClient client(front);
  const std::size_t first =
      done.size() > traced_jobs ? done.size() - traced_jobs : 0;
  for (std::size_t k = first; k < done.size(); ++k) {
    const Outcome& o = outcomes[done[k]];
    Span span("service.ServiceClient::trace", done[k]);
    for (const obs::SpanRecord& s :
         service::parse_spans(client.trace(o.job))) {
      if (s.parent == 0) top += s.seconds;
    }
    client_seconds += o.done - o.sent;
  }
  report.add("service.unattributed_frac",
             client_seconds > 0 ? 1.0 - top / client_seconds : 0.0, "frac");
}

std::string reference_report(const SubmitArgs& args) {
  static Session session;
  RunRequest request = service::parse_submit(
      JsonValue::parse(service::submit_request_line(args)));
  const int qubits = request.circuit.num_qubits();
  const auto context = service::report_context(request, qubits);
  Span span("api.Session::run");
  return service::run_report_string(context, session.run(std::move(request)));
}

void serve_workload_request(const RunOptions& options, const SubmitArgs& args,
                            RunReport& report) {
  Span span("service.leg");
  // One worker: the fleet places without regard to caches, so with two
  // the repeat could land on the worker that never saw the request.
  ServiceFleet fleet(options.tools_dir, 1);
  const Scrape before = scrape(fleet.front());
  // The request, then its exact repeat (a result-cache hit), each sent
  // only after the previous report arrived.
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 2; ++i) {
    const std::vector<Outcome> one =
        drive_open_loop(fleet.front(), {args}, {0.0}, 1, 1);
    outcomes.push_back(one.front());
  }
  const Scrape after = scrape(fleet.front());
  add_service_metrics(fleet.front(), outcomes, before, after, 2, report);
  const std::string expected = reference_report(args);
  for (const Outcome& o : outcomes) {
    report.operation(o.ok && o.report == expected,
                     "served workload request differs from the in-process "
                     "Session report" + (o.error.empty() ? "" : ": " + o.error));
  }
  std::vector<double> lag;
  for (const Outcome& o : outcomes) lag.push_back(o.sent - o.due);
  report.add("bench.gen_lag_s_p99", quantile(lag, tail_level(lag.size())), "s");
  fleet.stop();
}

}  // namespace perfbench
