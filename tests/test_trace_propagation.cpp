/// \file test_trace_propagation.cpp
/// Cross-process trace propagation (the observability tentpole): a
/// propagated trace context flows client → fleet → worker → scheduler
/// → engine, span IDs are deterministic FNV-1a derivations, and the
/// resulting tree is byte-stable across thread counts. Also pins the
/// timeline exports (span-tree text, Chrome trace-event JSON) and the
/// protocol span round-trip. Runs under TSan and ASan+UBSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "engine_test_helpers.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/fleet.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace bgls {
namespace {

using namespace bgls::service;
using obs::SpanRecord;
using obs::Trace;
using testing::trajectory_workload;

constexpr std::uint64_t kTraceId = 424242;

/// Identity + structure only: durations are the one legitimately
/// nondeterministic part of a span, so byte-stable comparisons zero
/// them first. ([[maybe_unused]]: the telemetry-off build compiles the
/// span-recording tests out and keeps only the inertness test.)
[[maybe_unused]] std::vector<SpanRecord> zero_durations(
    std::vector<SpanRecord> spans) {
  for (SpanRecord& span : spans) span.seconds = 0.0;
  return spans;
}

[[maybe_unused]] bool has_span(const std::vector<SpanRecord>& spans,
                               std::string_view name, std::uint64_t parent) {
  for (const SpanRecord& span : spans) {
    if (span.name == name && span.parent == parent) return true;
  }
  return false;
}

const char kGhzQasm[] =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[3];\n"
    "creg c[3];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "measure q -> c;\n";

/// A unique private Unix socket path.
std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/bgls_trace_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

#if BGLS_TELEMETRY

TEST(TracePropagation, SchedulerAdoptsPropagatedContext) {
  JobScheduler scheduler;
  const std::uint64_t id = scheduler.submit(
      RunRequest()
          .with_circuit(trajectory_workload(3, 0.05))
          .with_repetitions(500)
          .with_seed(5)
          .with_threads(2)
          .with_rng_streams(4)
          .with_trace_context(kTraceId, /*parent=*/777));
  ASSERT_EQ(scheduler.wait(id).state, JobState::kDone);
  const JobInfo info = scheduler.info(id);
  ASSERT_NE(info.trace, nullptr);
  EXPECT_EQ(info.trace->id(), kTraceId);

  // Top-level local spans hang under the propagated parent — that is
  // what lets another process's tree stitch onto this one.
  const std::vector<SpanRecord> spans = info.trace->spans();
  EXPECT_TRUE(has_span(spans, "queue", 777));
  EXPECT_TRUE(has_span(spans, "run", 777));
  // Inner spans (session phases, engine shards) attach under "run".
  const std::uint64_t run_id = Trace::span_id(kTraceId, "run", 0);
  EXPECT_TRUE(has_span(spans, "sample", run_id));
  EXPECT_TRUE(has_span(spans, "shard", run_id));
}

TEST(TracePropagation, TraceIdDefaultsToJobIdWithoutContext) {
  JobScheduler scheduler;
  const std::uint64_t id = scheduler.submit(
      RunRequest()
          .with_circuit(trajectory_workload(3, 0.05))
          .with_repetitions(200)
          .with_seed(5));
  ASSERT_EQ(scheduler.wait(id).state, JobState::kDone);
  const JobInfo info = scheduler.info(id);
  ASSERT_NE(info.trace, nullptr);
  EXPECT_EQ(info.trace->id(), id);  // minted from the job id
  EXPECT_EQ(info.trace->parent(), 0u);
}

TEST(TracePropagation, EngineSpanTreeByteStableOneVsEightThreads) {
  // The acceptance contract at the layer that actually moves work
  // between threads: the engine with 1 worker runs every shard inline
  // on the caller's thread (inside whatever span the caller has open),
  // with 8 workers the shards land on pool threads — and the recorded
  // tree must be byte-identical either way. Shard decomposition depends
  // only on (repetitions, streams), span IDs only on (trace, name,
  // index), and Nest::kRoot pins shard parentage to the trace root
  // regardless of which thread executed the shard. Only durations may
  // differ, and those are zeroed.
  const Circuit circuit = trajectory_workload(3, 0.05);
  std::vector<std::string> rendered;
  std::vector<std::string> chrome;
  std::vector<Counts> histograms;
  for (const int threads : {1, 8}) {
    Trace trace(kTraceId);
    // Mirror the scheduler: the job's "run" span is the tree root.
    trace.set_root(Trace::span_id(kTraceId, "run", 0));
    SimulatorOptions options;
    options.num_threads = threads;
    options.num_rng_streams = 4;
    options.trace = &trace;
    BatchEngine<StateVectorState> engine{
        Simulator<StateVectorState>{StateVectorState(3), options}};
    Rng rng(5);
    Result result;
    {
      // An open caller-side span is the trap this test pins: inline
      // shards would nest under it with kEnclosing semantics, pool
      // shards would not.
      obs::TraceSpan sample(&trace, "sample");
      result = engine.run(circuit, 2000, rng);
    }
    histograms.push_back(result.histogram("m"));
    const std::vector<SpanRecord> spans = zero_durations(trace.spans());
    rendered.push_back(obs::render_span_tree(kTraceId, spans));
    chrome.push_back(obs::to_chrome_trace(kTraceId, spans));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(chrome[0], chrome[1]);
  EXPECT_EQ(histograms[0], histograms[1]);  // the BGLS contract itself
  // One tree, not a forest: shard spans present in both renders.
  EXPECT_NE(rendered[0].find("- shard"), std::string::npos);
}

TEST(TracePropagation, SchedulerSpanTreeByteStableAcrossThreadCounts) {
  // Same property through the full serving path (scheduler → session →
  // engine), across thread counts — 1 included: every count takes the
  // same decomposition, inline on the runner or on the pool.
  std::vector<std::string> rendered;
  std::vector<std::string> chrome;
  for (const int threads : {1, 2, 8}) {
    JobScheduler scheduler;
    const std::uint64_t id = scheduler.submit(
        RunRequest()
            .with_circuit(trajectory_workload(3, 0.05))
            .with_repetitions(2000)
            .with_seed(5)
            .with_threads(threads)
            .with_rng_streams(4)
            .with_trace_context(kTraceId));
    ASSERT_EQ(scheduler.wait(id).state, JobState::kDone);
    const std::vector<SpanRecord> spans =
        zero_durations(scheduler.info(id).trace->spans());
    rendered.push_back(obs::render_span_tree(kTraceId, spans));
    chrome.push_back(obs::to_chrome_trace(kTraceId, spans));
  }
  for (std::size_t i = 1; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[i], rendered[0]) << "thread count #" << i;
    EXPECT_EQ(chrome[i], chrome[0]) << "thread count #" << i;
  }
  // One tree, not a forest: every shard span nests under "run".
  EXPECT_NE(rendered[0].find("- run"), std::string::npos);
  EXPECT_NE(rendered[0].find("  - shard"), std::string::npos);
}

TEST(TracePropagation, SpanIdsAreStableFnv1aDerivations) {
  // Pinned values: the IDs are part of the wire contract (a client may
  // compute span_id("fleet.place") to stitch trees), so a hash change
  // is a breaking protocol change, not an implementation detail.
  EXPECT_EQ(Trace::span_id(kTraceId, "run", 0),
            Trace::span_id(kTraceId, "run", 0));
  EXPECT_NE(Trace::span_id(kTraceId, "run", 0),
            Trace::span_id(kTraceId, "run", 1));
  EXPECT_NE(Trace::span_id(kTraceId, "run", 0),
            Trace::span_id(kTraceId + 1, "run", 0));
  EXPECT_NE(Trace::span_id(kTraceId, "run", 0), 0u);
}

TEST(TracePropagation, ProtocolSpansRoundTrip) {
  std::vector<SpanRecord> spans;
  spans.push_back({11, 0, "fleet.place", 0, 0.25});
  spans.push_back({22, 11, "run", 0, 0.125});
  spans.push_back({33, 22, "shard", 3, 0.0625});

  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("spans");
  write_spans(json, spans);
  json.end_object();

  const std::vector<SpanRecord> parsed =
      parse_spans(JsonValue::parse(os.str()));
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].id, spans[i].id);
    EXPECT_EQ(parsed[i].parent, spans[i].parent);
    EXPECT_EQ(parsed[i].name, spans[i].name);
    EXPECT_EQ(parsed[i].index, spans[i].index);
    EXPECT_EQ(parsed[i].seconds, spans[i].seconds);
  }
}

TEST(Timeline, RenderSpanTreeGolden) {
  // Durations chosen as exact binary fractions so the fixed-point
  // formatting is stable.
  std::vector<SpanRecord> spans;
  spans.push_back({2, 0, "place", 0, 0.5});
  spans.push_back({3, 2, "run", 0, 0.25});
  spans.push_back({4, 2, "queue", 0, 0.125});
  spans.push_back({5, 3, "shard", 1, 0.0625});
  EXPECT_EQ(obs::render_span_tree(42, spans),
            "trace 0x000000000000002a (4 spans)\n"
            "- place (id=0x0000000000000002, 500.000 ms)\n"
            "  - queue (id=0x0000000000000004, 125.000 ms)\n"
            "  - run (id=0x0000000000000003, 250.000 ms)\n"
            "    - shard[1] (id=0x0000000000000005, 62.500 ms)\n");
}

TEST(Timeline, ChromeTraceGoldenAndValidJson) {
  std::vector<SpanRecord> spans;
  spans.push_back({2, 0, "place", 0, 0.5});
  spans.push_back({3, 2, "run", 0, 0.25});
  spans.push_back({4, 2, "queue", 0, 0.125});
  const std::string text = obs::to_chrome_trace(42, spans);
  EXPECT_EQ(
      text,
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"place\",\"cat\":\"bgls\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":500000,\"pid\":1,\"tid\":0,\"args\":{"
      "\"trace_id\":\"0x000000000000002a\","
      "\"span_id\":\"0x0000000000000002\","
      "\"parent_span_id\":\"0x0000000000000000\",\"index\":0}},"
      "{\"name\":\"queue\",\"cat\":\"bgls\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":125000,\"pid\":1,\"tid\":1,\"args\":{"
      "\"trace_id\":\"0x000000000000002a\","
      "\"span_id\":\"0x0000000000000004\","
      "\"parent_span_id\":\"0x0000000000000002\",\"index\":0}},"
      "{\"name\":\"run\",\"cat\":\"bgls\",\"ph\":\"X\",\"ts\":125000,"
      "\"dur\":250000,\"pid\":1,\"tid\":1,\"args\":{"
      "\"trace_id\":\"0x000000000000002a\","
      "\"span_id\":\"0x0000000000000003\","
      "\"parent_span_id\":\"0x0000000000000002\",\"index\":0}}]}");
  // And it is one well-formed JSON document Chrome can load.
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.find("traceEvents")->items().size(), 3u);
}

/// Fleet fixture: two in-process workers behind one fleet front, the
/// same wiring bgls_fleet runs.
class FleetTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Logger::global().reset_for_testing();
    for (int i = 0; i < 2; ++i) {
      DaemonOptions options;
      options.endpoint = Endpoint::unix_socket(unique_socket_path());
      workers_.push_back(std::make_unique<ServiceDaemon>(options));
      workers_.back()->start();
    }
    FleetOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    for (const auto& worker : workers_) {
      options.workers.push_back(worker->endpoint());
    }
    fleet_ = std::make_unique<FleetDaemon>(options);
    fleet_->start();
  }

  void TearDown() override {
    fleet_->stop();
    for (auto& worker : workers_) worker->stop();
    obs::Logger::global().reset_for_testing();
  }

  std::vector<std::unique_ptr<ServiceDaemon>> workers_;
  std::unique_ptr<FleetDaemon> fleet_;
};

TEST_F(FleetTraceTest, MergedTreeStitchesWorkerUnderFleetPlacement) {
  ServiceClient client(fleet_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 1024;
  args.seed = 7;
  args.trace_id = kTraceId;
  const std::uint64_t job = client.submit(args);
  client.wait_report(job);

  const JsonValue response = client.trace(job);
  EXPECT_EQ(response.u64_or("trace_id", 0), kTraceId);
  const std::vector<SpanRecord> spans = parse_spans(response);

  // The fleet's own placement/proxy spans are the roots...
  EXPECT_TRUE(has_span(spans, "fleet.place", 0));
  EXPECT_TRUE(has_span(spans, "fleet.proxy", 0));
  // ...and the worker's top-level spans hang under fleet.place because
  // the fleet forwarded (trace_id, parent=fleet.place) on the wire.
  const std::uint64_t place_id = Trace::span_id(kTraceId, "fleet.place", 0);
  EXPECT_TRUE(has_span(spans, "queue", place_id));
  EXPECT_TRUE(has_span(spans, "run", place_id));
  // Engine/session spans survive the merge too.
  const std::uint64_t run_id = Trace::span_id(kTraceId, "run", 0);
  EXPECT_TRUE(has_span(spans, "sample", run_id));

  // The merged tree renders as a single stitched forest whose worker
  // subtree nests below the fleet placement span.
  const std::string tree =
      obs::render_span_tree(kTraceId, zero_durations(spans));
  EXPECT_NE(tree.find("- fleet.place"), std::string::npos);
  EXPECT_NE(tree.find("  - run"), std::string::npos);
}

TEST_F(FleetTraceTest, LogsOpTailsByTraceId) {
  ServiceClient client(fleet_->endpoint());
  obs::log(obs::LogLevel::kWarn, "test", "correlated line", {{"k", 1}},
           /*trace_id=*/kTraceId);
  obs::log(obs::LogLevel::kWarn, "test", "other trace", {},
           /*trace_id=*/999);
  const JsonValue response = client.logs("warn", kTraceId);
  const JsonValue* lines = response.find("lines");
  ASSERT_NE(lines, nullptr);
  ASSERT_EQ(lines->items().size(), 1u);
  const JsonValue parsed = JsonValue::parse(lines->items()[0].as_string());
  EXPECT_EQ(parsed.string_or("msg", ""), "correlated line");
  EXPECT_EQ(parsed.u64_or("trace_id", 0), kTraceId);
}

TEST(TraceDeterminism, HistogramsIdenticalWithTracingOnAndOff) {
  // Observation-only: disabling every telemetry hook (traces, logs,
  // metrics) must not move a single sampled bit.
  const auto run_once = [](bool telemetry_on) {
    obs::EnabledScope scope(telemetry_on);
    JobScheduler scheduler;
    const std::uint64_t id = scheduler.submit(
        RunRequest()
            .with_circuit(trajectory_workload(3, 0.05))
            .with_repetitions(3000)
            .with_seed(11)
            .with_rng_streams(4)
            .with_trace_context(kTraceId));
    const JobInfo info = scheduler.wait(id);
    return info.result->measurements.histogram("m");
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

#else  // !BGLS_TELEMETRY

TEST(TracePropagationCompiledOut, TraceOpReportsNoSpans) {
  // With telemetry compiled out the propagated context is still parsed
  // and accepted (protocol compatibility), but no trace is minted —
  // and the trace op still answers, with trace_id 0 and no spans.
  JobScheduler scheduler;
  const std::uint64_t id = scheduler.submit(
      RunRequest()
          .with_circuit(trajectory_workload(3, 0.05))
          .with_repetitions(200)
          .with_seed(5)
          .with_trace_context(kTraceId));
  ASSERT_EQ(scheduler.wait(id).state, JobState::kDone);
  EXPECT_EQ(scheduler.info(id).trace, nullptr);

  DaemonOptions options;
  options.endpoint = Endpoint::unix_socket(unique_socket_path());
  ServiceDaemon daemon(options);
  daemon.start();
  {
    ServiceClient client(daemon.endpoint());
    SubmitArgs args;
    args.qasm = kGhzQasm;
    args.repetitions = 128;
    args.seed = 5;
    args.trace_id = kTraceId;
    const std::uint64_t job = client.submit(args);
    client.wait_report(job);
    const JsonValue response = client.trace(job);
    EXPECT_EQ(response.u64_or("trace_id", 1), 0u);
    EXPECT_TRUE(response.find("spans")->items().empty());
  }
  daemon.stop();
}

#endif  // BGLS_TELEMETRY

}  // namespace
}  // namespace bgls
