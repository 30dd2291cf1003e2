/// \file test_service.cpp
/// End-to-end protocol tests for the service daemon (service/daemon.h):
/// an in-process ServiceDaemon on a private Unix socket, driven by
/// ServiceClient over the real wire — the same code path the
/// standalone bgls_serve/bgls_client binaries run. Pins the acceptance
/// contract: daemon reports byte-identical to the CLI path, bounded
/// cancellation, deadline → timeout, deterministic streaming, and
/// protocol error handling. The protocol-error and stop cases also run
/// against a FleetDaemon front, since both servers share one line
/// server (service/line_server.h). Runs under TSan in CI.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "qasm/qasm.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/fleet.h"
#include "service/journal.h"
#include "service/report.h"
#include "util/json_writer.h"

namespace bgls {
namespace {

using namespace std::chrono_literals;
using namespace bgls::service;

const char kGhzQasm[] =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[3];\n"
    "creg c[3];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "measure q -> c;\n";

const char kX0Qasm[] =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[2];\n"
    "creg c[2];\n"
    "x q[0];\n"
    "measure q -> c;\n";

/// The report bgls_run would print for the same submission — built
/// through the identical library path (Session + shared writer).
std::string direct_report(const SubmitArgs& args) {
  RunRequest request = RunRequest()
                           .with_circuit(parse_qasm(args.qasm))
                           .with_repetitions(args.repetitions)
                           .with_seed(args.seed)
                           .with_threads(args.threads)
                           .with_rng_streams(args.streams)
                           .with_optimization(args.optimize)
                           .with_sample_parallelization(!args.no_batch);
  if (args.backend != "auto") request.with_backend(args.backend);
  const RunReportContext context =
      report_context(request, request.circuit.num_qubits());
  Session session;
  return run_report_string(context, session.run(std::move(request)));
}

/// A unique private Unix socket path.
std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/bgls_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Daemon fixture: one in-process daemon per test on a unique socket.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DaemonOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    options.scheduler.max_concurrent_jobs = 2;
    configure(options);
    daemon_ = std::make_unique<ServiceDaemon>(options);
    daemon_->start();
  }

  virtual void configure(DaemonOptions& options) { (void)options; }

  void TearDown() override { daemon_->stop(); }

  std::unique_ptr<ServiceDaemon> daemon_;
};

TEST_F(ServiceTest, SubmitWaitReportMatchesCliBytes) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 2048;
  args.seed = 7;
  const std::uint64_t job = client.submit(args);
  EXPECT_EQ(client.wait_report(job), direct_report(args));
  // result stays retrievable after wait.
  EXPECT_EQ(client.result_report(job), direct_report(args));
}

TEST_F(ServiceTest, ConcurrentClientsMixedCircuitsAllByteIdentical) {
  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<SubmitArgs> args(kClients);
  for (int i = 0; i < kClients; ++i) {
    args[i].qasm = i % 2 == 0 ? kGhzQasm : kX0Qasm;
    args[i].repetitions = 512 + static_cast<std::uint64_t>(i) * 100;
    args[i].seed = static_cast<std::uint64_t>(i) + 1;
    if (i == 3) args[i].backend = "sv";
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      // One connection per client thread, submissions interleaving on
      // the daemon side.
      ServiceClient client(daemon_->endpoint());
      const std::uint64_t job = client.submit(args[i]);
      reports[i] = client.wait_report(job);
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(reports[i], direct_report(args[i])) << "client " << i;
  }
}

TEST_F(ServiceTest, CancelStopsRunningJobPromptly) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 500'000'000ULL;
  args.no_batch = true;  // per-trajectory: bounded per-rep stop checks
  const std::uint64_t job = client.submit(args);
  while (client.status(job).string_or("state", "") == "queued") {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(client.cancel(job));
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)client.wait_report(job);
    FAIL() << "cancelled job produced a report";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), "cancelled");
  }
  // "Bounded number of shard steps": generously, a few seconds of
  // wall clock on any machine.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  EXPECT_EQ(client.status(job).string_or("state", ""), "cancelled");
}

TEST_F(ServiceTest, DeadlineExceededReturnsTimeout) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 500'000'000ULL;
  args.no_batch = true;
  args.deadline_ms = 100;
  const std::uint64_t job = client.submit(args);
  try {
    (void)client.wait_report(job);
    FAIL() << "deadline job produced a report";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), "timeout");
  }
}

TEST_F(ServiceTest, StreamDeliversDeterministicPrefixes) {
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 50000;
  args.no_batch = true;
  args.progress_every = 10000;
  args.streams = 5;  // shards of 10000: one frame per shard
  args.seed = 13;

  // Stream the same job spec twice; both streams must agree frame for
  // frame (fixed seed ⇒ canonical update sequence).
  std::vector<std::vector<std::uint64_t>> completed(2);
  std::string reports[2];
  for (int round = 0; round < 2; ++round) {
    ServiceClient client(daemon_->endpoint());
    const std::uint64_t job = client.submit(args);
    reports[round] =
        client.stream(job, [&](const JsonValue& frame) {
          completed[round].push_back(frame.u64_or("completed", 0));
        });
  }
  EXPECT_EQ(completed[0],
            (std::vector<std::uint64_t>{10000, 20000, 30000, 40000, 50000}));
  EXPECT_EQ(completed[0], completed[1]);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], direct_report(args));
}

TEST_F(ServiceTest, StatsEndpointCounts) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs args;
  args.qasm = kGhzQasm;
  args.repetitions = 256;
  client.wait_report(client.submit(args));
  const JsonValue stats = client.stats();
  EXPECT_EQ(stats.u64_or("submitted", 0), 1u);
  EXPECT_EQ(stats.u64_or("completed", 0), 1u);
  const JsonValue* per_backend = stats.find("completed_per_backend");
  ASSERT_NE(per_backend, nullptr);
  // GHZ is pure Clifford: routed to the stabilizer backend — the
  // routing decision the stats endpoint surfaces.
  const JsonValue* stabilizer = per_backend->find("stabilizer");
  ASSERT_NE(stabilizer, nullptr);
  EXPECT_EQ(stabilizer->as_u64(), 1u);
}

/// The two servers over the shared line loop (service/line_server.h).
/// Each starts its stack on private sockets and names the slug it
/// answers for an unknown job id: the daemon's scheduler lookup throws
/// (bad_request), the fleet answers from its route table (unknown_job).
struct DaemonServer {
  static constexpr const char* kUnknownJobCode = "bad_request";

  explicit DaemonServer(std::uint64_t slow_request_ms = 0) {
    DaemonOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    options.scheduler.max_concurrent_jobs = 2;
    options.slow_request_ms = slow_request_ms;
    daemon = std::make_unique<ServiceDaemon>(options);
    daemon->start();
  }
  [[nodiscard]] const Endpoint& endpoint() const { return daemon->endpoint(); }
  void stop() { daemon->stop(); }

  std::unique_ptr<ServiceDaemon> daemon;
};

/// One worker daemon behind a fleet front; stop() stops the front.
/// `slow_request_ms` applies to the front only.
struct FleetServer {
  static constexpr const char* kUnknownJobCode = "unknown_job";

  explicit FleetServer(std::uint64_t slow_request_ms = 0) {
    FleetOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    options.workers.push_back(worker.endpoint());
    options.slow_request_ms = slow_request_ms;
    fleet = std::make_unique<FleetDaemon>(options);
    fleet->start();
  }
  [[nodiscard]] const Endpoint& endpoint() const { return fleet->endpoint(); }
  void stop() { fleet->stop(); }

  DaemonServer worker;  // declared first: outlives the front
  std::unique_ptr<FleetDaemon> fleet;
};

enum class ServerKind { kDaemon, kFleet };

// Names the parameter in test listings ("/Daemon", "/Fleet").
void PrintTo(ServerKind kind, std::ostream* os) {
  *os << (kind == ServerKind::kDaemon ? "Daemon" : "Fleet");
}

/// Runs each case against a daemon and against a fleet front.
class ServerProtocolTest : public ::testing::TestWithParam<ServerKind> {
 protected:
  void SetUp() override {
    if (GetParam() == ServerKind::kDaemon) {
      daemon_ = std::make_unique<DaemonServer>();
    } else {
      fleet_ = std::make_unique<FleetServer>();
    }
  }
  [[nodiscard]] const Endpoint& endpoint() const {
    return daemon_ ? daemon_->endpoint() : fleet_->endpoint();
  }
  [[nodiscard]] const char* unknown_job_code() const {
    return daemon_ ? DaemonServer::kUnknownJobCode
                   : FleetServer::kUnknownJobCode;
  }
  void stop() { daemon_ ? daemon_->stop() : fleet_->stop(); }

  std::unique_ptr<DaemonServer> daemon_;
  std::unique_ptr<FleetServer> fleet_;
};

INSTANTIATE_TEST_SUITE_P(Servers, ServerProtocolTest,
                         ::testing::Values(ServerKind::kDaemon,
                                           ServerKind::kFleet));

TEST_P(ServerProtocolTest, ProtocolErrorsKeepConnectionUsable) {
  ServiceClient client(endpoint());
  // Malformed JSON.
  JsonValue response = client.roundtrip("this is not json\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_EQ(response.string_or("code", ""), "parse_error");
  // Unknown op.
  response = client.roundtrip("{\"op\":\"frobnicate\"}\n");
  EXPECT_EQ(response.string_or("code", ""), "unknown_op");
  // Unknown job.
  response = client.roundtrip("{\"op\":\"status\",\"job\":12345}\n");
  EXPECT_EQ(response.string_or("code", ""), unknown_job_code());
  // Malformed QASM in submit.
  response = client.roundtrip(
      "{\"op\":\"submit\",\"qasm\":\"OPENQASM 9;\"}\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  // Result for a job that is not done yet / unknown.
  response = client.roundtrip("{\"op\":\"result\",\"job\":999}\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  // The connection survived all of it.
  SubmitArgs args;
  args.qasm = kX0Qasm;
  args.repetitions = 16;
  EXPECT_EQ(client.wait_report(client.submit(args)), direct_report(args));
}

TEST_P(ServerProtocolTest, StopWhileClientBlockedInWaitIsClean) {
  ServiceClient client(endpoint());
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  const std::uint64_t job = client.submit(big);
  // Bounded wait: a fleet front's handler follows the worker's wait on
  // its proxy socket, which the front's stop does not interrupt.
  std::thread waiter([&] {
    try {
      const JsonValue response = client.wait(job, 2000);
      EXPECT_EQ(response.string_or("code", ""), "not_done");
    } catch (const IoError&) {
      // stop() closed the connection before the answer went out.
    }
  });
  std::this_thread::sleep_for(100ms);
  const auto start = std::chrono::steady_clock::now();
  stop();
  waiter.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

TEST_P(ServerProtocolTest, WaitAnswersByItsTimeout) {
  ServiceClient client(endpoint());
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  const std::uint64_t job = client.submit(big);
  // The wait's slices end at the client's deadline, not at the next
  // 200 ms poll boundary.
  const auto start = std::chrono::steady_clock::now();
  const JsonValue response = client.wait(job, 20);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.string_or("code", ""), "not_done");
  EXPECT_LT(elapsed, 150ms);
  EXPECT_TRUE(client.cancel(job));
}

TEST(FleetProtocol, NonStringOpAnswersBadRequest) {
  FleetServer server;
  ServiceClient client(server.endpoint());
  const JsonValue response = client.roundtrip("{\"op\":5}\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_EQ(response.string_or("code", ""), "bad_request");
  SubmitArgs args;
  args.qasm = kX0Qasm;
  args.repetitions = 16;
  EXPECT_EQ(client.wait_report(client.submit(args)), direct_report(args));
}

/// A slow request whose trace_id is not a number: the slow-request log
/// must fall back to logging without correlation, on both servers.
template <typename Server>
void expect_slow_wait_with_bad_trace_id_answers(Server& server) {
  ServiceClient client(server.endpoint());
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  const std::uint64_t job = client.submit(big);
  // 20 ms of waiting makes the request slower than the 1 ms threshold
  // on every host.
  const JsonValue response = client.roundtrip(
      "{\"op\":\"wait\",\"job\":" + std::to_string(job) +
      ",\"timeout_ms\":20,\"trace_id\":\"x\"}\n");
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_EQ(response.string_or("code", ""), "not_done");
  EXPECT_TRUE(client.cancel(job));
  EXPECT_TRUE(client.stats().bool_or("ok", false));  // still serving
}

TEST(SlowRequestLog, NonNumericTraceIdOnDaemon) {
  DaemonServer server(/*slow_request_ms=*/1);
  expect_slow_wait_with_bad_trace_id_answers(server);
}

TEST(SlowRequestLog, NonNumericTraceIdOnFleet) {
  FleetServer server(/*slow_request_ms=*/1);
  expect_slow_wait_with_bad_trace_id_answers(server);
}

class TinyQueueServiceTest : public ServiceTest {
 protected:
  void configure(DaemonOptions& options) override {
    options.scheduler.max_concurrent_jobs = 1;
    options.scheduler.max_queue_depth = 1;
  }
};

TEST_F(TinyQueueServiceTest, AdmissionControlOverSocket) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  const std::uint64_t running = client.submit(big);
  while (client.status(running).string_or("state", "") == "queued") {
    std::this_thread::sleep_for(1ms);
  }
  const std::uint64_t queued = client.submit(big);
  bool rejected = false;
  try {
    (void)client.submit(big);
  } catch (const ServiceError& e) {
    rejected = true;
    EXPECT_EQ(e.code(), "queue_full");
  }
  EXPECT_TRUE(rejected);
  client.cancel(running);
  client.cancel(queued);
  EXPECT_EQ(client.stats().u64_or("rejected", 0), 1u);
}

TEST(ServiceJournal, RestartReplaysTerminalJobsAndResumesIncompleteOnes) {
  const std::string journal = "/tmp/bgls_test_journal_" +
                              std::to_string(::getpid()) + "_svc.ndjson";
  std::remove(journal.c_str());

  SubmitArgs finished;
  finished.qasm = kGhzQasm;
  finished.repetitions = 512;
  finished.seed = 3;
  SubmitArgs interrupted;
  interrupted.qasm = kGhzQasm;
  interrupted.repetitions = 400'000;
  interrupted.seed = 23;
  interrupted.no_batch = true;  // per-trajectory: checkpointable mid-run

  std::uint64_t finished_id = 0;
  std::uint64_t interrupted_id = 0;
  {
    DaemonOptions options;
    options.endpoint = Endpoint::unix_socket(unique_socket_path());
    options.journal_path = journal;
    options.scheduler.checkpoint_every = 5'000;
    ServiceDaemon daemon(options);
    daemon.start();
    ServiceClient client(daemon.endpoint());
    finished_id = client.submit(finished);
    EXPECT_EQ(client.wait_report(finished_id), direct_report(finished));
    interrupted_id = client.submit(interrupted);
    while (client.status(interrupted_id).string_or("state", "") == "queued") {
      std::this_thread::sleep_for(1ms);
    }
    // Destroy the daemon with the job mid-run. Shutdown-cancelled jobs
    // get no terminal journal record, so the job stays incomplete in
    // the log for the next incarnation to resume.
  }

  DaemonOptions options;
  options.endpoint = Endpoint::unix_socket(unique_socket_path());
  options.journal_path = journal;
  options.scheduler.checkpoint_every = 5'000;
  ServiceDaemon daemon(options);
  daemon.start();  // replays + compacts the journal, re-enqueues
  ServiceClient client(daemon.endpoint());

  // The finished job answers from the journal without re-running, under
  // its original id — status, result, and stream all work.
  EXPECT_EQ(client.result_report(finished_id), direct_report(finished));
  EXPECT_EQ(client.status(finished_id).string_or("state", ""), "done");

  // The interrupted job re-ran (resuming from its last checkpoint when
  // one was journaled) to the canonical bytes.
  EXPECT_EQ(client.wait_report(interrupted_id), direct_report(interrupted));

  daemon.stop();
  std::remove(journal.c_str());
}

/// A checkpoint record in the shape earlier releases journaled, under a
/// mode name this build no longer writes: `shards` shards, each claiming
/// to be complete with every count on outcome 5 — bytes no GHZ run can
/// print, so a job that trusted the record would fail the comparison.
std::string old_checkpoint_record(std::uint64_t job, const char* mode,
                                  std::uint64_t repetitions,
                                  std::uint64_t shards) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("type").value("checkpoint");
  json.key("job").value(job);
  json.key("data").begin_object();
  json.key("version").value(1);
  json.key("mode").value(mode);
  json.key("total").value(repetitions);
  json.key("shards").begin_array();
  for (std::uint64_t i = 0; i < shards; ++i) {
    const std::uint64_t total =
        repetitions / shards + (i < repetitions % shards ? 1 : 0);
    json.begin_object();
    json.key("total").value(total);
    json.key("completed").value(total);
    json.key("rng").begin_array();
    for (std::uint64_t word = 1; word <= 4; ++word) json.value(word);
    json.end_array();
    json.key("histograms").begin_object();
    json.key("c").begin_object().key("5").value(total).end_object();
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();
  return os.str();
}

TEST(ServiceJournal, CheckpointsOfRetiredModesRerunFromScratch) {
  // Journals written before the one-dictionary decomposition hold
  // "serial", "serial_batched" and 16-shard "engine_batched"
  // checkpoints. Replay must treat them as unknown: each job re-runs
  // from scratch to exactly the bytes bgls_run prints for it.
  const std::string journal = "/tmp/bgls_test_journal_" +
                              std::to_string(::getpid()) + "_modes.ndjson";
  std::remove(journal.c_str());

  struct OldJob {
    const char* mode;
    SubmitArgs args;
    std::uint64_t shards;
  };
  std::vector<OldJob> jobs(3);
  for (OldJob& job : jobs) {
    job.args.qasm = kGhzQasm;
    job.args.repetitions = 600;
    job.args.seed = 31;
  }
  jobs[0].mode = "serial";  // a threads=1 trajectory run
  jobs[0].args.no_batch = true;
  jobs[0].shards = 1;
  jobs[1].mode = "serial_batched";  // a threads=1 batched run
  jobs[1].shards = 1;
  jobs[2].mode = "engine_batched";  // a threads=2 batched run
  jobs[2].args.threads = 2;
  jobs[2].shards = 16;
  {
    Journal writer;
    writer.open(journal);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::uint64_t id = i + 1;
      std::string line = submit_request_line(jobs[i].args);
      if (!line.empty() && line.back() == '\n') line.pop_back();
      std::ostringstream submit;
      JsonWriter json(submit, JsonWriter::Style::kCompact);
      json.begin_object();
      json.key("type").value("submit");
      json.key("job").value(id);
      json.key("line").value(line);
      json.end_object();
      writer.append(submit.str());
      writer.append(old_checkpoint_record(id, jobs[i].mode,
                                          jobs[i].args.repetitions,
                                          jobs[i].shards));
    }
    writer.close();
  }

  DaemonOptions options;
  options.endpoint = Endpoint::unix_socket(unique_socket_path());
  options.journal_path = journal;
  ServiceDaemon daemon(options);
  daemon.start();  // replays the journal and re-enqueues all three jobs
  ServiceClient client(daemon.endpoint());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(client.wait_report(i + 1), direct_report(jobs[i].args))
        << "job with a '" << jobs[i].mode << "' checkpoint";
  }
  daemon.stop();
  std::remove(journal.c_str());
}

TEST_F(ServiceTest, StopWhileJobsInFlightIsClean) {
  ServiceClient client(daemon_->endpoint());
  SubmitArgs big;
  big.qasm = kGhzQasm;
  big.repetitions = 500'000'000ULL;
  big.no_batch = true;
  (void)client.submit(big);
  // TearDown stops the daemon with the job mid-run; the scheduler
  // destructor cancels it. Nothing to assert beyond "no hang/crash".
  SUCCEED();
}

}  // namespace
}  // namespace bgls
