#include "api/session.h"

#include <chrono>
#include <map>
#include <utility>

#include "core/optimize.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"
#include "util/error.h"

namespace bgls {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Arms the request's wall-clock deadline on its cancellation token
// (creating one when the caller did not supply a handle). Called on
// entry of every Session run path, so deadline_ms counts from
// submission — including pool wait for run_async.
void arm_cancellation(RunRequest& request) {
  if (request.deadline_ms == 0) return;
  if (!request.cancel_token.valid()) {
    request.cancel_token = CancellationToken::make();
  }
  request.cancel_token.set_deadline_after(
      std::chrono::milliseconds(request.deadline_ms));
}

}  // namespace

Session::Session(SessionOptions options)
    : registry_(options.registry != nullptr ? options.registry
                                            : &BackendRegistry::global()),
      selector_(options.selector_thresholds, options.cost_model) {}

void Session::apply_optimization(Circuit& circuit, const Backend& backend) {
  // Optimization is a performance hint, not a contract: fusion emits
  // dense matrix gates, so the fused form is used only when the
  // already-resolved backend can run it. A stabilizer-routed
  // pure-Clifford circuit keeps its original (polynomial) form instead
  // of being demoted or rejected — matrix backends get the fused one.
  Circuit fused = optimize_for_bgls(circuit);
  if (backend.can_run(fused)) circuit = std::move(fused);
}

Session::Resolution Session::resolve_backend(const Circuit& circuit,
                                             const RunRequest& request) const {
  if (!request.backend_name.empty()) {
    return {registry_->require(request.backend_name), ""};
  }
  if (request.backend != BackendId::kAuto) {
    // Several user backends may share kCustom; picking "whichever
    // registered first" would silently run the wrong one.
    BGLS_REQUIRE(request.backend != BackendId::kCustom,
                 "custom backends must be addressed by name "
                 "(with_backend(\"<registered name>\"))");
    return {registry_->require(request.backend), ""};
  }
  // Repetitions feed the cost comparisons (rules 2 and 4): trajectory
  // cost scales with shots, so the same circuit may route differently
  // at 10 reps and 10k reps.
  BackendSelector::Selection selection =
      selector_.select(circuit, request.repetitions);
  return {registry_->require(selection.id), std::move(selection.reason)};
}

Session::Resolution Session::resolve_checked(const Circuit& circuit,
                                             const RunRequest& request) const {
  // Used by run_async only: submission must fail *now*, not from the
  // future, so the extra up-front capability scan is worth paying
  // there (the synchronous paths validate once, inside the dispatch).
  Resolution resolution = resolve_backend(circuit, request);
  std::string reason;
  if (!resolution.backend->can_run(circuit, &reason)) {
    detail::throw_error<UnsupportedOperationError>(
        "backend '", resolution.backend->name(),
        "' cannot run this circuit: ", reason);
  }
  // Mirror the engine's up-front validation: run() samples measurement
  // records, so a measurement-less circuit is rejected at submission
  // (before any future is handed out) instead of inside the dispatch.
  BGLS_REQUIRE(circuit.has_measurements(),
               "circuit has no measurements to sample; append measure()");
  return resolution;
}

std::shared_ptr<EngineContext> Session::ensure_context(int num_threads) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!context_ || context_->num_threads() != num_threads) {
    context_ = EngineContext::shared(num_threads);
  }
  return context_;
}

std::shared_ptr<EngineContext> Session::engine_context() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return context_;
}

RunResult Session::run(RunRequest request) {
  // Resolution happens unconditionally (on the unoptimized circuit, so
  // routing reflects what the caller wrote) — a 0-repetition request
  // still routes, and the dispatch below still validates the circuit
  // (Backend::run's require_runnable + the simulator's own checks) and
  // declares every measurement key on the empty result. Validation is
  // deliberately left to the dispatch so the circuit is scanned once,
  // not twice.
  Resolution resolution = resolve_backend(request.circuit, request);
  double optimize_seconds = 0.0;
  if (request.optimize_circuit) {
    request.optimize_circuit = false;
    const auto optimize_start = std::chrono::steady_clock::now();
    obs::TraceSpan span(request.trace, "optimize");
    apply_optimization(request.circuit, *resolution.backend);
    optimize_seconds = seconds_since(optimize_start);
  }
  arm_cancellation(request);
  const int resolved = ThreadPool::resolve_num_threads(request.num_threads);
  if (resolved > 1) ensure_context(resolved);
  const auto start = std::chrono::steady_clock::now();
  RunResult out;
  {
    obs::TraceSpan span(request.trace, "sample");
    out = resolution.backend->run(request);
  }
  out.wall_seconds = seconds_since(start);
  // Phase wall times (RunStats contract: scheduling-dependent, so they
  // never enter the byte-stable reports).
  out.stats.optimize_ms = optimize_seconds * 1000.0;
  out.stats.sample_ms = out.wall_seconds * 1000.0;
  // Mirrored into the stats so routing decisions survive aggregation
  // (the service daemon's stats endpoint reads RunStats, not RunResult).
  out.stats.selection_reason = resolution.reason;
  out.selection_reason = std::move(resolution.reason);
  return out;
}

RunResult Session::run(Circuit circuit, std::uint64_t repetitions,
                       std::uint64_t seed) {
  return run(RunRequest()
                 .with_circuit(std::move(circuit))
                 .with_repetitions(repetitions)
                 .with_seed(seed));
}

std::future<RunResult> Session::run_async(RunRequest request) {
  Resolution resolution = resolve_checked(request.circuit, request);
  double optimize_seconds = 0.0;
  if (request.optimize_circuit) {
    request.optimize_circuit = false;
    const auto optimize_start = std::chrono::steady_clock::now();
    obs::TraceSpan span(request.trace, "optimize");
    apply_optimization(request.circuit, *resolution.backend);
    optimize_seconds = seconds_since(optimize_start);
  }
  // Armed at submission: a job that waits out its whole budget in the
  // pool queue times out without sampling (the service contract).
  arm_cancellation(request);
  const int resolved = ThreadPool::resolve_num_threads(request.num_threads);
  // The job runs on the immortal shared pool (a job may hold the last
  // reference to it, and a pool must never be destroyed by one of its
  // own workers). A multi-threaded inner run fans its shards out on
  // this same pool; nested parallel_for is safe (see thread_pool.h).
  std::shared_ptr<EngineContext> context = ensure_context(resolved);
  auto task = std::make_shared<std::packaged_task<RunResult()>>(
      [backend = resolution.backend, reason = std::move(resolution.reason),
       request = std::move(request), optimize_seconds]() {
        request.cancel_token.throw_if_stopped();
        const auto start = std::chrono::steady_clock::now();
        RunResult out;
        {
          obs::TraceSpan span(request.trace, "sample");
          out = backend->run(request);
        }
        out.wall_seconds = seconds_since(start);
        out.stats.optimize_ms = optimize_seconds * 1000.0;
        out.stats.sample_ms = out.wall_seconds * 1000.0;
        out.stats.selection_reason = reason;
        out.selection_reason = reason;
        return out;
      });
  std::future<RunResult> future = task->get_future();
  context->pool().submit([task] { (*task)(); });
  return future;
}

std::vector<RunResult> Session::run_batch(std::span<const Circuit> circuits,
                                          RunRequest request) {
  std::vector<RunResult> results(circuits.size());
  if (circuits.empty()) return results;
  // One deadline/token covers the whole batch (it is one submission).
  arm_cancellation(request);

  // Route every circuit (on its unoptimized form, exactly like run()),
  // then group by (backend, width) so each group runs through one
  // BatchEngine::run_batch (one prototype state per group) while kAuto
  // still routes heterogeneous traffic per circuit. Per-circuit
  // capability validation happens once, inside each group's
  // Backend::run_batch.
  struct Group {
    std::shared_ptr<Backend> backend;
    std::vector<std::size_t> indices;
  };
  std::vector<Group> groups;
  std::map<std::pair<const Backend*, int>, std::size_t> group_index;
  std::vector<std::string> reasons(circuits.size());
  // Filled per circuit only when optimization is requested (and the
  // resolved backend accepts the fused form); untouched inputs run in
  // place with no copies.
  std::vector<Circuit> optimized;
  if (request.optimize_circuit) {
    optimized.assign(circuits.begin(), circuits.end());
  }
  const bool optimize = request.optimize_circuit;
  request.optimize_circuit = false;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    Resolution resolution = resolve_backend(circuits[i], request);
    reasons[i] = std::move(resolution.reason);
    if (optimize) apply_optimization(optimized[i], *resolution.backend);
    const Circuit& effective = optimize ? optimized[i] : circuits[i];
    const std::pair<const Backend*, int> key{
        resolution.backend.get(), std::max(1, effective.num_qubits())};
    const auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) groups.push_back({std::move(resolution.backend), {}});
    groups[it->second].indices.push_back(i);
  }

  const int resolved = ThreadPool::resolve_num_threads(request.num_threads);
  if (resolved > 1) ensure_context(resolved);

  for (const Group& group : groups) {
    std::vector<RunResult> group_results;
    if (!optimize && group.indices.size() == circuits.size()) {
      // Single homogeneous group: run the caller's span directly.
      group_results = group.backend->run_batch(circuits, request);
    } else {
      std::vector<Circuit> group_circuits;
      group_circuits.reserve(group.indices.size());
      for (const std::size_t i : group.indices) {
        // Each index lands in exactly one group, so the optimized
        // copies can be moved out instead of re-copied.
        group_circuits.push_back(optimize ? std::move(optimized[i])
                                          : circuits[i]);
      }
      group_results = group.backend->run_batch(group_circuits, request);
    }
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      const std::size_t i = group.indices[j];
      results[i] = std::move(group_results[j]);
      // Per-job reason in both places: RunResult for callers, RunStats
      // so kAuto routing decisions survive into stats aggregation
      // (engine counters are shared by the group, the reason is not).
      results[i].selection_reason = reasons[i];
      results[i].stats.selection_reason = reasons[i];
    }
  }
  return results;
}

}  // namespace bgls
