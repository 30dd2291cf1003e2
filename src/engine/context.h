/// \file context.h
/// Long-lived execution context shared by batch-engine runs.
///
/// A fresh ThreadPool per run is fine for one big run but wasteful in a
/// tight loop of small ones, where thread-spawn latency dominates the
/// sampling itself. EngineContext wraps the pool behind a shared_ptr
/// with a process-wide per-thread-count cache (the qsim-style
/// persistent executor): every Simulator — and every copy of it, since
/// copying a Simulator copies the shared_ptr — reuses one pool.
///
/// Session's asynchronous jobs are scheduled on the same cached pools,
/// which live for the whole process.

#pragma once

#include <memory>

#include "engine/thread_pool.h"

namespace bgls {

/// Reusable engine execution context: a resolved thread count plus the
/// long-lived pool backing it.
class EngineContext {
 public:
  /// Builds a private (uncached) context for `num_threads`-way engine
  /// runs (>= 1). The pool holds num_threads - 1 workers with a floor
  /// of one: the synchronous path adds the calling thread to reach
  /// num_threads-way concurrency, while asynchronous jobs run entirely
  /// on the workers.
  explicit EngineContext(int num_threads);

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  /// Concurrency this context was built for (>= 1; already resolved,
  /// never the 0 = auto sentinel).
  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// The long-lived worker pool.
  [[nodiscard]] ThreadPool& pool() { return pool_; }

  /// Process-wide shared context for a resolved thread count: every
  /// caller asking for the same count gets the same pool, and cached
  /// pools stay alive for the process lifetime (idle workers park on a
  /// condition variable). Persistence is load-bearing: async jobs run
  /// *on* the pool and may hold its last reference, and a pool must
  /// never be destroyed by one of its own workers. Thread-safe.
  [[nodiscard]] static std::shared_ptr<EngineContext> shared(int num_threads);

 private:
  int num_threads_;
  ThreadPool pool_;
};

}  // namespace bgls
