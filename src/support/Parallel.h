//===- support/Parallel.h - Pooled task fan-out -----------------*- C++ -*-===//
///
/// \file
/// parallelFor: run N independent tasks on up to J workers. Workers come
/// from one lazily created process-wide thread pool (sized to the
/// hardware), so a fan-out costs a queue push instead of J thread
/// creations — small-module compiles and the 4-job compile-scaling gate
/// in bench/bench_gates.cpp no longer pay thread start-up per call. The
/// calling thread participates in its own fan-out, which both uses the
/// blocked caller's core and guarantees progress even when every pool
/// thread is busy with other fan-outs (the compile-service daemon issues
/// concurrent ones).
///
/// Tasks must be independent and must not assume which thread runs them.
/// Every parallel task runs under stats::ThreadBaselineScope: stats
/// collection, tally routing, and phase timing are at their fresh-thread
/// defaults (off), whether the task lands on a pool thread or on the
/// participating caller — spawned tasks do not contribute to the
/// spawning thread's counters (stats/Stats.h).
///
/// A parallelFor issued from inside a pool task runs its tasks inline on
/// that thread: nested fan-outs cannot deadlock waiting for pool
/// capacity they themselves occupy.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SUPPORT_PARALLEL_H
#define S1LISP_SUPPORT_PARALLEL_H

#include "stats/Stats.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

namespace s1lisp {
namespace support {

namespace detail {

/// Shared state of one parallelFor fan-out. Every runner (pool helpers
/// and the caller) invokes Run, which pulls task indices from Next until
/// they run out; the caller then blocks until the last helper has
/// retired. Run is built inside the parallelFor template so the pool's
/// own translation unit (layered below stats) never references stats
/// symbols.
struct ForState {
  std::function<void()> Run;
  size_t NumTasks = 0;
  std::atomic<size_t> Next{0};

  std::mutex Mu;
  std::condition_variable AllDone;
  size_t OutstandingHelpers = 0;
};

/// Enqueues \p Helpers runner entries for \p St on the shared pool
/// (creating the pool's threads on first use).
void dispatchHelpers(std::shared_ptr<ForState> St, size_t Helpers);

/// Blocks until every helper dispatched for \p St has retired. Helpers
/// that dequeue after the caller drained the queue retire immediately.
void waitHelpers(ForState &St);

/// True on a pool thread (nested fan-outs run inline there).
bool onPoolThread();

} // namespace detail

/// Invokes Fn(I) for every I in [0, NumTasks), on the calling thread when
/// Jobs <= 1 (or there is at most one task), otherwise on up to Jobs
/// workers: the caller plus min(Jobs, NumTasks) - 1 pool helpers. Returns
/// after every task has completed. Exceptions must not escape Fn.
template <typename FnT>
void parallelFor(size_t NumTasks, unsigned Jobs, FnT Fn) {
  if (Jobs <= 1 || NumTasks <= 1 || detail::onPoolThread()) {
    for (size_t I = 0; I < NumTasks; ++I)
      Fn(I);
    return;
  }
  auto St = std::make_shared<detail::ForState>();
  St->NumTasks = NumTasks;
  // Fn by reference: the caller joins every helper before returning, so
  // Fn outlives every Run invocation.
  detail::ForState *S = St.get();
  St->Run = [&Fn, S] {
    stats::ThreadBaselineScope Baseline;
    for (size_t I = S->Next.fetch_add(1); I < S->NumTasks;
         I = S->Next.fetch_add(1))
      Fn(I);
  };
  detail::dispatchHelpers(St, std::min<size_t>(Jobs, NumTasks) - 1);
  St->Run();
  detail::waitHelpers(*St);
}

} // namespace support
} // namespace s1lisp

#endif // S1LISP_SUPPORT_PARALLEL_H
