// svc::ParallelExecutor — the flow::Executor that runs a batch across
// threads, fork-join.
//
// run(count, fn) with count > 1 and threads > 1 starts
// min(threads, count) - 1 std::jthreads, works the batch on the calling
// thread beside them, and joins them all before it returns. No thread
// outlives a batch: between batches the executor owns no thread, no
// lock and no condition variable. Design points:
//
//   * Work-stealing by atomic cursor: tasks are claimed one index at a
//     time from a shared atomic counter, so a slow task never serializes
//     the others behind it. threads == 1 (or a one-task batch, which
//     every SolveContext::solve is) degenerates to a plain inline loop
//     on the caller.
//   * Each thread records the first error its tasks throw in its own
//     slot, so no lock guards the errors; run() rethrows one after the
//     join.
//   * Determinism lives in the CALLER, not here: task execution order is
//     unspecified, so callers must write results into disjoint,
//     index-addressed slots (M2Vcg writes each price to its buyer's).
//     The executor adds no ordering of its own.
//   * Every batch runs on fresh threads. Thread-local observability
//     state (a histogram's per-thread shard, a trace ring) lives as long
//     as the process, so a task that records a histogram or emits a
//     span would leave one behind per batch. M2's exclusion tasks only
//     bump counters.
//
// This class is the only place in src/ allowed to use std::thread
// (hardware_concurrency); musk_lint's `raw-thread` rule enforces the
// seam everywhere else.
#pragma once

#include <cstddef>
#include <functional>

#include "flow/executor.hpp"

namespace musketeer::svc {

class ParallelExecutor final : public flow::Executor {
 public:
  /// `threads` is the total concurrency including the calling thread;
  /// 0 selects std::thread::hardware_concurrency() (min 1). No thread
  /// starts before a batch needs it.
  explicit ParallelExecutor(int threads = 0);

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  int concurrency() const override { return threads_; }

  /// Runs fn(0) .. fn(count-1), each exactly once, across forked
  /// threads and the calling thread; returns after all complete and
  /// every forked thread has been joined. One run() at a time per
  /// executor, from the thread that set the cancel token. An exception
  /// a task throws is rethrown here after the join.
  ///
  /// With a cancel token attached (set_cancel) the exactly-once promise
  /// weakens to at-most-once: once the token fires, indices nobody has
  /// claimed yet are skipped and run() throws util::SolveCancelled after
  /// the join — the deadline path's fast unwind. Callers treat a
  /// throwing run() as producing no results at all.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn)
      override;

  /// Sets the cancel token the claim loops poll (borrowed; nullptr
  /// detaches). Called between run()s by the thread that runs them; a
  /// batch's threads read it only after they are forked. Only the
  /// token's own poll() fires it.
  void set_cancel(util::CancelToken* token) override { cancel_ = token; }

 private:
  const int threads_;
  util::CancelToken* cancel_ = nullptr;  ///< borrowed
};

}  // namespace musketeer::svc
