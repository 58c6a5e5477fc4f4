// svc::ParallelExecutor — the repo's one thread pool.
//
// Implements the flow::Executor seam with a fixed pool of workers parked
// on an OrderedCondVar at LockRank::kExecutor. run(count, fn) fans the
// task indices out across the pool and the calling thread, blocks until
// every fn(i) has returned, and rethrows the first task exception after
// the barrier. Design points:
//
//   * The executor lock guards only dispatch bookkeeping (the pending
//     batch, the remaining-task counter, generation). It is NEVER held
//     while a task body runs, so tasks may freely acquire lower-ranked
//     locks (kFaultRegistry, kObsRegistry) — and, because the epoch
//     pipeline calls run() with kService(90) held, kExecutor ranks at 15,
//     below every service-layer lock.
//   * Work-stealing by atomic cursor: tasks are claimed one index at a
//     time from a shared atomic counter, so a worker stuck on the
//     largest component never serializes the small ones behind it. The
//     caller's thread participates too — threads == 1 degenerates to a
//     plain inline loop with no locking at all.
//   * Determinism lives in the CALLER, not here: task execution order is
//     unspecified, so callers must write results into disjoint,
//     index-addressed slots and merge in index order (SolveContext and
//     M2Vcg both do). The executor adds no ordering of its own.
//
// This class is the only place in the tree allowed to construct raw
// threads (std::jthread); musk_lint's `raw-thread` rule enforces the
// seam everywhere else.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "flow/executor.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace musketeer::svc {

class ParallelExecutor final : public flow::Executor {
 public:
  /// `threads` is the total concurrency including the calling thread;
  /// 0 selects std::thread::hardware_concurrency() (min 1). A pool of
  /// threads - 1 workers is spawned eagerly and parked until run().
  explicit ParallelExecutor(int threads = 0);
  ~ParallelExecutor() override;

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  int concurrency() const override { return threads_; }

  /// Runs fn(0) .. fn(count-1), each exactly once, across the pool and
  /// the calling thread; returns after all complete. Not reentrant and
  /// not thread-safe: one run() at a time, from one submitting thread
  /// (the epoch pipeline's). The first exception a task throws is
  /// rethrown here after the barrier.
  ///
  /// With a cancel token attached (set_cancel) the exactly-once promise
  /// weakens to at-most-once: once the token fires, indices nobody has
  /// claimed yet are skipped and run() throws util::SolveCancelled after
  /// the barrier — the deadline path's fast unwind. Callers treat a
  /// throwing run() as producing no results at all.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn)
      override;

  /// Propagates the epoch's cancel token to the claim loops (atomic;
  /// callable between run()s from the epoch thread, and read by workers
  /// mid-batch). Only the token's own poll() fires it.
  void set_cancel(util::CancelToken* token) override {
    cancel_.store(token, std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::stop_token stop);
  /// Claims and runs batch tasks until the cursor is exhausted.
  void drain_batch();

  int threads_ = 1;

  util::OrderedMutex mutex_{util::LockRank::kExecutor, "executor"};
  util::OrderedCondVar wake_;       ///< workers wait for a new generation
  util::OrderedCondVar done_;       ///< submitter waits for inflight == 0
  std::uint64_t generation_ MUSK_GUARDED_BY(mutex_) = 0;
  std::size_t batch_count_ MUSK_GUARDED_BY(mutex_) = 0;
  const std::function<void(std::size_t)>* batch_fn_ MUSK_GUARDED_BY(mutex_) =
      nullptr;
  /// Workers that still owe a drain_batch() pass for this generation.
  int inflight_ MUSK_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ MUSK_GUARDED_BY(mutex_);
  /// Shared claim cursor — atomic so claiming needs no lock.
  std::atomic<std::size_t> next_task_{0};
  /// Cancel token consulted before each claim (null = never cancel).
  std::atomic<util::CancelToken*> cancel_{nullptr};

  std::vector<std::jthread> workers_;
};

}  // namespace musketeer::svc
