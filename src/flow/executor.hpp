// The flow layer's task-execution seam.
//
// SolveContext's component solve and the mechanisms above it fan
// independent per-component work out through this interface instead of
// spawning threads themselves (musk_lint's raw-thread rule enforces
// that). The production implementation is svc::ParallelExecutor — a
// fixed, rank-locked worker pool — but the seam lives here so flow/
// core/sim can be shard-aware without depending on the service layer.
//
// Semantics of run(count, fn):
//   * fn(i) is invoked exactly once for every i in [0, count), on the
//     calling thread and/or worker threads, in unspecified order;
//   * run() returns only after every invocation has finished (a
//     barrier), so callers may merge results immediately — merging in
//     index order is what keeps sharded solves deterministic;
//   * tasks must be disjoint: fn(i) may not touch state fn(j) touches.
//     The executor provides the barrier's synchronizes-with edges, so
//     disjoint tasks need no locks of their own;
//   * concurrency() == 1 means fn runs inline on the caller, one task
//     after another. Callers partition the same way at any concurrency.
#pragma once

#include <cstddef>
#include <functional>

#include "util/deadline.hpp"

namespace musketeer::flow {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Maximum tasks that may run at once (>= 1). A return of 1 promises
  /// strictly inline, sequential execution.
  virtual int concurrency() const = 0;

  /// Runs fn(0..count-1) to completion (see the header comment for the
  /// full contract). If any task throws, one of the exceptions is
  /// rethrown on the caller after all tasks finished.
  virtual void run(std::size_t count,
                   const std::function<void(std::size_t)>& fn) = 0;

  /// Attaches a cancellation token (borrowed; nullptr detaches). Once
  /// the token fires, an implementation MAY skip tasks that have not
  /// started yet — run() then throws util::SolveCancelled after the
  /// barrier instead of completing the batch. In-flight tasks are never
  /// interrupted by the executor itself; they observe the same token at
  /// their own MUSK_CANCEL_POINTs. The default keeps the legacy
  /// run-everything behavior (inline/serial executors rely on the task
  /// bodies' own cancel points).
  virtual void set_cancel(util::CancelToken* /*token*/) {}
};

/// Inline executor: runs every task sequentially on the caller. A
/// SolveContext with no attached executor solves through one.
class SerialExecutor final : public Executor {
 public:
  int concurrency() const override { return 1; }

  void run(std::size_t count,
           const std::function<void(std::size_t)>& fn) override {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
};

}  // namespace musketeer::flow
