#include "svc/executor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/assert.hpp"

namespace musketeer::svc {

using namespace std::chrono_literals;

ParallelExecutor::ParallelExecutor(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads_ = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back(
        [this](std::stop_token stop) { worker_loop(std::move(stop)); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  for (std::jthread& w : workers_) w.request_stop();
  {
    // Wake parked workers so they observe the stop request promptly
    // (their waits are bounded anyway, per the no-deadline-free-wait
    // rule, but there is no reason to make teardown wait a tick).
    util::OrderedLock lock(mutex_);
    wake_.notify_all();
  }
}

void ParallelExecutor::drain_batch() {
  // Lock-free claim loop: every index is handed out exactly once.
  const std::function<void(std::size_t)>* fn;
  std::size_t count;
  {
    util::OrderedLock lock(mutex_);
    fn = batch_fn_;
    count = batch_count_;
  }
  util::CancelToken* const cancel = cancel_.load(std::memory_order_relaxed);
  for (std::size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
       i < count; i = next_task_.fetch_add(1, std::memory_order_relaxed)) {
    if (cancel != nullptr && cancel->poll()) {
      // Deadline fast path: stop claiming — the indices this thread
      // would have run are skipped, and run() surfaces the cancellation
      // after the barrier. In-flight siblings unwind at their own
      // cancel points.
      util::OrderedLock lock(mutex_);
      if (!first_error_) {
        first_error_ = std::make_exception_ptr(util::SolveCancelled());
      }
      break;
    }
    try {
      (*fn)(i);
    } catch (...) {  // musk-lint: allow(bare-catch) -- run() rethrows it
      util::OrderedLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ParallelExecutor::worker_loop(std::stop_token stop) {
  std::uint64_t seen_generation = 0;
  while (!stop.stop_requested()) {
    {
      util::OrderedUniqueLock lock(mutex_);
      // Bounded wait (repo rule: every wait re-checks on a cadence).
      if (!wake_.wait_for(lock, stop, 100ms, [&] {
            return generation_ != seen_generation;
          })) {
        continue;
      }
      seen_generation = generation_;
    }
    drain_batch();
    {
      util::OrderedLock lock(mutex_);
      if (--inflight_ == 0) done_.notify_all();
    }
  }
}

void ParallelExecutor::run(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads_ == 1 || count == 1) {
    // Inline path: no locks, no cross-thread handoff. The cancel
    // check mirrors drain_batch's so "--threads 1" degrades under a
    // deadline exactly like the pool does.
    util::CancelToken* const cancel = cancel_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel != nullptr && cancel->poll()) throw util::SolveCancelled();
      fn(i);
    }
    return;
  }

  {
    util::OrderedLock lock(mutex_);
    MUSK_ASSERT_MSG(batch_fn_ == nullptr, "ParallelExecutor::run reentered");
    batch_fn_ = &fn;
    batch_count_ = count;
    first_error_ = nullptr;
    inflight_ = static_cast<int>(workers_.size());
    next_task_.store(0, std::memory_order_relaxed);
    ++generation_;
    wake_.notify_all();
  }

  // The submitting thread works the same claim cursor as the pool.
  drain_batch();

  std::exception_ptr error;
  {
    util::OrderedUniqueLock lock(mutex_);
    while (inflight_ != 0) {
      done_.wait_for(lock, 100ms, [&] { return inflight_ == 0; });
    }
    batch_fn_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace musketeer::svc
