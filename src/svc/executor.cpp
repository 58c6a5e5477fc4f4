#include "svc/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace musketeer::svc {

namespace {

int resolve_threads(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(1, threads);
}

}  // namespace

ParallelExecutor::ParallelExecutor(int threads)
    : threads_(resolve_threads(threads)) {}

void ParallelExecutor::run(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  util::CancelToken* const cancel = cancel_;
  if (threads_ == 1 || count <= 1) {
    // Inline path: no threads. The cancel check mirrors the claim
    // loop's below, so "--threads 1" degrades under a deadline exactly
    // like a forked batch does.
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel != nullptr && cancel->poll()) throw util::SolveCancelled();
      fn(i);
    }
    return;
  }

  const std::size_t width =
      std::min(static_cast<std::size_t>(threads_), count);
  std::atomic<std::size_t> next{0};
  // errors[k] is written only by thread k, and read after the join.
  std::vector<std::exception_ptr> errors(width);
  const auto drain = [&](std::size_t k) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (cancel != nullptr && cancel->poll()) {
        // Deadline fast path: stop claiming. The indices this thread
        // would have run are skipped; in-flight siblings unwind at
        // their own cancel points.
        if (!errors[k]) {
          errors[k] = std::make_exception_ptr(util::SolveCancelled());
        }
        return;
      }
      try {
        fn(i);
      } catch (...) {  // musk-lint: allow(bare-catch) -- run() rethrows it
        if (!errors[k]) errors[k] = std::current_exception();
      }
    }
  };
  {
    // Declared after `next` and `errors`, so even an exception while
    // forking joins every started thread before they go away.
    std::vector<std::jthread> forked;
    forked.reserve(width - 1);
    for (std::size_t k = 1; k < width; ++k) forked.emplace_back(drain, k);
    drain(0);
  }  // the join
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace musketeer::svc
