// svc::ParallelExecutor: every index runs exactly once, a batch runs on
// more than one thread, a task's error and a fired cancel token surface
// only after the join, and no thread outlives a batch.
#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svc/executor.hpp"
#include "svc_test_util.hpp"
#include "util/deadline.hpp"

namespace musketeer::svc {
namespace {

using ThreadId = decltype(std::this_thread::get_id());

TEST(ParallelExecutorTest, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ParallelExecutor executor(threads);
    EXPECT_EQ(executor.concurrency(), threads);
    for (const std::size_t count : {0, 1, 2, 7, 64}) {
      std::vector<std::atomic<int>> runs(count);
      executor.run(count, [&runs](std::size_t i) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "threads " << threads << " count "
                                     << count << " index " << i;
      }
    }
  }
}

// Each task waits until a second task has started. On one thread the
// first task would wait out the whole limit; forked threads let the
// batch through at once.
TEST(ParallelExecutorTest, BatchRunsOnMoreThanOneThread) {
  constexpr std::size_t kTasks = 8;
  ParallelExecutor executor(4);
  std::vector<ThreadId> ran_on(kTasks);
  std::atomic<int> started{0};
  executor.run(kTasks, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    started.fetch_add(1);
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < limit) {
      std::this_thread::yield();
    }
  });
  const std::set<ThreadId> threads(ran_on.begin(), ran_on.end());
  EXPECT_GT(threads.size(), 1u);
}

// Task 0 throws at once while every other task takes a while: run()
// rethrows only after all of them finished.
TEST(ParallelExecutorTest, TaskErrorRethrownAfterEveryTaskFinished) {
  constexpr std::size_t kTasks = 16;
  ParallelExecutor executor(4);
  std::vector<std::atomic<int>> finished(kTasks);
  try {
    executor.run(kTasks, [&finished](std::size_t i) {
      if (i == 0) throw std::runtime_error("task 0 failed");
      ::poll(nullptr, 0, 2);
      finished[i].store(1);
    });
    ADD_FAILURE() << "run() returned although a task threw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 0 failed");
  }
  for (std::size_t i = 1; i < kTasks; ++i) {
    EXPECT_EQ(finished[i].load(), 1) << "task " << i;
  }
}

// The token fires on its third poll, and every claim polls it first:
// two tasks run, the other claims are skipped, and run() throws. A
// claim racing the firing may slip one more task in on a forked thread.
TEST(ParallelExecutorTest, FiredTokenSkipsUnclaimedIndices) {
  constexpr std::size_t kTasks = 64;
  for (const int threads : {1, 4}) {
    ParallelExecutor executor(threads);
    util::CancelToken token;
    token.trip_after(3);
    executor.set_cancel(&token);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        executor.run(kTasks, [&ran](std::size_t) { ran.fetch_add(1); }),
        util::SolveCancelled)
        << "threads " << threads;
    EXPECT_TRUE(token.cancelled());
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 2);
    } else {
      EXPECT_GE(ran.load(), 2);
      EXPECT_LT(ran.load(), static_cast<int>(kTasks));
    }

    // Detached, the next batch runs whole again.
    executor.set_cancel(nullptr);
    ran.store(0);
    executor.run(kTasks, [&ran](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), static_cast<int>(kTasks)) << "threads " << threads;
  }
}

// Threads exist only inside run(): none at construction, none left
// after a batch.
TEST(ParallelExecutorTest, NoThreadOutlivesABatch) {
  // ThreadSanitizer starts a helper thread of its own when the process
  // first creates one; let that happen before counting.
  std::jthread([] {}).join();
  const int before = testutil::thread_count();
  ParallelExecutor executor(4);
  EXPECT_TRUE(testutil::threads_settle_at_most(before));
  for (int batch = 0; batch < 3; ++batch) {
    std::atomic<int> ran{0};
    executor.run(32, [&ran](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 32);
    EXPECT_TRUE(testutil::threads_settle_at_most(before))
        << "batch " << batch << ": " << testutil::thread_count()
        << " threads, " << before << " before";
  }
}

}  // namespace
}  // namespace musketeer::svc
