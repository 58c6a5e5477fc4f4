// Ranked mutex + condition variable: the runtime half of the repo's
// compile-time race protection (util/thread_annotations.hpp is the
// static half).
//
// Every cross-thread mutex in the tree is an OrderedMutex carrying a
// static LockRank from the single documented hierarchy below. Locks on
// one thread must be acquired in strictly *decreasing* rank order; under
// -DMUSKETEER_LOCK_RANK (the asan-ubsan/tsan/chaos presets) a
// thread-local held-rank stack checks every acquisition and aborts on
// any inversion, printing the mutex names, ranks, and *both* acquisition
// sites. Acquiring two locks of the same rank is an inversion too — if
// two peers must ever nest, give them distinct ranks and document the
// order. Without the definition the wrapper is a bare std::mutex: no
// branch, no thread-local, nothing for the optimizer to keep
// (bench/svc_throughput measures the claim and asserts it).
//
// The lock hierarchy (highest rank = acquired first; see DESIGN.md §11
// for the full table and how to add a new lock):
//
//   kService(90)   > RebalanceService epoch pipeline (clear_mutex_)
//   kServer(80)    > SocketServer connection list and outboxes
//   kScheduler(60) > RebalanceService periodic-scheduler wait
//   kNetwork(50)   > the live pcn::Network
//   kJournal(40)   > epoch journal appends
//   kReports(30)   > completed-epoch reports + wait_epochs
//   kBidQueue(20)  > bid intake
//   kFaultRegistry(10) > util::fault schedule (hooks fire under
//                        everything above, so it must rank low)
//   kObsRegistry(5)    > obs metrics registry (instruments may be
//                        registered from any context — even fault hooks
//                        count events — so it ranks below everything)
//
// Note the discovered order Service > Server: epoch broadcast runs on
// the clearing thread with the epoch lock held and then walks the
// connection list — the naive "network-facing layers rank above the
// service" guess is exactly the inversion this auditor exists to catch.
#pragma once

#include <condition_variable>
#include <mutex>
#include <source_location>
#include <thread>

#include "util/thread_annotations.hpp"

namespace musketeer::util {

/// Static lock ranks, gapped so a new lock slots in without renumbering.
enum class LockRank : int {
  kService = 90,
  kServer = 80,
  kScheduler = 60,
  kNetwork = 50,
  kJournal = 40,
  kReports = 30,
  kBidQueue = 20,
  kFaultRegistry = 10,
  kObsRegistry = 5,
};

class OrderedMutex;

namespace lock_rank {

/// True when the build carries the rank auditor (-DMUSKETEER_LOCK_RANK).
bool compiled_in();

// Auditor internals (called by OrderedMutex under MUSKETEER_LOCK_RANK).
// check_acquire aborts with both acquisition sites on a rank inversion,
// then pushes the lock; on_release pops it (any held position — a
// unique-lock may release out of LIFO order, which is legal).
void check_acquire(const OrderedMutex& mutex, std::source_location site);
void on_release(const OrderedMutex& mutex);
bool holds(const OrderedMutex& mutex);

/// Locks currently held by the calling thread.
int held_depth();

/// Deepest simultaneous hold this thread ever reached (tests use it to
/// prove a clean epoch actually nested its locks). 0 when not compiled in.
int thread_peak_depth();

}  // namespace lock_rank

/// A std::mutex carrying a static rank and a name for diagnostics.
/// Lock through OrderedLock / OrderedUniqueLock; the raw lock()/unlock()
/// surface exists for them and for condition-variable reacquisition.
class MUSK_CAPABILITY("mutex") OrderedMutex {
 public:
  OrderedMutex(LockRank rank, const char* name) noexcept
      : rank_(rank), name_(name) {}

  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock(std::source_location site = std::source_location::current())
      MUSK_ACQUIRE() {
#if defined(MUSKETEER_LOCK_RANK)
    // Check + record *before* blocking: if the inversion would deadlock,
    // we abort with the diagnosis instead of hanging.
    lock_rank::check_acquire(*this, site);
#else
    static_cast<void>(site);
#endif
    mutex_.lock();
  }

  void unlock() MUSK_RELEASE() {
    mutex_.unlock();
#if defined(MUSKETEER_LOCK_RANK)
    lock_rank::on_release(*this);
#endif
  }

  /// Runtime counterpart of MUSK_REQUIRES: aborts (under
  /// -DMUSKETEER_LOCK_RANK) when the calling thread does not hold this
  /// mutex. _locked helpers call it so a lock contract broken through a
  /// path the static analysis cannot see still dies loudly.
  void assert_held(
      std::source_location site = std::source_location::current()) const
      MUSK_ASSERT_CAPABILITY(this);

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mutex_;
  const LockRank rank_;
  const char* const name_;
};

/// std::lock_guard over an OrderedMutex (scoped, non-movable).
class MUSK_SCOPED_CAPABILITY OrderedLock {
 public:
  explicit OrderedLock(
      OrderedMutex& mutex,
      std::source_location site = std::source_location::current())
      MUSK_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(site);
  }

  ~OrderedLock() MUSK_RELEASE() { mutex_.unlock(); }

  OrderedLock(const OrderedLock&) = delete;
  OrderedLock& operator=(const OrderedLock&) = delete;

 private:
  OrderedMutex& mutex_;
};

/// std::unique_lock over an OrderedMutex: relockable, so OrderedCondVar
/// can release it around a wait and a scheduler can drop it across an
/// epoch. Satisfies BasicLockable for condition_variable_any.
class MUSK_SCOPED_CAPABILITY OrderedUniqueLock {
 public:
  explicit OrderedUniqueLock(
      OrderedMutex& mutex,
      std::source_location site = std::source_location::current())
      MUSK_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(site);
    owns_ = true;
  }

  // The analysis cannot prove the conditional release in the body, but
  // the runtime invariant is simple: every wait/unlock path re-acquires
  // before scope exit or leaves owns_ false.
  ~OrderedUniqueLock() MUSK_RELEASE() MUSK_NO_THREAD_SAFETY_ANALYSIS {
    if (owns_) mutex_.unlock();
  }

  void lock(std::source_location site = std::source_location::current())
      MUSK_ACQUIRE() {
    mutex_.lock(site);
    owns_ = true;
  }

  void unlock() MUSK_RELEASE() {
    owns_ = false;
    mutex_.unlock();
  }

  bool owns_lock() const { return owns_; }

  OrderedUniqueLock(const OrderedUniqueLock&) = delete;
  OrderedUniqueLock& operator=(const OrderedUniqueLock&) = delete;

 private:
  OrderedMutex& mutex_;
  bool owns_ = false;
};

/// condition_variable_any over OrderedUniqueLock. Waits release the
/// ranked lock and re-acquire it through the audited lock() path, so a
/// wait that would re-acquire out of rank order is caught like any other
/// acquisition. Deadline-free wait() is deliberately absent (the repo
/// lint bans it — every wait must re-check its exit condition on a
/// bounded cadence).
class OrderedCondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(OrderedUniqueLock& lock,
                const std::chrono::duration<Rep, Period>& timeout,
                Predicate predicate) {
    return cv_.wait_for(lock, timeout, std::move(predicate));
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(OrderedUniqueLock& lock, std::stop_token stop,
                const std::chrono::duration<Rep, Period>& timeout,
                Predicate predicate) {
    return cv_.wait_for(lock, std::move(stop), timeout,
                        std::move(predicate));
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace musketeer::util
