// Cooperative cancellation for the flow solvers.
//
// An epoch that runs long must be stoppable without corrupting the pooled
// solver state, so every solver loop in src/flow checks a shared
// CancelToken at its iteration boundaries via MUSK_CANCEL_POINT. The
// token is "cheap by default": a null token costs one branch, an armed
// token one relaxed atomic load plus (when a deadline is set) a
// steady-clock read per iteration — each iteration already rebuilds an
// O(m) residual network, so the check is noise (bench/deadline_overhead
// gates it at < 1.03x solver ns/op).
//
// Only poll() fires a token: the first poll past the deadline (or past a
// test's trip_after count) latches the shared flag, and every other
// in-flight component task sharing the token observes it at its next
// cancel point and unwinds with SolveCancelled. Firing is one-way and
// lock-free. arm() re-arms the token for the next epoch and must only be
// called while no solve is in flight.
//
// This header is the sanctioned home for cancellation-deadline clock
// reads, alongside obs::Timer for measurement — musk_lint's adhoc-timing
// and solver-timing rules ban steady_clock anywhere else in src/ and ban
// hand-rolled timeout loops in src/flow entirely (DESIGN.md §14).
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace musketeer::util {

/// Thrown by MUSK_CANCEL_POINT when the governing token has fired.
/// Solvers let it propagate: every cancel point sits at an iteration
/// boundary, so the workspace holds no half-applied push when it throws.
class SolveCancelled : public std::runtime_error {
 public:
  SolveCancelled() : std::runtime_error("solve cancelled") {}
};

/// A steady-clock expiry point, or "never". Value type; comparison with
/// now() happens in expired().
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() = default;

  /// Expires `budget` from now; a non-positive budget is already expired
  /// (every cancel point fires immediately — used by tests).
  static Deadline after(std::chrono::milliseconds budget) {
    Deadline d;
    d.armed_ = true;
    d.at_ = Clock::now() + budget;
    return d;
  }

  static Deadline never() { return {}; }

  bool armed() const { return armed_; }

  bool expired() const { return armed_ && Clock::now() >= at_; }

 private:
  bool armed_ = false;
  Clock::time_point at_{};
};

/// Shared cancellation state for one solve (or one epoch's worth of
/// component solves). poll() is what MUSK_CANCEL_POINT calls: it latches
/// deadline expiry into the atomic flag, so after the first expired poll
/// every other thread sees the cancellation from the flag alone.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  /// Re-arms for a fresh solve: clears the flag and installs `deadline`.
  /// Caller contract: no solve may be polling this token concurrently
  /// (the deadline fields are deliberately plain — only the flag is
  /// shared with in-flight solvers).
  void arm(Deadline deadline) {
    deadline_ = deadline;
    trip_countdown_.store(-1, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Test hook: fire on the nth poll (n >= 1) regardless of the
  /// deadline, so cancellation tests hit deterministic iteration
  /// boundaries instead of racing a clock.
  void trip_after(long long polls) {
    trip_countdown_.store(polls, std::memory_order_relaxed);
  }

  /// One cancellation check; true once the token has fired.
  bool poll() {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (trip_countdown_.load(std::memory_order_relaxed) >= 0 &&
        trip_countdown_.fetch_sub(1, std::memory_order_relaxed) <= 1) {
      cancel();
      return true;
    }
    if (deadline_.expired()) {
      cancel();
      return true;
    }
    return false;
  }

 private:
  /// Latches the flag; idempotent.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  std::atomic<bool> cancelled_{false};
  /// -1 = inert; otherwise polls remaining until a forced trip.
  std::atomic<long long> trip_countdown_{-1};
  Deadline deadline_{};
};

}  // namespace musketeer::util

/// The solver-side cancellation check. `token` is a util::CancelToken*
/// and may be null (the common, overhead-free case). Placed only at
/// iteration boundaries — after a full cycle cancellation / pivot /
/// peel — so unwinding never leaves scratch half-written.
#define MUSK_CANCEL_POINT(token)                                     \
  do {                                                               \
    ::musketeer::util::CancelToken* musk_cancel_tok_ = (token);      \
    if (musk_cancel_tok_ != nullptr && musk_cancel_tok_->poll()) {   \
      throw ::musketeer::util::SolveCancelled();                     \
    }                                                                \
  } while (0)
