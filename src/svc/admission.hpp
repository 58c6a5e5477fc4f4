// Overload-aware admission control for the rebalancing service.
//
// The controller keeps an EWMA of epoch clear time and compares it
// against the configured epoch deadline; the ratio (utilization) drives
// a monotone shed level that the service consults at intake and the
// server uses to scale its kRetryAfter hints:
//
//   level 0  u < 0.50   healthy — admit everything
//   level 1  u < 0.80   warming — admit everything, double retry hints
//   level 2  u < 1.00   hot     — shed NEW players (resubmissions from
//                                 already-pending players still land, so
//                                 a player can always refresh a bid the
//                                 epoch will take anyway)
//   level 3  u >= 1.00  saturated — shed every bid; the service is
//                                 degrading epochs and must drain
//
// An epoch that aborted (ladder exhausted) records the full deadline
// budget per rung it burned, so sustained overload saturates the EWMA
// even though no clear completed. All reads are lock-free atomics —
// submit() and the stats endpoint never contend with the clearing
// thread.
//
// With no deadline configured the controller is inert: record() is a
// no-op and the shed level is pinned at 0, preserving the legacy
// admit-everything behavior bit for bit.
#pragma once

#include <atomic>
#include <cstdint>

namespace musketeer::svc {

class AdmissionController {
 public:
  /// `deadline_seconds` <= 0 disables the controller. `alpha` is the
  /// EWMA smoothing factor (weight of the newest epoch), in (0, 1].
  AdmissionController(double alpha, double deadline_seconds)
      : alpha_(alpha), deadline_(deadline_seconds) {}

  bool enabled() const { return deadline_ > 0.0; }

  /// Folds one finished epoch's clear time into the EWMA and updates
  /// the shed level. Called from the clearing thread only (the EWMA
  /// itself is single-writer; the atomics publish to readers).
  void record(double clear_seconds) {
    if (!enabled()) return;
    // The first sample seeds the EWMA directly so warmup is not biased
    // toward the zero initial value.
    const double prev = ewma_seconds_.load(std::memory_order_relaxed);
    const double next =
        seeded_.load(std::memory_order_relaxed)
            ? alpha_ * clear_seconds + (1.0 - alpha_) * prev
            : clear_seconds;
    seeded_.store(true, std::memory_order_relaxed);
    ewma_seconds_.store(next, std::memory_order_relaxed);
    shed_level_.store(level_for(next), std::memory_order_relaxed);
  }

  /// Restores the EWMA from a recovered checkpoint so a restarted
  /// daemon resumes shedding at its pre-crash level instead of
  /// re-warming from zero. Called before the service starts clearing
  /// (single-writer, like record()).
  void seed(double ewma_seconds) {
    if (!enabled() || ewma_seconds <= 0.0) return;
    seeded_.store(true, std::memory_order_relaxed);
    ewma_seconds_.store(ewma_seconds, std::memory_order_relaxed);
    shed_level_.store(level_for(ewma_seconds), std::memory_order_relaxed);
  }

  /// Current shed level in [0, 3]; 0 when disabled.
  int shed_level() const { return shed_level_.load(std::memory_order_relaxed); }

  double ewma_seconds() const {
    return ewma_seconds_.load(std::memory_order_relaxed);
  }

  /// Scales a base retry-after hint by the shed level (doubling per
  /// level, so a saturated server tells clients to back off 8x).
  std::uint32_t scale_retry_after(std::uint32_t base_ms) const {
    const int level = shed_level();
    const std::uint64_t scaled = static_cast<std::uint64_t>(base_ms)
                                 << static_cast<unsigned>(level);
    return scaled > 0xFFFFFFFFull ? 0xFFFFFFFFu
                                  : static_cast<std::uint32_t>(scaled);
  }

 private:
  int level_for(double ewma_seconds) const {
    const double u = ewma_seconds / deadline_;
    if (u >= 1.0) return 3;
    if (u >= 0.8) return 2;
    if (u >= 0.5) return 1;
    return 0;
  }

  const double alpha_;
  const double deadline_;
  std::atomic<bool> seeded_{false};
  std::atomic<double> ewma_seconds_{0.0};
  std::atomic<int> shed_level_{0};
};

}  // namespace musketeer::svc
