// Metrics half of the observability subsystem (src/obs): lock-free
// Counter / Gauge instruments, a fixed-bucket log-scale Histogram with
// mergeable per-thread shards, and a process-global Registry exporting
// everything as JSON (the stats frame's registry_json).
//
// Design rules:
//
//   * Recording is wait-free after first touch. Counter/Gauge are single
//     relaxed atomics; Histogram::record() is one relaxed fetch_add on a
//     per-thread shard bucket (plus relaxed CAS loops for min/max). The
//     only locks are on the cold paths: instrument registration (the
//     Registry's ranked mutex, rank kObsRegistry — below everything in
//     the hierarchy, so a metric may be recorded or registered while
//     holding any other lock) and shard creation (once per
//     thread x histogram).
//   * Instruments are never destroyed while their Registry lives, so a
//     cached `Counter&` stays valid forever; hot paths look a metric up
//     once (see the MUSK_OBS_* macros in obs/obs.hpp) and then pay only
//     the atomic op.
//   * Shards are owned by the Histogram, not the recording thread: a
//     worker that exits leaves its counts behind, so a drain after the
//     workers joined still sees every sample.
//   * Hot paths record through the instrumentation macros
//     (obs/obs.hpp). Code that uses a Histogram as a data structure
//     (musk_loadgen's percentiles) calls it directly.
//
// Histogram buckets are base-2 log-scale with kSubBuckets linear
// sub-buckets per octave: relative quantile error is bounded by
// 1/kSubBuckets (~3%), like HdrHistogram at low precision. Two
// histograms fed the same multiset of samples — in any order, from any
// thread split — report bit-identical quantiles, which is what makes
// percentile reports reproducible across runs and mergeable across
// worker threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace musketeer::obs {

/// Monotonic event counter. Relaxed atomics: totals are exact, but a
/// snapshot taken mid-traffic is a point-in-time approximation.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged, immutable view of a histogram (or several — see merge()).
/// quantile() interpolates linearly inside the containing bucket and
/// clamps to the exact observed [min, max], so p0/p100 are exact and
/// interior quantiles carry at most one sub-bucket of relative error.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact smallest sample (0 when count == 0)
  double max = 0.0;  ///< exact largest sample (0 when count == 0)
  std::vector<std::uint64_t> buckets;  ///< kTotalBuckets entries

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  double quantile(double q) const;

  /// Accumulates another snapshot (same bucket layout by construction).
  void merge(const HistogramSnapshot& other);
};

/// Fixed-layout log-scale histogram. record() is thread-safe and
/// wait-free after the calling thread's shard exists.
class Histogram {
 public:
  /// Sub-buckets per power of two; bounds the relative quantile error.
  static constexpr int kSubBuckets = 32;
  /// Smallest finite bucket boundary is 2^kMinExp (~9.3e-10): below it
  /// (and for v <= 0 / NaN) samples land in the underflow bucket 0.
  static constexpr int kMinExp = -30;
  /// Octaves covered; 2^(kMinExp + kOctaves) = 2^34 ~ 1.7e10 tops out
  /// the finite range, above which samples land in the overflow bucket.
  static constexpr int kOctaves = 64;
  static constexpr int kTotalBuckets = kOctaves * kSubBuckets + 2;

  Histogram();
  ~Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one sample into the calling thread's shard.
  void record(double v);

  /// Merged view across every shard ever created (including shards of
  /// threads that have exited).
  HistogramSnapshot snapshot() const;

  /// Bucket index a value lands in (exposed for tests).
  static int bucket_index(double v);
  /// Inclusive lower bound of bucket `i` (0 for the underflow bucket).
  static double bucket_lower_bound(int i);
  /// Exclusive upper bound of bucket `i` (+inf for the overflow bucket).
  static double bucket_upper_bound(int i);

 private:
  struct Shard;
  Shard* local_shard();

  // Shard list; locked only on shard creation and snapshot. A plain
  // std::mutex (not an OrderedMutex) on purpose: shard lookup can run
  // during thread-local teardown, after the lock-rank auditor's own
  // thread_local stack may already be destroyed, so it must not touch
  // the rank machinery. It is a leaf lock: nothing is acquired under it.
  mutable std::mutex shards_mutex_;  // musk-lint: allow(unranked-mutex)
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Name -> instrument registry. Metric names are dot-separated
/// lowercase identifiers ("svc.epoch.solve_seconds"). Labels, when
/// needed, are encoded into the name: `name{key="value"}`.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the named instrument, creating it on first use. The
  /// returned reference lives as long as the Registry. Registering one
  /// name as two different instrument kinds aborts.
  Counter& counter(const std::string& name) MUSK_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) MUSK_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name) MUSK_EXCLUDES(mutex_);

  /// Deterministic (name-sorted) JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// min,max,mean,p50,p90,p99}}}.
  std::string to_json() const MUSK_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Rank kObsRegistry sits below every other lock in the hierarchy,
  /// so instruments can be registered from any context, including under
  /// the service's epoch lock.
  mutable util::OrderedMutex mutex_{util::LockRank::kObsRegistry,
                                    "obs.registry"};
  std::map<std::string, Entry> entries_ MUSK_GUARDED_BY(mutex_);
};

/// The process-global default registry (what the MUSK_OBS_* macros and
/// the kStatsRequest endpoint use). Never destroyed.
Registry& registry();

}  // namespace musketeer::obs
