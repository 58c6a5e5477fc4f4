#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "util/assert.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"

namespace musketeer::obs {

// --- Histogram ---------------------------------------------------------

/// One thread's bucket array. Counts are relaxed atomics so a snapshot
/// taken while the owning thread records stays a consistent
/// point-in-time approximation (and tsan-clean); the owning thread is
/// the only writer, so the fetch_adds never contend.
struct Histogram::Shard {
  std::array<std::atomic<std::uint64_t>, kTotalBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};

  void add(int bucket, double v) {
    buckets[static_cast<std::size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    // Single-writer accumulations: plain load + store is enough, the
    // atomics only make concurrent snapshot reads well-defined.
    sum.store(sum.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
    if (v < min.load(std::memory_order_relaxed)) {
      min.store(v, std::memory_order_relaxed);
    }
    if (v > max.load(std::memory_order_relaxed)) {
      max.store(v, std::memory_order_relaxed);
    }
  }
};

namespace {

/// Per-thread cache of histogram -> shard resolutions (type-erased:
/// Shard is private to Histogram). A plain vector (a handful of
/// histograms per process) scanned linearly; destroyed at thread exit
/// without touching any lock — the shards it points to are owned by
/// their Histograms and survive.
thread_local std::vector<std::pair<const void*, void*>> tl_shard_cache;

}  // namespace

Histogram::Histogram() = default;

Histogram::~Histogram() {
  // Drop this histogram's cache entries in the destroying thread only;
  // other threads' stale cache entries are tolerated because registry
  // histograms are never destroyed (see metrics.hpp). Local histograms
  // (tests, loadgen workers) must be recorded to and destroyed on
  // threads that outlive them, which all current users satisfy.
  std::erase_if(tl_shard_cache,
                [this](const auto& e) { return e.first == this; });
}

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // <= 0, NaN: underflow bucket
  // frexp leaves exp unspecified for infinities — route them to the
  // overflow bucket before it can produce a wild index.
  if (!std::isfinite(v)) return kTotalBuckets - 1;
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
  const int octave = exp - 1 - kMinExp;         // 2^kMinExp -> octave 0
  if (octave < 0) return 0;
  if (octave >= kOctaves) return kTotalBuckets - 1;  // overflow bucket
  // mantissa in [0.5, 1): linear sub-bucket within the octave.
  int sub = static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // fp guard
  return 1 + octave * kSubBuckets + sub;
}

double Histogram::bucket_lower_bound(int i) {
  MUSK_ASSERT(i >= 0 && i < kTotalBuckets);
  if (i == 0) return 0.0;
  if (i == kTotalBuckets - 1) {
    return std::ldexp(1.0, kMinExp + kOctaves);
  }
  const int octave = (i - 1) / kSubBuckets;
  const int sub = (i - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    kMinExp + octave - 1) *
         2.0;
}

double Histogram::bucket_upper_bound(int i) {
  MUSK_ASSERT(i >= 0 && i < kTotalBuckets);
  if (i == kTotalBuckets - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower_bound(i + 1);
}

Histogram::Shard* Histogram::local_shard() {
  for (const auto& [hist, shard] : tl_shard_cache) {
    if (hist == this) return static_cast<Shard*>(shard);
  }
  auto owned = std::make_unique<Shard>();
  Shard* shard = owned.get();
  {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    shards_.push_back(std::move(owned));
  }
  tl_shard_cache.emplace_back(this, shard);
  return shard;
}

void Histogram::record(double v) { local_shard()->add(bucket_index(v), v); }

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kTotalBuckets, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  for (const auto& shard : shards_) {
    for (int i = 0; i < kTotalBuckets; ++i) {
      snap.buckets[static_cast<std::size_t>(i)] +=
          shard->buckets[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
    }
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    min = std::min(min, shard->min.load(std::memory_order_relaxed));
    max = std::max(max, shard->max.load(std::memory_order_relaxed));
  }
  if (snap.count > 0) {
    snap.min = min;
    snap.max = max;
  }
  return snap;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (buckets.empty()) buckets.assign(Histogram::kTotalBuckets, 0);
  MUSK_ASSERT(other.buckets.empty() || other.buckets.size() == buckets.size());
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  if (other.count > 0) {
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::quantile(double q) const {
  MUSK_ASSERT(q >= 0.0 && q <= 1.0);
  if (count == 0) return 0.0;
  // Rank of the q-th sample (1-based, nearest-rank).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      const double lo = Histogram::bucket_lower_bound(static_cast<int>(i));
      double hi = Histogram::bucket_upper_bound(static_cast<int>(i));
      if (!std::isfinite(hi)) hi = max;  // overflow bucket: clamp to max
      // Linear interpolation by rank within the bucket.
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(buckets[i]);
      const double v = lo + (hi - lo) * frac;
      // The exact extremes are tracked; never report outside them.
      return std::min(std::max(v, min), max);
    }
    seen += buckets[i];
  }
  return max;
}

// --- Registry ----------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  const util::OrderedLock lock(mutex_);
  Entry& entry = entries_[name];
  MUSK_ASSERT_MSG(!entry.gauge && !entry.histogram,
                  "metric registered as two different kinds");
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  const util::OrderedLock lock(mutex_);
  Entry& entry = entries_[name];
  MUSK_ASSERT_MSG(!entry.counter && !entry.histogram,
                  "metric registered as two different kinds");
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  const util::OrderedLock lock(mutex_);
  Entry& entry = entries_[name];
  MUSK_ASSERT_MSG(!entry.counter && !entry.gauge,
                  "metric registered as two different kinds");
  if (!entry.histogram) entry.histogram = std::make_unique<Histogram>();
  return *entry.histogram;
}

namespace {

/// %.17g round-trips every double (same convention as sim/metrics_io).
std::string num(double v) { return util::format("%.17g", v); }

}  // namespace

std::string Registry::to_json() const {
  const util::OrderedLock lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter) {
      if (!counters.empty()) counters += ", ";
      counters += '"' + util::json_escape(name) +
                  "\": " + std::to_string(entry.counter->value());
    } else if (entry.gauge) {
      if (!gauges.empty()) gauges += ", ";
      gauges += '"' + util::json_escape(name) +
                "\": " + num(entry.gauge->value());
    } else if (entry.histogram) {
      const HistogramSnapshot snap = entry.histogram->snapshot();
      if (!histograms.empty()) histograms += ", ";
      histograms += '"' + util::json_escape(name) + '"';
      histograms += util::format(
          ": {\"count\": %llu, \"sum\": %s, \"min\": %s, \"max\": %s, "
          "\"mean\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s}",
          static_cast<unsigned long long>(snap.count), num(snap.sum).c_str(),
          num(snap.min).c_str(), num(snap.max).c_str(),
          num(snap.mean()).c_str(), num(snap.quantile(0.5)).c_str(),
          num(snap.quantile(0.9)).c_str(), num(snap.quantile(0.99)).c_str());
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

Registry& registry() {
  // Leaked on purpose: instruments (and their cached references in hot
  // paths) must outlive every thread, including static destructors.
  static Registry* const instance = new Registry();
  return *instance;
}

}  // namespace musketeer::obs
