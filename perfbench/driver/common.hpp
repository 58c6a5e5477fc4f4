// Shared pieces of the clearing-path benchmark: command-line options,
// the result record every workload fills, sample statistics, and the
// per-epoch conservation gates.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pcn/network.hpp"

namespace perfbench {

using namespace musketeer;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring time of one run.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the traced per-layer pass.
  bool trace = false;
  /// Short mode when > 0: exactly this many steady epochs, one pass,
  /// one set-up (the benchmark's own tests use it).
  int epochs = 0;
  /// Where journals and the Chrome trace go.
  std::string out_dir = ".bench_build/out";
  /// Optional JSON file receiving the deterministic detail (digests and
  /// counts) the benchmark's tests compare across runs.
  std::string detail_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;
  /// Seed-determined values: settled digest per epoch of the first pass
  /// and exact counts. Written to Options::detail_path.
  std::vector<std::uint64_t> digests;
  std::map<std::string, double> counts;
  /// Sample sizes behind the reported quantiles (timing-dependent).
  std::map<std::string, long long> samples;
  /// Gate failures (the first few are printed).
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Every end-to-end metric and its unit.
extern const std::map<std::string, std::string> kEndToEndUnits;

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// Coins held by each node across all its channels.
std::vector<pcn::Amount> node_wealth(const pcn::Network& network);

/// True when any channel still holds an HTLC lock.
bool has_locks(const pcn::Network& network);

/// Checks one epoch's settlement: every node's wealth equals `before`
/// (rebalancing moves coins around cycles, never in or out of a node)
/// and no lock survives. Records a failure in `result` otherwise.
void check_settlement(const pcn::Network& after,
                      const std::vector<pcn::Amount>& before, int epoch,
                      Result& result);

/// Lowers this thread's timer slack to 1 ns so scheduled sleeps wake on
/// time rather than up to 50 us late.
void tight_timer_slack();

}  // namespace perfbench
