// The benchmark's workloads. Each one builds its inputs from the seed,
// runs for Options::seconds (or a fixed short pass), checks the
// program's outputs, and fills a Result with the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Closed-loop payment traffic cleared by one mechanism.
struct TrafficSpec {
  const char* mechanism = "m3";
  int nodes = 200;
  /// Independent seeded scenarios per cycle, and steady epochs each
  /// (a pass replays one scenario from a fresh service).
  int scenarios = 16;
  int epochs_per_pass = 80;
};

Result run_traffic(const Options& options, const TrafficSpec& spec);

/// The in-process daemon on TCP loopback with open-loop bid traffic.
Result run_daemon(const Options& options);

}  // namespace perfbench
