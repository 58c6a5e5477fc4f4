// The daemon flags musketeerd and `musk_loadgen --spawn` share, parsed
// in one place:
//
//   --nodes <n> --seed <s> --mechanism <m> --epoch-ms <ms>
//   --queue-cap <n> --threads <n> --deadline-ms <ms> --degrade <m,m,...>
//
// Each tool keeps its own defaults (set before parsing), its own other
// flags and its own usage text. parse_daemon_flag changes only what the
// flag names.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>

#include "sim/engine.hpp"
#include "svc/service.hpp"

namespace musketeer::tools {

/// Applies one daemon flag and its value; returns false, changing
/// nothing, when `flag` is not a daemon flag. A malformed number throws
/// from std::stol / std::stoull.
inline bool parse_daemon_flag(const std::string& flag,
                              const std::string& value,
                              std::string& mechanism,
                              sim::SimulationConfig& network,
                              svc::ServiceConfig& service) {
  if (flag == "--nodes") {
    network.num_nodes = static_cast<flow::NodeId>(std::stol(value));
  } else if (flag == "--seed") {
    network.seed = std::stoull(value);
  } else if (flag == "--mechanism") {
    mechanism = value;
  } else if (flag == "--epoch-ms") {
    service.epoch_period = std::chrono::milliseconds(std::stol(value));
  } else if (flag == "--queue-cap") {
    service.queue_capacity = static_cast<std::size_t>(std::stoull(value));
  } else if (flag == "--threads") {
    service.threads = static_cast<int>(std::stol(value));
  } else if (flag == "--deadline-ms") {
    service.epoch_deadline = std::chrono::milliseconds(std::stol(value));
  } else if (flag == "--degrade") {
    // Comma-separated mechanism names; empty names are skipped.
    service.degradation_ladder.clear();
    std::size_t start = 0;
    for (;;) {
      const std::size_t comma = value.find(',', start);
      const std::string name = value.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      if (!name.empty()) service.degradation_ladder.push_back(name);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  } else {
    return false;
  }
  return true;
}

}  // namespace musketeer::tools
