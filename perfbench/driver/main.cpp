// perfbench_clearing: the clearing-path benchmark driver.
//
//   perfbench_clearing --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--epochs <n>] [--out <dir>]
//                      [--detail <file>]
//
// Runs one workload and prints, as the last line of standard output,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced pass with
// --trace 1. A human-readable summary (sample counts, error rate, gate
// failures) goes to standard error. Exits 1 when a correctness gate
// failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {

const std::set<std::string> kPerLayer = {
    "pcn.extract_ms",        "pcn.settle_ms",
    "pcn.digest_us",         "pcn.game_edges",
    "pcn.cycles_settled",    "core.mechanism_ms",
    "core.bind_ms",          "core.pricing_ms",
    "flow.solve_ms",         "flow.slowest_task_ms",
    "flow.decompose_ms",     "flow.solves",
    "flow.structure_builds", "flow.rebinds",
    "flow.fallbacks",        "flow.components",
    "svc.run_epoch_ms",      "svc.broadcast_ms",
    "svc.journal_append_us", "svc.journal_bytes_per_epoch",
    "svc.bids_per_epoch",    "bench.gen_lag_ms_max",
    "bench.unattributed_ms"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_clearing --workload "
               "m3-msat-traffic|daemon-quiescent-tcp "
               "--seed n --seconds s --trace 0|1 [--epochs n] [--out dir] "
               "[--detail file]\n");
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_detail(const std::string& path, const Result& result) {
  std::ofstream out(path);
  out << "{\"digests\":[";
  for (std::size_t i = 0; i < result.digests.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(result.digests[i]));
    out << (i == 0 ? "" : ",") << buf;
  }
  out << "],\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : result.counts) {
    out << (first ? "" : ",") << "\"" << name << "\":" << number(value);
    first = false;
  }
  out << "},\"samples\":{";
  first = true;
  for (const auto& [name, value] : result.samples) {
    out << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  out << "}}\n";
}

int run(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
      have_seconds = options.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--epochs") {
      options.epochs = std::stoi(value);
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--detail") {
      options.detail_path = value;
    } else {
      return usage();
    }
  }
  if ((argc - 1) % 2 != 0 || !have_seed || !have_trace ||
      (!have_seconds && options.epochs <= 0)) {
    return usage();
  }
  std::filesystem::create_directories(options.out_dir);

  Result result;
  if (options.workload == "m3-msat-traffic") {
    result = run_traffic(options, TrafficSpec{"m3", 200, 30, 10});
  } else if (options.workload == "daemon-quiescent-tcp") {
    result = run_daemon(options);
  } else {
    return usage();
  }

  std::set<std::string> expected = kPerLayer;
  if (!options.trace) {
    expected.clear();
    for (const auto& [name, unit] : kEndToEndUnits) expected.insert(name);
  }
  for (const std::string& name : expected) {
    if (result.metrics.count(name) == 0) result.fail("metric missing: " + name);
  }
  for (const auto& [name, metric] : result.metrics) {
    if (expected.count(name) == 0) result.fail("unexpected metric: " + name);
    if (!std::isfinite(metric.value)) result.fail("non-finite metric: " + name);
  }
  if (result.attempted < 1) result.fail("no operation was attempted");

  std::fprintf(stderr, "perfbench %s seed %llu trace %d: %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0, result.correct ? "correct" : "INCORRECT");
  for (const auto& [name, metric] : result.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  std::fprintf(stderr, "  %-28s %14.6g ratio (%lld of %lld failed)\n",
               "error_rate",
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max(1LL, result.attempted)),
               result.failed, result.attempted);
  for (const auto& [name, n] : result.samples) {
    std::fprintf(stderr, "  samples.%-20s %14lld\n", name.c_str(), n);
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "  gate failed: %s\n", problem.c_str());
  }
  if (!options.detail_path.empty()) write_detail(options.detail_path, result);

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " +
            number(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
