// Machine-readable bench output: every bench/* binary builds one
// BenchReport and emits BENCH_<name>.json next to its human-readable
// tables, so CI can archive and diff benchmark numbers across runs.
//
// Shape:
//
//   {"bench": "e4_throughput",
//    "config": {"seeds": 5, "short_mode": true},
//    "results": [{"op": "recovery/m3", "ns_per_op": 1.23e6, "n": 1000}]}
//
// The file goes to $MUSKETEER_OUT/BENCH_<name>.json when the variable
// names a directory (the CI bench job sets it and uploads the
// directory), else to the current working directory — a bench run
// always leaves a machine-readable record.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace musketeer::util {

/// `s` escaped for the inside of a JSON string literal (no surrounding
/// quotes): `"`, `\`, newline and tab get their short escapes, every
/// other control character becomes \u00XX. The one JSON escaper: bench
/// reports, the metrics registry and the trace writer all use it.
std::string json_escape(const std::string& s);

class BenchReport {
 public:
  /// `name` becomes the file stem: BENCH_<name>.json.
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Writes the report on destruction if write() was never called
  /// (swallowing I/O errors — destructors don't throw; call write()
  /// explicitly to observe failure).
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Records a config key (emitted as a JSON string / number / bool).
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, const char* value);
  void config(const std::string& key, double value);
  void config(const std::string& key, std::int64_t value);
  void config(const std::string& key, bool value);

  /// Records one measured operation: `n` repetitions at `ns_per_op`
  /// nanoseconds each.
  void add(const std::string& op, double ns_per_op, std::uint64_t n);

  /// Convenience: `seconds` of wall clock spent on `n` repetitions.
  void add_seconds(const std::string& op, double seconds, std::uint64_t n);

  /// Serializes the report (stable field order, %.17g numbers).
  std::string to_json() const;

  /// Writes BENCH_<name>.json to $MUSKETEER_OUT (if set) or the cwd
  /// and returns the path. Throws on I/O failure.
  std::string write();

 private:
  struct Result {
    std::string op;
    double ns_per_op;
    std::uint64_t n;
  };

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;  ///< key, raw JSON
  std::vector<Result> results_;
  bool written_ = false;
};

}  // namespace musketeer::util
