#include "util/bench_json.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace musketeer::util {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

BenchReport::~BenchReport() {
  if (written_) return;
  try {
    write();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_json: %s\n", error.what());
  }
}

void BenchReport::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void BenchReport::config(const std::string& key, const char* value) {
  config(key, std::string(value));
}

void BenchReport::config(const std::string& key, double value) {
  config_.emplace_back(key, json_number(value));
}

void BenchReport::config(const std::string& key, std::int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void BenchReport::config(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

void BenchReport::add(const std::string& op, double ns_per_op,
                      std::uint64_t n) {
  results_.push_back(Result{op, ns_per_op, n});
}

void BenchReport::add_seconds(const std::string& op, double seconds,
                              std::uint64_t n) {
  add(op, n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n), n);
}

std::string BenchReport::to_json() const {
  std::string out = "{\"bench\": \"" + json_escape(name_) + "\"";
  out += ", \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(config_[i].first) + "\": " + config_[i].second;
  }
  out += "}, \"results\": [";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    if (i) out += ", ";
    const Result& r = results_[i];
    out += "{\"op\": \"" + json_escape(r.op) +
           "\", \"ns_per_op\": " + json_number(r.ns_per_op) +
           ", \"n\": " + std::to_string(r.n) + "}";
  }
  out += "]}\n";
  return out;
}

std::string BenchReport::write() {
  written_ = true;
  const char* dir = std::getenv("MUSKETEER_OUT");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/BENCH_" + name_ + ".json"
                               : "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << to_json();
  if (!out) throw std::runtime_error("write failed: " + path);
  return path;
}

}  // namespace musketeer::util
