#include "recorder.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

Recorder::Recorder() : origin_(Clock::now()) {}

std::uint32_t Recorder::thread_id() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] = thread_ids_.try_emplace(
      key, static_cast<std::uint32_t>(thread_ids_.size() + 1));
  return it->second;
}

int Recorder::begin(const char* name, int epoch, int parent) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_ns = now;
  span.parent = parent;
  span.epoch = epoch;
  span.tid = thread_id();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

double Recorder::end(int id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now;
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

std::vector<double> Recorder::self_seconds() const {
  // Children on worker threads can overlap each other, so a parent's
  // self time is clamped at zero rather than going negative.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  for (double& s : self) s = std::max(0.0, s);
  return self;
}

std::map<int, std::map<std::string, Recorder::Totals>> Recorder::totals()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_seconds();
  std::map<int, std::map<std::string, Totals>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration =
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    Totals& t = out[span.epoch][span.name];
    t.duration_s += duration;
    t.self_s += self[i];
    t.max_duration_s = std::max(t.max_duration_s, duration);
  }
  return out;
}

bool Recorder::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_seconds();
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"epoch\":%d,"
                  "\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", span.name, layer.c_str(), span.tid,
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent, span.epoch, self[i] * 1e6);
    out << buf;
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
