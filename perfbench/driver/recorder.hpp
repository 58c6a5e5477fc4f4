// Span recorder for the traced pass.
//
// The benchmark times each layer from outside, around calls into its
// public functions; every timed call is one span with a name, start,
// end, parent span and epoch. Spans stay in memory and are written at
// exit as Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).
// A span's self time is its duration minus the part of it its children
// cover; per-layer metrics are read from these per-epoch totals.
//
// Spans may end on worker threads (the timing executor records one per
// solver task), so recording is serialized by a mutex. The untraced
// runs never construct a Recorder.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Recorder {
 public:
  /// Completed span. `name` points to a string literal.
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;
    int epoch = -1;
    std::uint32_t tid = 0;
  };

  Recorder();

  /// Opens a span and returns its id.
  int begin(const char* name, int epoch, int parent);
  /// Closes span `id` and returns its duration in seconds.
  double end(int id);

  /// RAII span: opens at construction, closes at end() or destruction.
  class Scope {
   public:
    Scope(Recorder& recorder, const char* name, int epoch, int parent)
        : recorder_(recorder), id_(recorder.begin(name, epoch, parent)) {}
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }
    double end() {
      if (!ended_) seconds_ = recorder_.end(id_);
      ended_ = true;
      return seconds_;
    }

   private:
    Recorder& recorder_;
    int id_;
    bool ended_ = false;
    double seconds_ = 0.0;
  };

  /// Per-epoch, per-name totals derived from the recorded spans.
  struct Totals {
    double duration_s = 0.0;
    double self_s = 0.0;
    double max_duration_s = 0.0;
  };
  /// epoch -> span name -> totals. Call after all spans have ended.
  std::map<int, std::map<std::string, Totals>> totals() const;

  /// Writes every span as a Chrome "X" event; args carry the span id,
  /// parent, epoch and self time. Returns false on an I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::uint32_t thread_id();
  std::vector<double> self_seconds() const;

  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> thread_ids_;
};

}  // namespace perfbench
