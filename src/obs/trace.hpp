// Tracing half of the observability subsystem: RAII Span objects
// recording begin/end pairs into bounded per-thread ring buffers,
// drained on demand to Chrome trace_event JSON (load the file at
// chrome://tracing or https://ui.perfetto.dev).
//
// Model:
//
//   * trace::enabled() is a single relaxed atomic flag, off by default.
//     musketeerd --trace-out flips it on; everything else pays one
//     predictable-branch load per span when tracing is off.
//   * A Span always *measures* (its constructor reads the monotonic
//     clock) — seconds() works whether or not tracing is enabled — but
//     only *emits* a trace event when tracing was enabled at
//     construction. Code that needs a duration without a span (the
//     service's clear_seconds) uses obs::Timer directly.
//   * Rings are per-thread (no cross-thread contention on the hot
//     path), globally owned (events of exited threads survive until
//     drained), and bounded: when full, new events overwrite the oldest
//     and trace::dropped() counts them.
//   * src/obs is the one sanctioned home of steady_clock outside
//     bench/tests — musk_lint's adhoc-timing rule points here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

namespace musketeer::obs {

/// Monotonic stopwatch; the sanctioned timing primitive for code that
/// needs a duration (as opposed to a trace span).
class Timer {
 public:
  Timer() : start_(clock()) {}

  /// Seconds elapsed since construction (or the last reset()).
  double seconds() const {
    return std::chrono::duration<double>(clock() - start_).count();
  }

  void reset() { start_ = clock(); }

  static std::chrono::steady_clock::time_point clock() {
    return std::chrono::steady_clock::now();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

namespace trace {

/// One completed span, as drained. Timestamps are nanoseconds since
/// trace::start().
struct Event {
  const char* name;        ///< static string (span site)
  std::uint64_t start_ns;
  std::uint64_t duration_ns;
  std::uint32_t tid;       ///< small sequential trace thread id
  std::uint64_t epoch;     ///< 0 when the span carried no epoch
  char detail[24];         ///< optional short annotation ("" when unset)
};

/// Enables collection and (re)starts the trace clock. Events recorded
/// before start() are discarded by the accompanying clear().
void start();

/// Stops collection; already-recorded events stay drainable.
void stop();

/// Discards all buffered events and the dropped counter.
void clear();

bool enabled();

/// All buffered events, merged across threads, sorted by start time.
std::vector<Event> drain();

/// Events overwritten because a ring was full (since clear()).
std::uint64_t dropped();

/// Writes the buffered events as Chrome trace_event JSON ("X" complete
/// events, µs timestamps) and returns how many events were written.
std::size_t write_chrome_json(std::ostream& out);

// Internals used by Span.
std::uint64_t now_ns();
void emit(const Event& event);

}  // namespace trace

/// RAII trace span. Measures from construction; emits one trace::Event
/// at end() / destruction when tracing was enabled at construction.
/// `name` must be a string literal (stored by pointer).
class Span {
 public:
  explicit Span(const char* name)
      : name_(name), emit_(trace::enabled()),
        start_ns_(emit_ ? trace::now_ns() : 0) {
    detail_[0] = '\0';
    timer_ = Timer();
  }

  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Tags the span with the epoch it belongs to.
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }

  /// Short free-form annotation (mechanism name, record type, ...).
  /// Truncated to the Event's inline buffer.
  void set_detail(const char* detail) {
    std::strncpy(detail_, detail, sizeof(detail_) - 1);
    detail_[sizeof(detail_) - 1] = '\0';
  }

  /// Ends the span now (idempotent) and returns its duration in
  /// seconds. The destructor calls it; call explicitly when the
  /// duration feeds a report field.
  double end() {
    if (ended_) return seconds_;
    ended_ = true;
    seconds_ = timer_.seconds();
    if (emit_) {
      trace::Event event;
      event.name = name_;
      event.start_ns = start_ns_;
      event.duration_ns =
          static_cast<std::uint64_t>(seconds_ * 1e9);
      event.tid = 0;  // filled in by emit()
      event.epoch = epoch_;
      std::memcpy(event.detail, detail_, sizeof(detail_));
      trace::emit(event);
    }
    return seconds_;
  }

  /// Duration so far (or the final duration once ended).
  double seconds() const { return ended_ ? seconds_ : timer_.seconds(); }

 private:
  const char* name_;
  bool emit_;
  bool ended_ = false;
  std::uint64_t start_ns_;
  std::uint64_t epoch_ = 0;
  double seconds_ = 0.0;
  char detail_[24];
  Timer timer_;
};

}  // namespace musketeer::obs
