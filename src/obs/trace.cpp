#include "obs/trace.hpp"

#include <algorithm>
#include <memory>
#include <mutex>

#include "util/bench_json.hpp"
#include "util/table.hpp"

namespace musketeer::obs::trace {

namespace {

constexpr std::size_t kRingCapacity = 1 << 16;  ///< events per thread

/// One thread's bounded event ring. Owned by the global ring list (so
/// events survive thread exit); the per-ring mutex serializes the
/// owning thread's push against a concurrent drain — uncontended in
/// steady state, and a plain leaf std::mutex because pushes can happen
/// under any ranked lock and during thread teardown.
struct Ring {
  std::mutex mutex;  // musk-lint: allow(unranked-mutex)
  std::uint32_t tid = 0;
  std::vector<Event> events;   ///< ring storage, grown up to capacity
  std::size_t next = 0;        ///< overwrite cursor once full
  std::uint64_t dropped = 0;

  void push(const Event& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (events.size() < kRingCapacity) {
      events.push_back(event);
    } else {
      events[next] = event;
      next = (next + 1) % kRingCapacity;
      ++dropped;
    }
  }
};

struct Global {
  std::mutex mutex;  // musk-lint: allow(unranked-mutex)
  std::vector<std::unique_ptr<Ring>> rings;
  std::uint32_t next_tid = 0;
};

/// Leaked: rings must stay drainable after any thread exits, and pushes
/// may race static destruction.
Global& global() {
  static Global* const instance = new Global();
  return *instance;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_epoch_ns{0};  ///< steady_clock ns at start()

Ring* local_ring() {
  thread_local Ring* ring = [] {
    auto owned = std::make_unique<Ring>();
    Ring* r = owned.get();
    Global& g = global();
    const std::lock_guard<std::mutex> lock(g.mutex);
    r->tid = g.next_tid++;
    g.rings.push_back(std::move(owned));
    return r;
  }();
  return ring;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void start() {
  clear();
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void stop() { g_enabled.store(false, std::memory_order_release); }

bool enabled() { return g_enabled.load(std::memory_order_acquire); }

void clear() {
  Global& g = global();
  const std::lock_guard<std::mutex> lock(g.mutex);
  for (const auto& ring : g.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->events.clear();
    ring->next = 0;
    ring->dropped = 0;
  }
}

std::uint64_t now_ns() {
  return steady_ns() - g_epoch_ns.load(std::memory_order_relaxed);
}

void emit(const Event& event) {
  Ring* ring = local_ring();
  Event stamped = event;
  stamped.tid = ring->tid;
  ring->push(stamped);
}

std::vector<Event> drain() {
  std::vector<Event> all;
  Global& g = global();
  const std::lock_guard<std::mutex> lock(g.mutex);
  for (const auto& ring : g.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    all.insert(all.end(), ring->events.begin(), ring->events.end());
  }
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::uint64_t dropped() {
  std::uint64_t total = 0;
  Global& g = global();
  const std::lock_guard<std::mutex> lock(g.mutex);
  for (const auto& ring : g.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

std::size_t write_chrome_json(std::ostream& out) {
  const std::vector<Event> events = drain();
  std::string body;
  body.reserve(events.size() * 96 + 64);
  body += "{\"traceEvents\": [";
  bool first = true;
  for (const Event& e : events) {
    if (!first) body += ",";
    first = false;
    body += "\n{\"name\": \"";
    body += util::json_escape(e.name);
    body += util::format(
        "\", \"cat\": \"musketeer\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
        static_cast<double>(e.start_ns) / 1e3,
        static_cast<double>(e.duration_ns) / 1e3, e.tid);
    if (e.epoch != 0 || e.detail[0] != '\0') {
      body += ", \"args\": {";
      bool first_arg = true;
      if (e.epoch != 0) {
        body += util::format("\"epoch\": %llu",
                             static_cast<unsigned long long>(e.epoch));
        first_arg = false;
      }
      if (e.detail[0] != '\0') {
        if (!first_arg) body += ", ";
        body += "\"detail\": \"";
        body += util::json_escape(e.detail);
        body += "\"";
      }
      body += "}";
    }
    body += "}";
  }
  body += "\n]}\n";
  out << body;
  return events.size();
}

}  // namespace musketeer::obs::trace
