// Registry semantics: stable references, exact concurrent counting,
// registration races under tsan, and the JSON export's structure.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace musketeer::obs {
namespace {

TEST(Registry, RepeatLookupReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("test.lookup.hits_total");
  Counter& b = reg.counter("test.lookup.hits_total");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("test.lookup.level");
  Gauge& g2 = reg.gauge("test.lookup.level");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.histogram("test.lookup.latency_seconds");
  Histogram& h2 = reg.histogram("test.lookup.latency_seconds");
  EXPECT_EQ(&h1, &h2);
}

// Hammer one counter from many threads; the total must be exact, not a
// sampled approximation. Run under tsan this also proves the relaxed
// atomics are race-free.
TEST(Registry, ConcurrentCounterAddsAreExact) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&reg] {
        Counter& c = reg.counter("test.concurrent.adds_total");
        for (int i = 0; i < kAddsPerThread; ++i) c.add();
      });
    }
  }
  EXPECT_EQ(reg.counter("test.concurrent.adds_total").value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

// Concurrent registration of distinct names while another thread
// repeatedly exports — exercises the registry mutex under tsan.
TEST(Registry, ConcurrentRegistrationAndExport) {
  Registry reg;
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&reg, t] {
        for (int i = 0; i < 200; ++i) {
          reg.counter("test.race.c" + std::to_string(t) + "." +
                      std::to_string(i))
              .add();
          reg.histogram("test.race.h" + std::to_string(t))
              .record(1e-3 * (i + 1));
        }
      });
    }
    workers.emplace_back([&reg, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string json = reg.to_json();
        EXPECT_FALSE(json.empty());
      }
    });
    for (int t = 0; t < 4; ++t) workers[static_cast<std::size_t>(t)].join();
    stop.store(true, std::memory_order_relaxed);
  }
  // All 4 x 200 counters plus 4 histograms ended up registered.
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(reg.counter("test.race.c" + std::to_string(t) + ".0").value(),
              1u);
    EXPECT_EQ(reg.histogram("test.race.h" + std::to_string(t))
                  .snapshot()
                  .count,
              200u);
  }
}

TEST(Registry, JsonSnapshotStructure) {
  Registry reg;
  reg.counter("test.json.ops_total").add(3);
  reg.gauge("test.json.level").set(0.25);
  Histogram& h = reg.histogram("test.json.latency_seconds");
  h.record(0.5);
  h.record(0.5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.ops_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.level\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.latency_seconds\": {\"count\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  int depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// A tab in a name comes out as \t, any other control character as \u00XX.
TEST(Registry, JsonEscapesControlCharacters) {
  Registry reg;
  reg.counter("test.json.tab\there_total").add(1);
  reg.gauge("test.json.bell\x01level").set(2.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test.json.tab\\there_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.bell\\u0001level\": 2"), std::string::npos);
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  })) << json;
}

TEST(Registry, GlobalRegistryIsAProcessSingleton) {
  Registry& a = registry();
  Registry& b = registry();
  EXPECT_EQ(&a, &b);
  Counter& c = registry().counter("test.global.touch_total");
  c.add();
  EXPECT_GE(c.value(), 1u);
}

}  // namespace
}  // namespace musketeer::obs
