// Tracer semantics: spans measure even when disabled, enabled spans
// drain sorted with their epoch/detail tags, the Chrome trace_event
// JSON is structurally sound, and full rings overwrite the oldest
// events while counting drops.
#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hpp"

namespace musketeer::obs {
namespace {

/// Each test owns the global tracer state; reset around it.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::stop();
    trace::clear();
  }
  void TearDown() override {
    trace::stop();
    trace::clear();
  }
};

TEST_F(TraceTest, DisabledSpanMeasuresButEmitsNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    Span span("test.disabled");
    span.set_epoch(3);
    EXPECT_GE(span.end(), 0.0);
  }
  EXPECT_TRUE(trace::drain().empty());
  EXPECT_EQ(trace::dropped(), 0u);
}

TEST_F(TraceTest, EnabledSpansDrainSortedWithTags) {
  trace::start();
  {
    Span outer("test.outer");
    outer.set_epoch(7);
    outer.set_detail("network_simplex");
    {
      Span inner("test.inner");
      inner.set_epoch(7);
    }
  }
  {
    Span later("test.later");
    (void)later;
  }
  trace::stop();

  const std::vector<trace::Event> events = trace::drain();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer started before inner, inner before later.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_STREQ(events[2].name, "test.later");
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; }));
  EXPECT_EQ(events[0].epoch, 7u);
  EXPECT_STREQ(events[0].detail, "network_simplex");
  EXPECT_EQ(events[2].epoch, 0u);
  EXPECT_STREQ(events[2].detail, "");
  // The outer span contains the inner one.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].duration_ns,
            events[1].start_ns + events[1].duration_ns);
}

TEST_F(TraceTest, SpanEndIsIdempotent) {
  trace::start();
  Span span("test.idempotent");
  const double first = span.end();
  const double second = span.end();
  EXPECT_EQ(first, second);
  trace::stop();
  EXPECT_EQ(trace::drain().size(), 1u);  // one event, not two
}

TEST_F(TraceTest, EnablementIsLatchedAtConstruction) {
  ASSERT_FALSE(trace::enabled());
  Span span("test.latched");
  trace::start();
  span.end();  // constructed while disabled: must not emit
  trace::stop();
  EXPECT_TRUE(trace::drain().empty());
}

TEST_F(TraceTest, ChromeJsonSchema) {
  trace::start();
  for (int i = 0; i < 5; ++i) {
    Span span("test.json \"quoted\\name\"");
    span.set_epoch(static_cast<std::uint64_t>(i));
    span.set_detail("d");
  }
  trace::stop();

  std::ostringstream out;
  const std::size_t written = trace::write_chrome_json(out);
  EXPECT_EQ(written, 5u);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Five complete ("X") events, each with the required keys.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 5u);
  for (const char* key : {"\"name\"", "\"ts\"", "\"dur\"", "\"pid\"",
                          "\"tid\"", "\"args\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Span names with quotes/backslashes must arrive escaped: the raw
  // characters never appear unescaped inside the emitted JSON strings.
  EXPECT_NE(json.find("\\\"quoted\\\\name\\\""), std::string::npos);
  // Balanced braces and brackets.
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string) {
      if (c == '{') ++braces;
      if (c == '}') --braces;
      if (c == '[') ++brackets;
      if (c == ']') --brackets;
      ASSERT_GE(braces, 0);
      ASSERT_GE(brackets, 0);
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// A tab comes out as \t and any other control character as \u00XX; only
// the writer's own line breaks between events stay raw.
TEST_F(TraceTest, ChromeJsonEscapesControlCharacters) {
  trace::start();
  Span("test.json\tname").set_detail("d\x1f");
  trace::stop();
  std::ostringstream out;
  EXPECT_EQ(trace::write_chrome_json(out), 1u);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\": \"test.json\\tname\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"d\\u001f\""), std::string::npos);
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
    return c != '\n' && static_cast<unsigned char>(c) < 0x20;
  })) << json;
}

TEST_F(TraceTest, EventsFromExitedThreadsSurvive) {
  trace::start();
  {
    std::jthread worker([] {
      Span span("test.worker");
      span.set_epoch(11);
    });
  }
  trace::stop();
  const std::vector<trace::Event> events = trace::drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.worker");
  EXPECT_EQ(events[0].epoch, 11u);
}

TEST_F(TraceTest, FullRingOverwritesOldestAndCountsDrops) {
  trace::start();
  // The per-thread ring holds 1<<16 events; write past capacity.
  constexpr std::size_t kCapacity = std::size_t{1} << 16;
  constexpr std::size_t kExtra = 1000;
  for (std::size_t i = 0; i < kCapacity + kExtra; ++i) {
    Span span(i < kExtra ? "test.oldest" : "test.newest");
    (void)span;
  }
  trace::stop();
  EXPECT_EQ(trace::dropped(), kExtra);
  const std::vector<trace::Event> events = trace::drain();
  EXPECT_EQ(events.size(), kCapacity);
  // The survivors are the newest events: every "test.oldest" was
  // overwritten.
  for (const auto& e : events) EXPECT_STREQ(e.name, "test.newest");
}

TEST_F(TraceTest, ClearResetsEventsAndDrops) {
  trace::start();
  {
    Span span("test.cleared");
    (void)span;
  }
  trace::stop();
  trace::clear();
  EXPECT_TRUE(trace::drain().empty());
  EXPECT_EQ(trace::dropped(), 0u);
}

}  // namespace
}  // namespace musketeer::obs
