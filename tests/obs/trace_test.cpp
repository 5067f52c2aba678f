// Trace layer: disabled-by-default contract, span emission, and a
// structural check that the flushed file is valid Chrome trace-event
// JSON (parsed structurally here; CI loads a real bench trace through
// python's json module as well).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_parse.hpp"

namespace intox::obs {
namespace {

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// The tracer is process-global, so these tests run as one sequence:
// disabled -> enabled -> flushed -> disabled again.
TEST(Trace, DisabledByDefaultAndCheapToCall) {
  // The test binary is run without INTOX_TRACE; nothing may be enabled
  // and every entry point must be a safe no-op.
  ASSERT_FALSE(trace_enabled());
  trace_instant("noop", "test");
  trace_counter("noop", "series", 1.0);
  trace_complete("noop", "test", 0.0);
  { TraceSpan span{"noop", "test"}; EXPECT_FALSE(span.enabled()); }
  EXPECT_FALSE(trace_flush());
}

TEST(Trace, SpansFlushToValidChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "/intox_trace_test.json";
  set_trace_path(path);
  ASSERT_TRUE(trace_enabled());

  {
    TraceSpan outer{"test.outer", "test"};
    outer.arg0("items", 3);
    outer.arg1("workers", 2);
    TraceSpan inner{"test.inner", "test"};
  }
  trace_instant("test.marker", "test");
  trace_counter("test.depth", "pending", 7.0);

  // Spans from other threads must land in the same file even though the
  // recording thread has exited by flush time.
  std::thread worker{[] { TraceSpan span{"test.worker", "test"}; }};
  worker.join();

  ASSERT_TRUE(trace_flush());
  std::string doc;
  ASSERT_TRUE(read_file(path, &doc));

  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.worker\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"items\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"workers\":2"), std::string::npos);

  // Structural sanity: balanced braces/brackets (no JSON parser in the
  // test toolchain; the strings above contain no nested quoting).
  EXPECT_EQ(count_occurrences(doc, "{"), count_occurrences(doc, "}"));
  EXPECT_EQ(count_occurrences(doc, "["), count_occurrences(doc, "]"));

  // Flush is cumulative and idempotent: a second flush rewrites the same
  // events rather than emitting an empty or truncated file.
  ASSERT_TRUE(trace_flush());
  std::string reflushed;
  ASSERT_TRUE(read_file(path, &reflushed));
  EXPECT_EQ(reflushed, doc);

  set_trace_path("");
  EXPECT_FALSE(trace_enabled());
  std::remove(path.c_str());
}

TEST(Trace, ReenableAccumulatesNewEvents) {
  const std::string path = ::testing::TempDir() + "/intox_trace_test2.json";
  set_trace_path(path);
  { TraceSpan span{"test.second_session", "test"}; }
  ASSERT_TRUE(trace_flush());
  std::string doc;
  ASSERT_TRUE(read_file(path, &doc));
  EXPECT_NE(doc.find("test.second_session"), std::string::npos);
  set_trace_path("");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace intox::obs
