// JSON serializer and the BenchSession report round-trip. The strict
// --threads parsing is part of the shared command line and is tested
// with the other CLI errors in tests/scenario/cli_test.cpp.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "validate/invariant.hpp"

namespace intox::obs {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
  // UTF-8 passes through byte-for-byte.
  EXPECT_EQ(json_escape("q\xc3\xa9"), "q\xc3\xa9");
}

TEST(JsonNumber, RoundTripsAndNullsNonFinite) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  // Shortest round-trip: parsing the token recovers the exact double.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(v)), v);
}

TEST(JsonWriter, NestedStructureAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(std::uint64_t{1});
  w.key("b").begin_array();
  w.value("x");
  w.value(2.5);
  w.value(true);
  w.begin_object();
  w.key("c").value("d\"e");
  w.end_object();
  w.end_array();
  w.key("raw").raw("{\"n\":3}");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"b\":[\"x\",2.5,true,{\"c\":\"d\\\"e\"}],"
            "\"raw\":{\"n\":3}}");
}

TEST(SweepPerf, ImbalanceIsMaxOverMean) {
  SweepPerf p;
  EXPECT_EQ(p.shard_imbalance(), 0.0);  // unknown
  p.shard_seconds = {1.0, 1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(p.shard_imbalance(), 4.0 / 2.0);
  p.shard_seconds = {3.0, 3.0};
  EXPECT_DOUBLE_EQ(p.shard_imbalance(), 1.0);
}

TEST(BenchSession, ParsesFlagsAndRegistersAsCurrent) {
  SessionOptions options;
  options.threads = 3;
  options.metrics_out = "/tmp/ignored.json";
  {
    BenchSession session{"TEST-FAM", options};
    EXPECT_EQ(session.threads(), 3u);
    EXPECT_EQ(session.family(), "TEST-FAM");
    EXPECT_EQ(session.report_path(), "/tmp/ignored.json");
    EXPECT_EQ(BenchSession::current(), &session);
    // Keep the dtor from writing the probe file.
    std::remove("/tmp/ignored.json");
  }
  EXPECT_EQ(BenchSession::current(), nullptr);
  std::remove("/tmp/ignored.json");
}

TEST(BenchSession, ReportCarriesSweepsMetricsAndInvariants) {
  Registry::global().reset_values_for_test();
  validate::reset_invariant_violations();
  Registry::global().counter("test.report.counter").add(7);

  BenchSession session{"TEST-REPORT"};
  SweepPerf sweep;
  sweep.name = "needs \"escaping\"";
  sweep.trials = 10;
  sweep.threads = 2;
  sweep.wall_seconds = 2.0;
  sweep.shard_seconds = {0.9, 1.1};
  ::testing::internal::CaptureStderr();
  emit_sweep_perf(sweep);
  const std::string line = ::testing::internal::GetCapturedStderr();
  // The legacy stderr line survives, now with the name escaped.
  EXPECT_NE(line.find("\"sweep\":\"needs \\\"escaping\\\"\""),
            std::string::npos);
  EXPECT_NE(line.find("\"trials\":10"), std::string::npos);

  const std::string doc = session.to_json();
  EXPECT_NE(doc.find("\"schema\":\"intox.bench_report.v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"family\":\"TEST-REPORT\""), std::string::npos);
  EXPECT_NE(doc.find("\"sweep\":\"needs \\\"escaping\\\"\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"trials_per_s\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"shard_wall_s\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.report.counter\":7"), std::string::npos);
  // The registry bridge: validate/'s counter appears in every report.
  EXPECT_NE(doc.find("\"validate.invariant_violations\":0"),
            std::string::npos);
  EXPECT_NE(doc.find("\"invariants\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"violations\":0"), std::string::npos);
}

TEST(BenchSession, WriteRoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "/intox_report_test.json";
  {
    SessionOptions options;
    options.metrics_out = path;
    BenchSession session{"TEST-WRITE", options};
    SweepPerf sweep;
    sweep.name = "s";
    sweep.trials = 1;
    sweep.threads = 1;
    sweep.wall_seconds = 0.5;
    session.record_sweep(sweep);
  }  // dtor writes
  std::string doc;
  ASSERT_TRUE(read_file(path, &doc));
  EXPECT_NE(doc.find("\"family\":\"TEST-WRITE\""), std::string::npos);
  EXPECT_NE(doc.find("\"sweep\":\"s\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace intox::obs
