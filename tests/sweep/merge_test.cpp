// Report merging: record order is point order, the envelope is
// deterministic, and the worst exit comes from each record's top-level
// "exit" field.
#include "sweep/merge.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/json_parse.hpp"
#include "obs/report.hpp"

namespace intox::sweep {
namespace {

std::string write_temp(const char* name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
  return path;
}

TEST(Merge, ConcatenatesRecordsInPointOrder) {
  MergeInput in;
  in.scenario = "quickstart";
  in.family = "QUICKSTART";
  SweepAxis axis;
  axis.key = "flows";
  axis.values = {"1", "2"};
  in.axes = {axis};
  in.record_paths = {
      write_temp("merge_r0.json", "{\"schema\":\"x\",\"exit\":0}\n"),
      write_temp("merge_r1.json", "{\"schema\":\"y\",\"exit\":3}\n"),
  };
  std::string error;
  const std::string doc = render_merged_report(in, &error).doc;
  ASSERT_EQ(error, "");
  EXPECT_NE(doc.find("\"schema\":\"intox.sweep_report.v1.1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"points\":2"), std::string::npos);
  // Records appear verbatim, in order.
  const auto first = doc.find("{\"schema\":\"x\",\"exit\":0}");
  const auto second = doc.find("{\"schema\":\"y\",\"exit\":3}");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(doc.back(), '\n');
  for (const std::string& p : in.record_paths) std::remove(p.c_str());
}

TEST(Merge, RecordsWithoutMetricsYieldEmptyAggregates) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {
      write_temp("merge_nometrics.json", "{\"schema\":\"x\",\"exit\":0}\n"),
  };
  std::string error;
  const std::string doc = render_merged_report(in, &error).doc;
  ASSERT_EQ(error, "");
  EXPECT_NE(
      doc.find("\"aggregates\":{\"counters\":{},\"gauges\":{}}"),
      std::string::npos);
  std::remove(in.record_paths[0].c_str());
}

TEST(Merge, AggregatesFoldCountersAndGaugesAcrossPoints) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {
      write_temp("merge_m0.json",
                 "{\"exit\":0,\"metrics\":{\"counters\":{\"pkts\":10},"
                 "\"gauges\":{\"rate\":1.5}}}\n"),
      write_temp("merge_m1.json",
                 "{\"exit\":0,\"metrics\":{\"counters\":{\"pkts\":30},"
                 "\"gauges\":{\"rate\":0.5,\"loss\":2}}}\n"),
  };
  std::string error;
  const std::string doc = render_merged_report(in, &error).doc;
  ASSERT_EQ(error, "");
  // pkts: both points; min 10, max 30, mean 20.
  EXPECT_NE(doc.find("\"pkts\":{\"count\":2,\"min\":10,\"max\":30,"
                     "\"mean\":20}"),
            std::string::npos)
      << doc;
  // rate: both points; loss: only one.
  EXPECT_NE(doc.find("\"rate\":{\"count\":2,\"min\":0.5,\"max\":1.5,"
                     "\"mean\":1}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"loss\":{\"count\":1,\"min\":2,\"max\":2,"
                     "\"mean\":2}"),
            std::string::npos)
      << doc;
  for (const std::string& p : in.record_paths) std::remove(p.c_str());
}

TEST(Merge, MissingRecordIsAnError) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {"/nonexistent/record.json"};
  std::string error;
  EXPECT_EQ(render_merged_report(in, &error).doc, "");
  EXPECT_NE(error.find("/nonexistent/record.json"), std::string::npos);
}

TEST(Merge, MalformedRecordIsAnError) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {write_temp("merge_bad.json", "not json\n")};
  std::string error;
  EXPECT_EQ(render_merged_report(in, &error).doc, "");
  EXPECT_NE(error.find("not a JSON object"), std::string::npos);
  std::remove(in.record_paths[0].c_str());
}

TEST(Merge, CommitReportIsAtomicRename) {
  const std::string path = ::testing::TempDir() + "merge_commit.json";
  ASSERT_EQ(commit_report(path, "{\"a\":1}\n"), "");
  std::string doc;
  ASSERT_TRUE(obs::read_file(path, &doc));
  EXPECT_EQ(doc, "{\"a\":1}\n");
  std::remove(path.c_str());
}

// The worst exit of a one-record merge is that record's exit.
int single_record_exit(const char* name, const std::string& content) {
  MergeInput in;
  in.record_paths = {write_temp(name, content)};
  std::string error;
  const int exit = render_merged_report(in, &error).worst_exit;
  std::remove(in.record_paths[0].c_str());
  return exit;
}

TEST(Merge, ExitScannerReadsTheTopLevelField) {
  EXPECT_EQ(single_record_exit("merge_e0.json", "{\"exit\":0}"), 0);
  EXPECT_EQ(single_record_exit("merge_e1.json", "{\"exit\":3}"), 3);
  EXPECT_EQ(single_record_exit("merge_e2.json",
                               "{\"banner\":\"k=v\",\"exit\":2}"),
            2);
  // A record with no exit field counts as a failed point.
  EXPECT_EQ(single_record_exit("merge_e3.json", "{}"), 1);
  // A *string* containing the text cannot shadow the key.
  EXPECT_EQ(single_record_exit(
                "merge_e4.json",
                "{\"stdout\":\"fake \\\"exit\\\": 9\",\"exit\":1}"),
            1);
  // Across records the merge keeps the worst.
  MergeInput in;
  in.record_paths = {write_temp("merge_e0.json", "{\"exit\":0}\n"),
                     write_temp("merge_e1.json", "{\"b\":\"k\",\"exit\":2}")};
  std::string error;
  EXPECT_EQ(render_merged_report(in, &error).worst_exit, 2);
  for (const std::string& path : in.record_paths) std::remove(path.c_str());
}

TEST(Merge, ExitScannerMatchesThePointRecordWriter) {
  // End-to-end against the real writer: the merge must take the exit the
  // record embeds even when stdout carries hostile text.
  const std::string path = ::testing::TempDir() + "merge_writer.json";
  obs::PointRecord record;
  record.scenario = "s";
  record.family = "F";
  record.banner = "k=1";
  record.exit_code = 4;
  record.stdout_text = "tricky \"exit\": 99 text\n";
  ASSERT_TRUE(obs::write_point_record(path, record));
  MergeInput in;
  in.record_paths = {path};
  std::string error;
  EXPECT_EQ(render_merged_report(in, &error).worst_exit, 4);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace intox::sweep
