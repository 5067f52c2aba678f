// The JSON reader that postmortem tooling rests on: it must accept
// exactly what JsonWriter emits and refuse everything else loudly.
#include "obs/json_parse.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/json.hpp"

namespace intox::obs {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, &v, &error)) << error;
  return v;
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_ok("null").kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_DOUBLE_EQ(parse_ok("42").number, 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-1.5e2").number, -150.0);
  EXPECT_EQ(parse_ok("\"hi\"").text, "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_ok("\"a\\\"b\\\\c\\n\\t\"").text, "a\"b\\c\n\t");
  // BMP \uXXXX decodes to UTF-8.
  EXPECT_EQ(parse_ok("\"\\u00e9\"").text, "\xc3\xa9");
  EXPECT_EQ(parse_ok("\"\\u0041\"").text, "A");
}

TEST(JsonParse, NestedStructures) {
  const JsonValue v =
      parse_ok("{\"a\":[1,2,{\"b\":true}],\"c\":{\"d\":null}}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[1].as_u64(), 2u);
  EXPECT_TRUE(a->items[2].find("b")->boolean);
  EXPECT_EQ(v.find("c")->find("d")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, MembersKeepSourceOrder) {
  const JsonValue v = parse_ok("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "m");
}

TEST(JsonParse, AccessorsDegradeToZero) {
  EXPECT_EQ(parse_ok("\"text\"").as_u64(), 0u);
  EXPECT_DOUBLE_EQ(parse_ok("null").as_number(), 0.0);
  EXPECT_EQ(parse_ok("-3").as_u64(), 0u);  // negative clamps, not wraps
}

TEST(JsonParse, ErrorsCarryByteOffsets) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\":}", &v, &error));
  EXPECT_NE(error.find("5"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(json_parse("[1,2] trailing", &v, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(json_parse("", &v, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonParse, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse(deep, &v, &error));
  EXPECT_NE(error.find("too deep"), std::string::npos) << error;
}

TEST(JsonParse, RoundTripsJsonWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("test.v1");
  w.key("count").value(std::uint64_t{7});
  w.key("ratio").value(0.25);
  w.key("tags").begin_array().value("a\nb").value(true).end_array();
  w.end_object();
  const JsonValue v = parse_ok(w.str());
  EXPECT_EQ(v.find("schema")->text, "test.v1");
  EXPECT_EQ(v.find("count")->as_u64(), 7u);
  EXPECT_DOUBLE_EQ(v.find("ratio")->as_number(), 0.25);
  EXPECT_EQ(v.find("tags")->items[0].text, "a\nb");
}

TEST(JsonParse, FileVariantDistinguishesIo) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse_file("/nonexistent/doc.json", &v, &error));
  EXPECT_NE(error.find("/nonexistent/doc.json"), std::string::npos);

  const std::string path = ::testing::TempDir() + "json_parse_file.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"ok\":true}\n", f);
  std::fclose(f);
  EXPECT_TRUE(json_parse_file(path, &v, &error)) << error;
  EXPECT_TRUE(v.find("ok")->boolean);
  std::remove(path.c_str());
}

TEST(ReadFile, ReadsPastTheChunkByteForByte) {
  // Three and a half 64 KiB chunks of every byte value, NULs included.
  std::string bytes(3 * 65536 + 32768, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>((i * 131 + i / 257) & 0xff);
  const std::string path = ::testing::TempDir() + "read_file.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  std::string got = "stale contents are replaced";
  ASSERT_TRUE(read_file(path, &got));
  EXPECT_EQ(got.size(), bytes.size());
  EXPECT_TRUE(got == bytes);
  std::remove(path.c_str());

  EXPECT_FALSE(read_file("/nonexistent/read_file.bin", &got));
}

}  // namespace
}  // namespace intox::obs
