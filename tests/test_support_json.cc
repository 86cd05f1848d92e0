// Unit tests for the JSON model: the pull reader, parsing, serialization,
// ordering (field order is load-bearing for §IV-D), and error handling.
#include "support/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace firmres::support {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, NestedStructure) {
  const Json v = Json::parse(R"({"a":[1,2,{"b":null}],"c":"x"})");
  ASSERT_TRUE(v.is_object());
  const Json* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_TRUE(a->as_array()[2].find("b")->is_null());
  EXPECT_EQ(v.find("c")->as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, PreservesKeyOrder) {
  const Json v = Json::parse(R"({"z":1,"a":2,"m":3})");
  const auto& obj = v.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(JsonParse, Whitespace) {
  const Json v = Json::parse("  { \"a\" :\n[ 1 , 2 ]\t}  ");
  EXPECT_EQ(v.find("a")->size(), 2u);
}

class JsonBadInput : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonBadInput, Throws) {
  EXPECT_THROW(Json::parse(GetParam()), ParseError);
  EXPECT_FALSE(Json::try_parse(GetParam()).has_value());
}

INSTANTIATE_TEST_SUITE_P(Malformed, JsonBadInput,
                         ::testing::Values("", "{", "[1,", "{\"a\"}",
                                           "{\"a\":}", "tru", "\"unterminated",
                                           "{\"a\":1}x", "nul", "[1 2]",
                                           "{'a':1}", "+5"));

TEST(JsonParse, NestingDepthIsBounded) {
  const std::string at_limit = std::string(kJsonMaxDepth, '[') +
                               std::string(kJsonMaxDepth, ']');
  EXPECT_TRUE(Json::parse(at_limit).is_array());

  // One level more fails at the bracket that crosses the limit.
  try {
    (void)Json::parse("[" + at_limit + "]");
    FAIL() << "no ParseError past the depth limit";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("offset " +
                                         std::to_string(kJsonMaxDepth)),
              std::string::npos)
        << e.what();
  }
  std::string objects;
  for (int i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"a\":";
  EXPECT_THROW(Json::parse(objects), ParseError);
  // Deep enough to overflow the stack of an unbounded recursive parser.
  EXPECT_THROW(Json::parse(std::string(300000, '[')), ParseError);
  EXPECT_FALSE(Json::try_parse(std::string(300000, '[')).has_value());
}

// The messages and offsets of the parser JsonReader replaced (each
// checked against it).
TEST(JsonParse, ErrorMessagesNameTheOffset) {
  for (const auto& [text, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"", "offset 0: unexpected end of input"},
           {"{\"a\"}", "offset 4: expected ':'"},
           {"{\"a\":}", "offset 5: expected a value"},
           {"tru", "offset 0: bad literal"},
           {"\"open", "offset 5: unterminated string"},
           {"{\"a\":1}x", "offset 7: trailing characters after JSON value"},
           {"[1 2]", "offset 3: expected ','"},
           {"[1,]", "offset 3: expected a value"},
           {"{\"a\":1,}", "offset 7: expected '\"'"},
           {"\"\\u12G4\"", "offset 6: bad hex digit in \\u escape"},
       }) {
    try {
      (void)Json::parse(text);
      ADD_FAILURE() << "parsed: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), "JSON parse error at " + message);
    }
  }
}

// Numbers go through std::from_chars; these are the outcomes std::stod
// gave, which the reader keeps.
TEST(JsonParse, NumbersAcceptWhatStodAccepted) {
  EXPECT_EQ(Json::parse("1.").as_number(), 1.0);
  EXPECT_EQ(Json::parse("01").as_number(), 1.0);
  const double minus_zero = Json::parse("-0").as_number();
  EXPECT_EQ(minus_zero, 0.0);
  EXPECT_TRUE(std::signbit(minus_zero));
  EXPECT_EQ(Json::parse("1.e5").as_number(), 100000.0);
  EXPECT_EQ(Json::parse("1.7976931348623157e308").as_number(),
            1.7976931348623157e308);
  for (const char* bad : {"1e", "-", "1e999", "-1e999", "1e-310", "1e-400",
                          "1.5.3", "1-2", "-.5"}) {
    try {
      (void)Json::parse(bad);
      ADD_FAILURE() << "parsed: " << bad;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("JSON parse error at offset"),
                std::string::npos);
    }
  }
}

TEST(JsonReader, PullsValuesInDocumentOrder) {
  const std::string text = R"( {"a": [1, "x"], "b": {"c": null}, "d": true} )";
  JsonReader r(text);
  ASSERT_EQ(r.peek(), JsonReader::Kind::Object);
  r.begin_object();
  std::string_view key;
  ASSERT_TRUE(r.next_member(key));
  EXPECT_EQ(key, "a");
  ASSERT_EQ(r.peek(), JsonReader::Kind::Array);
  r.begin_array();
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.read_number(), 1.0);
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.read_string(), "x");
  EXPECT_FALSE(r.next_element());
  ASSERT_TRUE(r.next_member(key));
  EXPECT_EQ(key, "b");
  r.skip();
  ASSERT_TRUE(r.next_member(key));
  EXPECT_EQ(key, "d");
  EXPECT_EQ(r.peek(), JsonReader::Kind::Bool);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.next_member(key));
  r.finish();
  EXPECT_EQ(r.offset(), text.size());
}

TEST(JsonReader, UnescapedStringsAreViewsIntoTheText) {
  const std::string text = R"(["plain", "esc\"aped"])";
  JsonReader r(text);
  r.begin_array();
  ASSERT_TRUE(r.next_element());
  const std::string_view plain = r.read_string();
  EXPECT_EQ(plain, "plain");
  EXPECT_EQ(plain.data(), text.data() + 2);
  ASSERT_TRUE(r.next_element());
  const std::string_view escaped = r.read_string();
  EXPECT_EQ(escaped, "esc\"aped");
  EXPECT_TRUE(escaped.data() < text.data() ||
              escaped.data() >= text.data() + text.size());
}

TEST(JsonReader, CopyIsABookmark) {
  const std::string text = R"({"later": [1, 2], "now": 3})";
  JsonReader r(text);
  r.begin_object();
  std::string_view key;
  ASSERT_TRUE(r.next_member(key));
  JsonReader bookmark = r;
  r.skip();
  ASSERT_TRUE(r.next_member(key));
  EXPECT_EQ(r.read_number(), 3.0);
  EXPECT_FALSE(r.next_member(key));
  r.finish();
  // The bookmark reads the skipped value.
  bookmark.begin_array();
  double sum = 0;
  while (bookmark.next_element()) sum += bookmark.read_number();
  EXPECT_EQ(sum, 3.0);
}

TEST(JsonReader, CheckedIntegerRejectsWhatACastCannotHold) {
  EXPECT_EQ(checked_integer<int>(5.9), 5);
  EXPECT_EQ(checked_integer<int>(-0.0), 0);
  EXPECT_FALSE(checked_integer<int>(-1.0).has_value());
  EXPECT_FALSE(checked_integer<int>(2147483648.0).has_value());
  EXPECT_EQ(checked_integer<std::uint32_t>(4294967295.0), 4294967295u);
  EXPECT_FALSE(checked_integer<std::uint32_t>(4294967296.0).has_value());
  EXPECT_FALSE(
      checked_integer<std::uint64_t>(18446744073709551616.0).has_value());
  EXPECT_FALSE(checked_integer<std::uint64_t>(1e300).has_value());
}

TEST(JsonDump, RoundTrip) {
  const char* doc =
      R"({"mac":"a4:2b:b0:11:22:33","sn":"AB123","nested":{"x":[1,2.5,true,null]}})";
  const Json v = Json::parse(doc);
  const Json again = Json::parse(v.dump());
  EXPECT_EQ(v, again);
}

TEST(JsonDump, EscapesSpecials) {
  const Json v{std::string("a\"b\nc")};
  EXPECT_EQ(v.dump(), "\"a\\\"b\\nc\"");
}

TEST(JsonDump, IntegersRenderWithoutDecimal) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(JsonDump, Pretty) {
  JsonObject obj;
  obj.emplace_back("a", Json(1));
  const std::string text = Json(std::move(obj)).dump(/*pretty=*/true);
  EXPECT_NE(text.find("\n"), std::string::npos);
  EXPECT_EQ(Json::parse(text).find("a")->as_number(), 1.0);
}

TEST(JsonDump, PrettyAtIndentMatchesArrayElement) {
  // Framing elements dumped at indent 1 as "[\n  e0,\n  e1\n]" must give
  // the bytes of the whole array dumped at indent 0.
  const Json a = Json::parse(R"({"k": [1, {"x": "y"}], "e": {}})");
  const Json b = Json::parse(R"([true, null])");
  const std::string framed =
      "[\n  " + a.dump(true, 1) + ",\n  " + b.dump(true, 1) + "\n]";
  EXPECT_EQ(framed, Json(JsonArray{a, b}).dump(true));
  EXPECT_EQ(a.dump(false, 3), a.dump());  // compact output has no indent
}

TEST(JsonSet, InsertAndOverwrite) {
  Json v{JsonObject{}};
  v.set("a", Json(1));
  v.set("b", Json(2));
  v.set("a", Json(3));  // overwrite keeps position
  const auto& obj = v.as_object();
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj[0].first, "a");
  EXPECT_DOUBLE_EQ(obj[0].second.as_number(), 3.0);
}

TEST(JsonSet, OnNonObjectResets) {
  Json v(5);
  v.set("k", Json("v"));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("k")->as_string(), "v");
}

TEST(JsonAccessors, TypeMismatchChecks) {
  const Json v(5);
  EXPECT_THROW(v.as_string(), InternalError);
  EXPECT_THROW(v.as_array(), InternalError);
  EXPECT_THROW(v.as_object(), InternalError);
  EXPECT_THROW(v.as_bool(), InternalError);
}

TEST(JsonEmpty, Containers) {
  EXPECT_EQ(Json::parse("[]").size(), 0u);
  EXPECT_EQ(Json::parse("{}").size(), 0u);
  EXPECT_EQ(Json::parse("[]").dump(), "[]");
  EXPECT_EQ(Json::parse("{}").dump(), "{}");
}

}  // namespace
}  // namespace firmres::support
