// Tests for the one JSON reader (curb/prof/json.hpp): parsing, the fixed
// input limits, and the typed accessors every tool input goes through.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "curb/prof/json.hpp"

namespace prof = curb::prof;

namespace {

TEST(JsonParser, ParsesScalarsAndNesting) {
  const prof::JsonValue doc =
      prof::parse_json(R"({"a":1.5,"b":[true,null,"x\n"],"c":{"d":-2e3}})");
  ASSERT_EQ(doc.type, prof::JsonValue::Type::kObject);
  EXPECT_DOUBLE_EQ(doc.find("a")->number, 1.5);
  const prof::JsonValue* b = doc.find("b");
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[1].type, prof::JsonValue::Type::kNull);
  EXPECT_EQ(b->array[2].str, "x\n");
  EXPECT_DOUBLE_EQ(doc.find("c")->find("d")->number, -2000.0);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(prof::parse_json("{"), std::runtime_error);
  EXPECT_THROW(prof::parse_json(R"({"a":})"), std::runtime_error);
  EXPECT_THROW(prof::parse_json(R"({"a":1} extra)"), std::runtime_error);
  EXPECT_THROW(prof::parse_json(R"(["unterminated)"), std::runtime_error);
  EXPECT_THROW(prof::parse_json("{\"a\":1,}"), std::runtime_error);
}

TEST(JsonParser, CapsNestingDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)prof::parse_json(nested(prof::kMaxJsonDepth)));
  EXPECT_THROW((void)prof::parse_json(nested(prof::kMaxJsonDepth + 1)),
               std::runtime_error);
  // A million unclosed brackets must fail cleanly, not overflow the stack.
  EXPECT_THROW((void)prof::parse_json(std::string(1'000'000, '[')), std::runtime_error);
}

TEST(JsonParser, RejectsRawControlCharactersInStrings) {
  EXPECT_THROW((void)prof::parse_json("\"a\nb\""), std::runtime_error);
  EXPECT_THROW((void)prof::parse_json("{\"k\":\"tab\there\"}"), std::runtime_error);
  EXPECT_THROW((void)prof::parse_json(std::string{"\"nul\0\"", 6}), std::runtime_error);
  // The escaped forms, and bytes >= 0x20 (UTF-8 included), are fine.
  EXPECT_EQ(prof::parse_json(R"("a\nb\u0001")").str, "a\nb\x01");
  EXPECT_EQ(prof::parse_json("\"caf\xc3\xa9\"").str, "caf\xc3\xa9");
}

TEST(JsonValue, TypedAccessorsRejectOtherTypesAndOutOfRangeIntegers) {
  const prof::JsonValue doc = prof::parse_json(
      R"({"n":42,"neg":-1,"frac":1.5,"big":1e300,"s":"x","b":true,"a":[],"o":{}})");
  EXPECT_EQ(doc.at("n").as_uint("n"), 42u);
  EXPECT_EQ(doc.at("neg").as_int("neg"), -1);
  EXPECT_DOUBLE_EQ(doc.at("frac").as_number("frac"), 1.5);
  EXPECT_EQ(doc.at("s").as_string("s"), "x");
  EXPECT_TRUE(doc.at("b").as_bool("b"));
  EXPECT_TRUE(doc.at("a").as_array("a").empty());
  EXPECT_TRUE(doc.at("o").as_object("o").empty());

  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
  EXPECT_THROW((void)doc.at("neg").as_uint("neg"), std::runtime_error);
  EXPECT_THROW((void)doc.at("frac").as_uint("frac"), std::runtime_error);
  EXPECT_THROW((void)doc.at("frac").as_int("frac"), std::runtime_error);
  EXPECT_THROW((void)doc.at("big").as_uint("big"), std::runtime_error);
  EXPECT_THROW((void)doc.at("big").as_int("big"), std::runtime_error);
  EXPECT_THROW((void)doc.at("s").as_number("s"), std::runtime_error);
  EXPECT_THROW((void)doc.at("n").as_string("n"), std::runtime_error);
  EXPECT_THROW((void)doc.at("n").as_bool("n"), std::runtime_error);
  EXPECT_THROW((void)doc.at("o").as_array("o"), std::runtime_error);
  EXPECT_THROW((void)doc.at("a").as_object("a"), std::runtime_error);
  try {
    (void)doc.at("neg").as_uint("neg");
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("'neg'"), std::string::npos) << e.what();
  }
}

}  // namespace
