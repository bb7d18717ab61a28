#include "streamrel/util/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace streamrel {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-0.5").as_number(), -0.5);
  EXPECT_DOUBLE_EQ(parse_json("1.25e2").as_number(), 125.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesStringsWithEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(parse_json(R"("A")").as_string(), "A");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue doc = parse_json(
      R"({"queries": [{"source": 0, "sink": 5, "d": 2,
                       "overrides": [{"edge": 3, "p": 0.25}]}],
          "max_mask_tables": 16})");
  const JsonValue* queries = doc.find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_TRUE(queries->is_array());
  ASSERT_EQ(queries->as_array().size(), 1u);
  const JsonValue& q = queries->as_array().front();
  EXPECT_DOUBLE_EQ(q.find("source")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(q.find("d")->as_number(), 2.0);
  const JsonValue& o = q.find("overrides")->as_array().front();
  EXPECT_DOUBLE_EQ(o.find("edge")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(o.find("p")->as_number(), 0.25);
  EXPECT_DOUBLE_EQ(doc.find("max_mask_tables")->as_number(), 16.0);
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const JsonValue doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  const JsonValue::Object& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
  EXPECT_TRUE(parse_json("  [ ]  ").as_array().empty());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::invalid_argument);
  EXPECT_THROW(parse_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_json("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(parse_json("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse_json("12 34"), std::invalid_argument);
  EXPECT_THROW(parse_json("tru"), std::invalid_argument);
  EXPECT_THROW(parse_json("1.2.3"), std::invalid_argument);
}

TEST(Json, NestingDepthIsCapped) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth)));
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1)), std::invalid_argument);
  EXPECT_THROW(parse_json(std::string(1'000'000, '{')), std::invalid_argument);
}

TEST(Json, KindMismatchThrows) {
  const JsonValue v = parse_json("42");
  EXPECT_THROW(v.as_string(), std::invalid_argument);
  EXPECT_THROW(v.as_array(), std::invalid_argument);
  EXPECT_THROW(v.as_object(), std::invalid_argument);
  EXPECT_THROW(parse_json("\"s\"").as_number(), std::invalid_argument);
}

}  // namespace
}  // namespace streamrel
