/**
 * @file
 * JSON parser tests: value kinds, exact number text preservation,
 * string escapes, structural errors with line/column, duplicate-key
 * rejection and member ordering.
 */

#include <gtest/gtest.h>

#include "scenario/json.hpp"

namespace quetzal {
namespace scenario {
namespace json {
namespace {

Value
parseOk(const std::string &text)
{
    ParseError error;
    const auto value = parse(text, error);
    EXPECT_TRUE(value.has_value()) << error.describe();
    return value.value_or(Value{});
}

ParseError
parseFail(const std::string &text)
{
    ParseError error;
    const auto value = parse(text, error);
    EXPECT_FALSE(value.has_value()) << "should not parse: " << text;
    return error;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").isBool());
    EXPECT_TRUE(parseOk("true").boolean);
    EXPECT_FALSE(parseOk("false").boolean);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseOk("42").asUint64(), 42u);
    EXPECT_DOUBLE_EQ(parseOk("-7").asDouble().value(), -7.0);
    EXPECT_FALSE(parseOk("-7").asUint64().has_value());
    EXPECT_DOUBLE_EQ(parseOk("2.5e3").asDouble().value(), 2500.0);
}

TEST(Json, NumbersKeepRawText)
{
    // A 64-bit seed must not round-trip through double.
    const Value v = parseOk("18446744073709551615");
    EXPECT_EQ(v.text, "18446744073709551615");
    EXPECT_EQ(v.asUint64(), 18446744073709551615ull);
}

TEST(Json, IntegerAccessorsRejectFractions)
{
    EXPECT_FALSE(parseOk("1.5").asUint64().has_value());
    EXPECT_FALSE(parseOk("1e3").asUint64().has_value());
    EXPECT_FALSE(parseOk("-1").asUint64().has_value());
    EXPECT_TRUE(parseOk("1.5").asDouble().has_value());
}

TEST(Json, ParsesNestedStructures)
{
    const Value v = parseOk(
        "{\"a\": [1, 2, {\"b\": true}], \"c\": \"x\"}");
    ASSERT_TRUE(v.isObject());
    const Value *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_TRUE(a->items[2].find("b")->boolean);
    EXPECT_EQ(v.find("c")->asString(), "x");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, MembersKeepSourceOrder)
{
    const Value v = parseOk("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_EQ(v.members.size(), 3u);
    EXPECT_EQ(v.members[0].first, "z");
    EXPECT_EQ(v.members[1].first, "a");
    EXPECT_EQ(v.members[2].first, "m");
}

TEST(Json, DecodesStringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\n\\t\\\"b\\\\\"").asString(),
              "a\n\t\"b\\");
    EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");
    // Surrogate pair -> 4-byte UTF-8.
    EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsDuplicateKeys)
{
    const ParseError error = parseFail("{\"a\": 1, \"a\": 2}");
    EXPECT_NE(error.message.find("duplicate key"), std::string::npos);
}

TEST(Json, ErrorsCarryLineAndColumn)
{
    const ParseError error = parseFail("{\n  \"a\": 1,\n  oops\n}");
    EXPECT_EQ(error.line, 3);
    EXPECT_GT(error.column, 0);
    EXPECT_NE(error.describe().find("line 3"), std::string::npos);
}

TEST(Json, RejectsMalformedDocuments)
{
    parseFail("");
    parseFail("{");
    parseFail("[1, 2,]");
    parseFail("{\"a\": }");
    parseFail("{\"a\": 1,}");
    parseFail("01");
    parseFail("1.");
    parseFail("\"unterminated");
    parseFail("true false");
    parseFail("nul");
}

TEST(Json, MakersRoundTrip)
{
    EXPECT_EQ(makeString("hi").asString(), "hi");
    EXPECT_EQ(makeNumber(std::uint64_t(7)).asUint64(), 7u);
    EXPECT_EQ(makeNumber(std::uint64_t(18446744073709551615ull)).text,
              "18446744073709551615");
    EXPECT_DOUBLE_EQ(makeNumber(2.5).asDouble().value(), 2.5);
    EXPECT_TRUE(makeBool(true).isBool());
    EXPECT_TRUE(makeBool(true).boolean);
}

TEST(Json, RejectsTooDeepNesting)
{
    std::string text(100, '[');
    text += std::string(100, ']');
    const ParseError error = parseFail(text);
    EXPECT_NE(error.message.find("nesting"), std::string::npos);
}

} // namespace
} // namespace json
} // namespace scenario
} // namespace quetzal
