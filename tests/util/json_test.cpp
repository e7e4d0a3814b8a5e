#include "util/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace partree::util::json {
namespace {

TEST(JsonTest, ParsesPrimitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-1.5e3").as_double(), -1500.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  17  ").as_u64(), 17u);
}

TEST(JsonTest, ParsesNestedStructures) {
  const Value v = parse(R"({
    "suites": [ {"name": "a", "wall_ms": [1.5, 2.5]}, {"name": "b"} ],
    "count": 2,
    "ok": true
  })");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("count").as_u64(), 2u);
  EXPECT_TRUE(v.at("ok").as_bool());
  const Array& suites = v.at("suites").as_array();
  ASSERT_EQ(suites.size(), 2u);
  EXPECT_EQ(suites[0].at("name").as_string(), "a");
  EXPECT_DOUBLE_EQ(suites[0].at("wall_ms").as_array()[1].as_double(), 2.5);
}

TEST(JsonTest, FindAndAtBehaveOnMissingKeys) {
  const Value v = parse(R"({"x": 1})");
  EXPECT_NE(v.find("x"), nullptr);
  EXPECT_EQ(v.find("y"), nullptr);
  EXPECT_THROW((void)v.at("y"), std::runtime_error);
  EXPECT_EQ(parse("3").find("x"), nullptr);  // non-objects have no members
}

TEST(JsonTest, DumpParseRoundTrip) {
  Object obj;
  obj.emplace("name", Value("bench \"quoted\" \n tab\t"));
  obj.emplace("vals", Value(Array{Value(1.25), Value(std::uint64_t{7}),
                                  Value(true), Value(nullptr)}));
  obj.emplace("nested", Value(Object{{"k", Value(-3)}}));
  const Value original{std::move(obj)};

  const Value reparsed = parse(original.dump());
  EXPECT_EQ(reparsed, original);
  // Canonical output: dump of the reparse is byte-identical.
  EXPECT_EQ(reparsed.dump(), original.dump());
}

TEST(JsonTest, IntegralNumbersPrintWithoutFraction) {
  EXPECT_EQ(Value(std::uint64_t{123456}).dump(), "123456");
  EXPECT_EQ(Value(3.0).dump(), "3");
  EXPECT_EQ(Value(3.25).dump(), "3.25");
}

TEST(JsonTest, EscapesRoundTrip) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  EXPECT_EQ(parse(quote(raw)).as_string(), raw);
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonTest, Utf8EscapesToAsciiAndRoundTrips) {
  // 2-byte (é), 3-byte (€), and 4-byte astral (𝄞, U+1D11E) sequences mixed
  // with the short escapes.
  const std::string raw = "phase \"réalloc\"\n\t\xe2\x82\xac \xf0\x9d\x84\x9e";
  const std::string quoted = quote(raw);
  for (const char c : quoted) {
    EXPECT_GE(c, 0x20) << "quoted output must be pure printable ASCII";
    EXPECT_LT(static_cast<unsigned char>(c), 0x80u);
  }
  EXPECT_NE(quoted.find("\\u00e9"), std::string::npos);   // é
  EXPECT_NE(quoted.find("\\u20ac"), std::string::npos);   // €
  EXPECT_NE(quoted.find("\\ud834"), std::string::npos);   // 𝄞 high surrogate
  EXPECT_NE(quoted.find("\\udd1e"), std::string::npos);   // 𝄞 low surrogate
  EXPECT_EQ(parse(quoted).as_string(), raw);

  // Full Value round trip through dump(): keys and strings survive.
  Object obj;
  obj.emplace("na\xc3\xafve key", Value(raw));
  const Value original{std::move(obj)};
  EXPECT_EQ(parse(original.dump()), original);
}

TEST(JsonTest, InvalidUtf8BecomesReplacementCharacter) {
  // Lone continuation byte, truncated lead, overlong encoding: each lead
  // byte collapses to U+FFFD instead of emitting broken escapes.
  EXPECT_EQ(parse(quote("a\x80z")).as_string(), "a\xef\xbf\xbdz");
  EXPECT_EQ(parse(quote("a\xc3")).as_string(), "a\xef\xbf\xbd");
  EXPECT_EQ(parse(quote("\xc0\xaf")).as_string(),
            "\xef\xbf\xbd\xef\xbf\xbd");  // overlong '/': both bytes invalid
}

TEST(JsonTest, SurrogatePairParsing) {
  EXPECT_EQ(parse(R"("𝄞")").as_string(), "\xf0\x9d\x84\x9e");
  EXPECT_EQ(parse(R"("\ud834\udd1e")").as_string(), "\xf0\x9d\x84\x9e");
  EXPECT_THROW((void)parse(R"("\ud834")"), std::runtime_error);
  EXPECT_THROW((void)parse(R"("\ud834A")"), std::runtime_error);
  EXPECT_THROW((void)parse(R"("\udd1e")"), std::runtime_error);
}

TEST(JsonTest, MalformedInputThrows) {
  EXPECT_THROW((void)parse(""), std::runtime_error);
  EXPECT_THROW((void)parse("{"), std::runtime_error);
  EXPECT_THROW((void)parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW((void)parse("[1, 2,]"), std::runtime_error);
  EXPECT_THROW((void)parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)parse("tru"), std::runtime_error);
  EXPECT_THROW((void)parse("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW((void)parse("nan"), std::runtime_error);
}

TEST(JsonTest, KindMismatchesThrow) {
  const Value v = parse("[1]");
  EXPECT_THROW((void)v.as_object(), std::runtime_error);
  EXPECT_THROW((void)v.as_string(), std::runtime_error);
  EXPECT_THROW((void)parse("-1").as_u64(), std::runtime_error);
  EXPECT_THROW((void)parse("1.5").as_u64(), std::runtime_error);
}

}  // namespace
}  // namespace partree::util::json
