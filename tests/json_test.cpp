// stats::JsonWriter: the one JSON emitter behind plan exports, deadlock
// reports, service stats and bench JSON.  Pins escaping, comma and line
// placement, bit-exact doubles and raw-document embedding.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "stats/json.hpp"

namespace {

using hidisc::stats::JsonWriter;

std::string one_string(const std::string& s) {
  JsonWriter w;
  w.begin_array().value(s).end_array();
  return w.str();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(one_string("q\"x\\y"), "[\n  \"q\\\"x\\\\y\"\n]\n");
  EXPECT_EQ(one_string("a\nb\tc\rd"), "[\n  \"a\\nb\\tc\\rd\"\n]\n");
  EXPECT_EQ(one_string(std::string("\x01\x1f\x00z", 4)),
            "[\n  \"\\u0001\\u001f\\u0000z\"\n]\n");
  // Printable ASCII, DEL and UTF-8 bytes pass through untouched.
  EXPECT_EQ(one_string("caf\xc3\xa9 \x7f/"), "[\n  \"caf\xc3\xa9 \x7f/\"\n]\n");
}

TEST(JsonWriter, KeysAreEscapedLikeValues) {
  JsonWriter w;
  w.begin_object().field("a\"b", "c").end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\\\"b\": \"c\"\n}\n");
}

TEST(JsonWriter, CommasAcrossNestedEmptyAndNonEmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("a").begin_object().end_object();
  w.key("b").begin_array().end_array();
  w.key("c").begin_array();
  w.value(1).begin_object().end_object();
  w.begin_array().value(2).value(3).end_array();
  w.begin_array().begin_array().end_array().begin_object().end_object();
  w.end_array();
  w.end_array();
  w.key("d").begin_object().key("e").begin_object();
  w.field("f", 4).key("g").begin_array().value(5).begin_object()
      .field("h", 6).field("i", 7).end_object().end_array();
  w.end_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"a\": {},\n"
            "  \"b\": [],\n"
            "  \"c\": [\n"
            "    1,\n"
            "    {},\n"
            "    [2, 3],\n"
            "    [[], {}]\n"
            "  ],\n"
            "  \"d\": {\n"
            "    \"e\": {\"f\": 4, \"g\": [5, {\"h\": 6, \"i\": 7}]}\n"
            "  }\n"
            "}\n");
}

TEST(JsonWriter, EmptyDocumentsAndScalars) {
  JsonWriter a;
  a.begin_object().end_object();
  EXPECT_EQ(a.str(), "{}\n");
  JsonWriter b;
  b.begin_array().end_array();
  EXPECT_EQ(b.str(), "[]\n");

  JsonWriter w;
  w.begin_object()
      .field("t", true)
      .field("f", false)
      .field("i", -5)
      .field("min", std::numeric_limits<std::int64_t>::min())
      .field("max", std::numeric_limits<std::uint64_t>::max())
      .field("sz", std::size_t{7})
      .field("u16", std::uint16_t{65535})
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"t\": true,\n  \"f\": false,\n  \"i\": -5,\n"
            "  \"min\": -9223372036854775808,\n"
            "  \"max\": 18446744073709551615,\n  \"sz\": 7,\n"
            "  \"u16\": 65535\n}\n");
}

TEST(JsonWriter, DoublesRoundTripBitExactly) {
  const std::vector<double> values = {
      0.0,     -0.0,     0.1,      1.0 / 3.0, 2.0 / 3.0, std::numbers::pi,
      1e-300,  5e-324,   DBL_MIN,  DBL_MAX,   -DBL_MAX,  123456789.123456789,
      4800000, 1234.5,   1e21,     -7.25e-10, 0.30000000000000004};
  JsonWriter w;
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();

  // One element per line at depth 1: "[\n  v,\n  v\n]\n".
  std::vector<std::string> tokens;
  std::string cur;
  for (const char c : w.str()) {
    if (c == '[' || c == ']' || c == ',' || c == '\n' || c == ' ') {
      if (!cur.empty()) tokens.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  ASSERT_EQ(tokens.size(), values.size()) << w.str();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(tokens[i], hidisc::stats::format_double(values[i]));
    const double back = std::strtod(tokens[i].c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &values[i], sizeof back), 0)
        << tokens[i] << " does not round-trip";
  }
  EXPECT_EQ(hidisc::stats::format_double(0.1), "0.10000000000000001");
  EXPECT_EQ(hidisc::stats::format_double(1234.5), "1234.5");
}

TEST(JsonWriter, RawEmbedsAnAlreadySerialisedDocument) {
  JsonWriter inner;
  inner.begin_object().field("kind", "deadlock").end_object();
  ASSERT_EQ(inner.str(), "{\n  \"kind\": \"deadlock\"\n}\n");

  JsonWriter w;
  w.begin_object();
  w.key("cells").begin_array();
  w.begin_object().field("ok", false).key("diagnostic").raw(inner.str());
  w.field("after", 1).end_object();
  w.begin_object().key("diagnostic").raw("null").end_object();
  w.end_array();
  w.key("tail").raw("[1,2]");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"cells\": [\n"
            "    {\"ok\": false, \"diagnostic\": {\"kind\": \"deadlock\"}, "
            "\"after\": 1},\n"
            "    {\"diagnostic\": null}\n"
            "  ],\n"
            "  \"tail\": [1,2]\n"
            "}\n");
}

// A document embedded below the broken levels reads exactly as if the
// writer had produced it in place: one line, ", " between members, and
// escaped newlines and commas inside strings untouched.
TEST(JsonWriter, RawDocumentBelowTheBrokenLevelsTakesOneLine) {
  const auto report = [](JsonWriter& w) {
    w.begin_object().field("cause", "a,\nb");
    w.key("queues").begin_array();
    w.begin_object().field("name", "LDQ").key("ids").begin_array();
    w.value(1).value(2).end_array().end_object();
    w.end_array();
    w.key("empty").begin_array().end_array().end_object();
  };
  JsonWriter inner;
  report(inner);
  ASSERT_NE(inner.str().find('\n'), inner.str().size() - 1);

  JsonWriter embedded, native;
  for (JsonWriter* w : {&embedded, &native}) {
    w->begin_object().key("cells").begin_array().begin_object();
    w->key("diagnostic");
    if (w == &embedded) w->raw(inner.str());
    else report(*w);
    w->end_object().end_array().end_object();
  }
  EXPECT_EQ(embedded.str(), native.str());
  EXPECT_EQ(embedded.str(),
            "{\n"
            "  \"cells\": [\n"
            "    {\"diagnostic\": {\"cause\": \"a,\\nb\", \"queues\": "
            "[{\"name\": \"LDQ\", \"ids\": [1, 2]}], \"empty\": []}}\n"
            "  ]\n"
            "}\n");
}

}  // namespace
