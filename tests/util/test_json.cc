/**
 * @file
 * Unit tests for the JSON parser and writer.
 */

#include <gtest/gtest.h>

#include "util/json.hh"
#include "util/logging.hh"

namespace afsb {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_TRUE(parseJson("true").asBool());
    EXPECT_FALSE(parseJson("false").asBool());
    EXPECT_DOUBLE_EQ(parseJson("3.5").asNumber(), 3.5);
    EXPECT_DOUBLE_EQ(parseJson("-42").asNumber(), -42.0);
    EXPECT_DOUBLE_EQ(parseJson("1e3").asNumber(), 1000.0);
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedStructure)
{
    const auto v = parseJson(R"({
        "name": "2PV7",
        "sequences": [
            {"protein": {"id": "A", "sequence": "MKV"}},
            {"protein": {"id": "B", "sequence": "MKV"}}
        ],
        "modelSeeds": [1, 2, 3]
    })");
    EXPECT_EQ(v.at("name").asString(), "2PV7");
    EXPECT_EQ(v.at("sequences").size(), 2u);
    EXPECT_EQ(v.at("sequences").at(0).at("protein").at("id").asString(),
              "A");
    EXPECT_EQ(v.at("modelSeeds").at(2).asInt(), 3);
}

TEST(Json, ParsesEscapes)
{
    const auto v = parseJson(R"("a\nb\t\"q\" \\ A")");
    EXPECT_EQ(v.asString(), "a\nb\t\"q\" \\ A");
}

TEST(Json, ParsesUnicodeEscapeToUtf8)
{
    const auto v = parseJson(R"("é")");
    EXPECT_EQ(v.asString(), "\xc3\xa9");
}

TEST(Json, UnicodeEscapesCoverAllUtf8Widths)
{
    // 1-byte (ASCII), 2-byte (é), and 3-byte (snowman) code points.
    EXPECT_EQ(parseJson(R"("A")").asString(), "A");
    EXPECT_EQ(parseJson(R"("é")").asString(), "\xc3\xa9");
    EXPECT_EQ(parseJson(R"("☃")").asString(),
              "\xe2\x98\x83");
    // Hex digits are case-insensitive.
    EXPECT_EQ(parseJson(R"("é")").asString(), "\xc3\xa9");
    // Escaped and adjacent literal text compose.
    EXPECT_EQ(parseJson(R"("a☃b")").asString(),
              "a\xe2\x98\x83" "b");
}

TEST(Json, RejectsMalformedUnicodeEscapes)
{
    EXPECT_THROW(parseJson(R"("\u12")"), FatalError);   // short
    EXPECT_THROW(parseJson(R"("\u12g4")"), FatalError); // non-hex
    EXPECT_THROW(parseJson(R"("\u")"), FatalError);     // empty
    EXPECT_THROW(parseJson("\"\\u123"), FatalError);    // truncated
}

TEST(Json, RoundTripsThroughDump)
{
    const std::string doc =
        R"({"a":[1,2.5,true,null,"x"],"b":{"c":-3},"d":""})";
    const auto v = parseJson(doc);
    const auto v2 = parseJson(v.dump());
    EXPECT_TRUE(v == v2);
}

TEST(Json, PrettyDumpParsesBack)
{
    const auto v = parseJson(R"({"k":[{"a":1},{"b":[2,3]}]})");
    const auto v2 = parseJson(v.dumpPretty());
    EXPECT_TRUE(v == v2);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), FatalError);
    EXPECT_THROW(parseJson("{"), FatalError);
    EXPECT_THROW(parseJson("[1,]"), FatalError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parseJson("tru"), FatalError);
    EXPECT_THROW(parseJson("\"unterminated"), FatalError);
    EXPECT_THROW(parseJson("1 2"), FatalError);
    EXPECT_THROW(parseJson("\"bad\x01ctl\""), FatalError);
}

TEST(Json, DeepNestingFailsWithDepthAndPosition)
{
    EXPECT_EQ(parseJson(std::string(512, '[') + std::string(512, ']'))
                  .size(),
              1u);
    EXPECT_THROW(parseJson(std::string(513, '[') +
                           std::string(513, ']')),
                 FatalError);
    // Two million open brackets used to overflow the stack.
    try {
        parseJson(std::string(2'000'000, '['));
        FAIL() << "deep nesting parsed";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "JSON parse error at line 1 col 513: nesting "
                     "depth 513 exceeds the limit of 512");
    }
    EXPECT_THROW(parseJson("{\"a\":" + std::string(600, '[')),
                 FatalError);
}

TEST(Json, TypeMismatchIsFatal)
{
    const auto v = parseJson("[1]");
    EXPECT_THROW(v.asObject(), FatalError);
    EXPECT_THROW(v.at("x"), FatalError);
    EXPECT_THROW(v.at(5), FatalError);
}

TEST(Json, GetWithFallback)
{
    const auto v = parseJson(R"({"a":1})");
    const JsonValue dflt(99);
    EXPECT_EQ(v.get("a", dflt).asInt(), 1);
    EXPECT_EQ(v.get("zz", dflt).asInt(), 99);
}

TEST(Json, BuildsDocumentsProgrammatically)
{
    auto obj = JsonValue::makeObject();
    obj["name"] = JsonValue("promo");
    auto arr = JsonValue::makeArray();
    arr.push(JsonValue(1));
    arr.push(JsonValue(2));
    obj["seeds"] = arr;
    const auto round = parseJson(obj.dump());
    EXPECT_EQ(round.at("name").asString(), "promo");
    EXPECT_EQ(round.at("seeds").size(), 2u);
}

TEST(Json, BenchSchemaRoundTrips)
{
    // The `{"benchmarks": [{"name", "ns_per_op", "counters"}]}`
    // shape every bench --json writer emits and tools/bench_check
    // consumes, including a trend-file wrapper around it.
    auto rec = JsonValue::makeObject();
    rec["name"] = JsonValue("ServeCluster/pools:4x2");
    rec["iterations"] = JsonValue(static_cast<int64_t>(1));
    rec["ns_per_op"] = JsonValue(10176672090570.549);
    auto counters = JsonValue::makeObject();
    counters["completed"] = JsonValue(static_cast<uint64_t>(68));
    counters["cache_hit_rate"] = JsonValue(0.30882352941176472);
    rec["counters"] = counters;
    auto benches = JsonValue::makeArray();
    benches.push(rec);
    auto doc = JsonValue::makeObject();
    doc["benchmarks"] = benches;

    auto entry = JsonValue::makeObject();
    entry["label"] = JsonValue("seed");
    entry["benchmarks"] = doc.at("benchmarks");
    auto entries = JsonValue::makeArray();
    entries.push(entry);
    auto trend = JsonValue::makeObject();
    trend["entries"] = entries;

    for (const JsonValue *v : {&doc, &trend}) {
        const auto compact = parseJson(v->dump());
        const auto pretty = parseJson(v->dumpPretty());
        EXPECT_TRUE(compact == *v);
        EXPECT_TRUE(pretty == *v);
    }
    const auto back = parseJson(trend.dump());
    const auto &b =
        back.at("entries").at(0).at("benchmarks").at(0);
    EXPECT_EQ(b.at("name").asString(), "ServeCluster/pools:4x2");
    // Doubles survive the writer's round-trip-precision format.
    EXPECT_DOUBLE_EQ(b.at("ns_per_op").asNumber(),
                     10176672090570.549);
    EXPECT_DOUBLE_EQ(
        b.at("counters").at("cache_hit_rate").asNumber(),
        0.30882352941176472);
}

TEST(Json, IntegersSerializeWithoutDecimalPoint)
{
    EXPECT_EQ(JsonValue(42).dump(), "42");
    EXPECT_EQ(JsonValue(-7).dump(), "-7");
    EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
}

} // namespace
} // namespace afsb
