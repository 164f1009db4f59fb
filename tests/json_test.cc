#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "json/dom_parser.h"
#include "json/json_path.h"
#include "json/json_value.h"
#include "json/json_writer.h"
#include "json/mison_parser.h"

namespace maxson::json {
namespace {

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(JsonValue::Null().is_null());
  EXPECT_TRUE(JsonValue::Bool(true).is_bool());
  EXPECT_TRUE(JsonValue::Int(3).is_int());
  EXPECT_TRUE(JsonValue::Double(3.5).is_double());
  EXPECT_TRUE(JsonValue::Int(3).is_number());
  EXPECT_TRUE(JsonValue::String("x").is_string());
  EXPECT_TRUE(JsonValue::Array().is_array());
  EXPECT_TRUE(JsonValue::Object().is_object());
}

TEST(JsonValueTest, ObjectPreservesInsertionOrderAndOverwrites) {
  JsonValue obj = JsonValue::Object();
  obj.Set("b", JsonValue::Int(1));
  obj.Set("a", JsonValue::Int(2));
  obj.Set("b", JsonValue::Int(3));  // overwrite keeps position
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "b");
  EXPECT_EQ(obj.members()[0].second.int_value(), 3);
  EXPECT_EQ(obj.Find("a")->int_value(), 2);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(JsonValueTest, Equality) {
  JsonValue a = JsonValue::Object();
  a.Set("x", JsonValue::Int(1));
  JsonValue b = JsonValue::Object();
  b.Set("x", JsonValue::Int(1));
  EXPECT_EQ(a, b);
  b.Set("x", JsonValue::Double(1.0));
  EXPECT_FALSE(a == b);  // int and double are distinct types
}

TEST(DomParserTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->bool_value(), true);
  EXPECT_EQ(ParseJson("false")->bool_value(), false);
  EXPECT_EQ(ParseJson("42")->int_value(), 42);
  EXPECT_EQ(ParseJson("-17")->int_value(), -17);
  EXPECT_DOUBLE_EQ(ParseJson("3.25")->double_value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->double_value(), 1000.0);
  EXPECT_DOUBLE_EQ(ParseJson("-2.5E-2")->double_value(), -0.025);
  EXPECT_EQ(ParseJson("\"hi\"")->string_value(), "hi");
}

TEST(DomParserTest, ParsesNestedStructures) {
  auto result = ParseJson(R"({"a":[1,{"b":"c"},null],"d":{"e":2.5}})");
  ASSERT_TRUE(result.ok()) << result.status();
  const JsonValue& root = *result;
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->elements().size(), 3u);
  EXPECT_EQ(a->At(0).int_value(), 1);
  EXPECT_EQ(a->At(1).Find("b")->string_value(), "c");
  EXPECT_TRUE(a->At(2).is_null());
  EXPECT_DOUBLE_EQ(root.Find("d")->Find("e")->double_value(), 2.5);
}

TEST(DomParserTest, HandlesEscapes) {
  auto result = ParseJson(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->string_value(), "a\"b\\c\nd\teA");
}

TEST(DomParserTest, HandlesSurrogatePairs) {
  auto result = ParseJson(R"("😀")");  // emoji
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->string_value(), "\xF0\x9F\x98\x80");
}

TEST(DomParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("01a").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("\"\\uD800\"").ok());  // unpaired surrogate
}

TEST(DomParserTest, RejectsExcessiveNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonWriterTest, RoundTripsThroughParser) {
  const std::string text =
      R"({"item_id":1,"item_name":"app\"le","sale_count":10,"nested":{"a":[1,2.5,true,null]}})";
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok());
  const std::string rewritten = WriteJson(*parsed);
  auto reparsed = ParseJson(rewritten);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*parsed, *reparsed);
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  std::string out;
  const char raw[] = {'a', '\x01', 'b'};
  AppendEscapedString(std::string_view(raw, 3), &out);
  EXPECT_EQ(out, "\"a\\u0001b\"");
}

class JsonRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

/// Generates a random document and checks write->parse is the identity.
JsonValue RandomValue(Rng* rng, int depth) {
  const int pick = depth > 3 ? static_cast<int>(rng->NextBounded(5))
                             : static_cast<int>(rng->NextBounded(7));
  switch (pick) {
    case 0:
      return JsonValue::Null();
    case 1:
      return JsonValue::Bool(rng->NextBool());
    case 2:
      return JsonValue::Int(rng->NextInt(-1000000, 1000000));
    case 3:
      return JsonValue::Double(rng->NextGaussian(0, 100));
    case 4: {
      std::string s;
      const size_t len = rng->NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->NextInt(32, 126)));
      }
      return JsonValue::String(std::move(s));
    }
    case 5: {
      JsonValue arr = JsonValue::Array();
      const size_t n = rng->NextBounded(4);
      for (size_t i = 0; i < n; ++i) arr.Append(RandomValue(rng, depth + 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::Object();
      const size_t n = rng->NextBounded(4);
      for (size_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(i), RandomValue(rng, depth + 1));
      }
      return obj;
    }
  }
}

TEST_P(JsonRoundTripTest, WriteParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    JsonValue doc = RandomValue(&rng, 0);
    auto reparsed = ParseJson(WriteJson(doc));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_EQ(doc, *reparsed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(JsonPathTest, ParsesDotAndBracketForms) {
  auto p = JsonPath::Parse("$.a.b_c[2]['d e']");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->steps().size(), 4u);
  EXPECT_EQ(p->steps()[0].field, "a");
  EXPECT_EQ(p->steps()[1].field, "b_c");
  EXPECT_EQ(p->steps()[2].index, 2);
  EXPECT_EQ(p->steps()[3].field, "d e");
}

TEST(JsonPathTest, ToStringCanonicalizes) {
  auto p = JsonPath::Parse("$.a[0].b");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(), "$.a[0].b");
}

TEST(JsonPathTest, RejectsMalformedPaths) {
  EXPECT_FALSE(JsonPath::Parse("").ok());
  EXPECT_FALSE(JsonPath::Parse("a.b").ok());
  EXPECT_FALSE(JsonPath::Parse("$.").ok());
  EXPECT_FALSE(JsonPath::Parse("$[x]").ok());
  EXPECT_FALSE(JsonPath::Parse("$['unterminated").ok());
  EXPECT_FALSE(JsonPath::Parse("$.a..b").ok());
}

TEST(JsonPathTest, EvaluatesAgainstDom) {
  auto doc = ParseJson(R"({"a":{"b":[10,20,{"c":"found"}]}})");
  ASSERT_TRUE(doc.ok());
  auto p = JsonPath::Parse("$.a.b[2].c");
  ASSERT_TRUE(p.ok());
  const JsonValue* node = p->Evaluate(*doc);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->string_value(), "found");
  EXPECT_EQ(JsonPath::Parse("$.a.missing")->Evaluate(*doc), nullptr);
  EXPECT_EQ(JsonPath::Parse("$.a.b[9]")->Evaluate(*doc), nullptr);
  EXPECT_EQ(JsonPath::Parse("$.a.b.c")->Evaluate(*doc), nullptr);
}

TEST(GetJsonObjectTest, RendersLikeHive) {
  const std::string json =
      R"({"name":"apple","count":10,"price":2.5,"ok":true,"tags":["a","b"],"nil":null})";
  EXPECT_EQ(*GetJsonObject(json, *JsonPath::Parse("$.name")), "apple");
  EXPECT_EQ(*GetJsonObject(json, *JsonPath::Parse("$.count")), "10");
  EXPECT_EQ(*GetJsonObject(json, *JsonPath::Parse("$.ok")), "true");
  EXPECT_EQ(*GetJsonObject(json, *JsonPath::Parse("$.tags")), R"(["a","b"])");
  EXPECT_EQ(*GetJsonObject(json, *JsonPath::Parse("$.nil")), "null");
  EXPECT_EQ(GetJsonObject(json, *JsonPath::Parse("$.absent")).status().code(),
            StatusCode::kNotFound);
}

TEST(DocumentExtractorTest, AgreesWithGetJsonObjectAndParsesOncePerDocument) {
  // Documents in row order, including a repeat, a different text of the
  // same length, a parse error, a truncated record and duplicate keys;
  // every path is asked of every document.
  const std::vector<std::string> docs = {
      R"({"a":1,"b":{"c":[true,null]},"s":"x"})",
      R"({"a":1,"b":{"c":[true,null]},"s":"x"})",
      R"({"a":7,"b":{"c":[false,0.5]},"s":"y"})",
      R"({"junk":truu,"b":1})",
      R"({"a":2,"b":)",
      R"({"a":3,"a":4})",
      "",
  };
  const char* paths[] = {"$.a", "$.b", "$.b.c[0]", "$.s", "$.missing"};
  DocumentExtractor extractor;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (size_t p = 0; p < std::size(paths); ++p) {
      const JsonPath path = *JsonPath::Parse(paths[p]);
      const Result<std::string> expected = GetJsonObject(docs[d], path);
      const Result<std::string> actual = extractor.Extract(docs[d], path);
      ASSERT_EQ(actual.ok(), expected.ok()) << docs[d] << " " << paths[p];
      if (expected.ok()) {
        EXPECT_EQ(*actual, *expected) << docs[d] << " " << paths[p];
      } else {
        EXPECT_EQ(actual.status().code(), expected.status().code());
        EXPECT_EQ(actual.status().message(), expected.status().message());
      }
      // Only the first path of a new text parses; docs[1] repeats docs[0].
      EXPECT_EQ(extractor.parsed(), p == 0 && d != 1)
          << docs[d] << " " << paths[p];
    }
  }
}

TEST(StructuralIndexTest, FindsColonsWithLevels) {
  StructuralIndex index(R"({"a":1,"b":{"c":2},"d":3})");
  ASSERT_FALSE(index.malformed());
  ASSERT_EQ(index.colons().size(), 4u);
  EXPECT_EQ(index.colons()[0].level, 1u);  // a
  EXPECT_EQ(index.colons()[1].level, 1u);  // b
  EXPECT_EQ(index.colons()[2].level, 2u);  // c
  EXPECT_EQ(index.colons()[3].level, 1u);  // d
}

TEST(StructuralIndexTest, IgnoresStructuralCharsInStrings) {
  StructuralIndex index(R"({"a":"x:{}\",y","b":2})");
  ASSERT_FALSE(index.malformed());
  ASSERT_EQ(index.colons().size(), 2u);
  EXPECT_EQ(index.KeyBefore(0), "a");
  EXPECT_EQ(index.KeyBefore(1), "b");
}

TEST(StructuralIndexTest, DetectsMalformedRecords) {
  EXPECT_TRUE(StructuralIndex(R"({"a":1)").malformed());
  EXPECT_TRUE(StructuralIndex(R"({"a":"unterminated})").malformed());
  EXPECT_TRUE(StructuralIndex(R"(}{)").malformed());
  EXPECT_TRUE(StructuralIndex("").malformed());
}

TEST(StructuralIndexTest, RawValueSpans) {
  StructuralIndex index(
      R"({"s":"str","n":-1.5,"o":{"x":[1,2]},"arr":[{"y":0}],"last":true})");
  ASSERT_FALSE(index.malformed());
  EXPECT_EQ(index.RawValueAfter(0), "\"str\"");
  EXPECT_EQ(index.RawValueAfter(1), "-1.5");
  EXPECT_EQ(index.RawValueAfter(2), R"({"x":[1,2]})");
  // colon index 3 is "x" at level 2
  EXPECT_EQ(index.RawValueAfter(3), "[1,2]");
  EXPECT_EQ(index.RawValueAfter(4), R"([{"y":0}])");
}

TEST(MisonParserTest, ExtractsTopLevelFields) {
  MisonParser parser;
  const std::string json =
      R"({"item_id":7,"item_name":"apple","sale_count":10,"turnover":20.5})";
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.item_name")), "apple");
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.item_id")), "7");
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.turnover")), "20.5");
}

TEST(MisonParserTest, ExtractsNestedFieldsAndArrays) {
  MisonParser parser;
  const std::string json =
      R"({"meta":{"geo":{"lat":1.5,"lon":-2}},"tags":[{"k":"a"},{"k":"b"}]})";
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.meta.geo.lat")), "1.5");
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.meta.geo.lon")), "-2");
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.tags[1].k")), "b");
}

TEST(MisonParserTest, MissingFieldsReportNotFound) {
  MisonParser parser;
  const std::string json = R"({"a":1})";
  EXPECT_EQ(parser.Extract(json, *JsonPath::Parse("$.b")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      parser.Extract(json, *JsonPath::Parse("$.a[3]")).status().code(),
      StatusCode::kNotFound);
}

TEST(MisonParserTest, SpeculationHitsOnStableSchema) {
  MisonParser parser;
  auto path = JsonPath::Parse("$.c");
  ASSERT_TRUE(path.ok());
  for (int i = 0; i < 100; ++i) {
    const std::string json = R"({"a":1,"b":2,"c":)" + std::to_string(i) + "}";
    EXPECT_EQ(*parser.Extract(json, *path), std::to_string(i));
  }
  // First record has nothing memoized; the remaining 99 should hit.
  EXPECT_GE(parser.speculation_hits(), 90u);
  EXPECT_EQ(parser.speculation_misses(), 0u);
}

TEST(MisonParserTest, SpeculationMissesOnVariableSchema) {
  MisonParser parser;
  auto path = JsonPath::Parse("$.c");
  ASSERT_TRUE(path.ok());
  for (int i = 0; i < 100; ++i) {
    // Alternate field order so the memoized ordinal keeps going stale.
    const std::string json =
        (i % 2 == 0) ? R"({"a":1,"b":2,"c":9})" : R"({"c":9,"a":1,"b":2})";
    EXPECT_EQ(*parser.Extract(json, *path), "9");
  }
  EXPECT_GT(parser.speculation_misses(), 40u);
}

TEST(MisonParserTest, AgreesWithDomParserOnExtraction) {
  // Property: for any path present in the document, Mison extraction and
  // DOM-based get_json_object agree.
  MisonParser parser;
  const std::string json =
      R"({"id":3,"name":"x y","nested":{"a":{"b":[5,6,7]},"c":true},"arr":[1,{"z":"w"}],"f":1.25})";
  const char* paths[] = {"$.id",          "$.name",       "$.nested.a.b[0]",
                         "$.nested.a.b[2]", "$.nested.c", "$.arr[1].z",
                         "$.f"};
  for (const char* p : paths) {
    auto path = JsonPath::Parse(p);
    ASSERT_TRUE(path.ok());
    auto via_dom = GetJsonObject(json, *path);
    auto via_mison = parser.Extract(json, *path);
    ASSERT_TRUE(via_dom.ok()) << p;
    ASSERT_TRUE(via_mison.ok()) << p << ": " << via_mison.status();
    EXPECT_EQ(*via_dom, *via_mison) << p;
  }
}

TEST(MisonParserTest, HandlesEscapedQuotesInValues) {
  MisonParser parser;
  const std::string json = R"({"a":"he said \"hi\"","b":2})";
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.a")), "he said \"hi\"");
  EXPECT_EQ(*parser.Extract(json, *JsonPath::Parse("$.b")), "2");
}

}  // namespace
}  // namespace maxson::json
