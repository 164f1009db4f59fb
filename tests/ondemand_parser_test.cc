// Differential tests of the on-demand parsing tier (src/json/
// ondemand_parser) against the DOM baseline (json::GetJsonObject), in the
// style of simd_kernel_test: every ISA level the host supports runs the
// same corpus — workload-generator documents plus adversarial inputs
// (deep nesting, escapes, truncated docs, duplicate keys, NaN/huge
// numbers) — and must produce byte-identical values or identical typed
// errors. The one documented divergence (token-level garbage confined to
// a skipped subtree) is pinned by its own test.

#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "json/json_path.h"
#include "json/ondemand_parser.h"
#include "simd/isa.h"
#include "simd/kernels.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

using json::JsonPath;
using json::OndemandParser;
using simd::Isa;

/// Forces a dispatch level for one scope and restores the previous one.
class IsaGuard {
 public:
  explicit IsaGuard(Isa level) : previous_(simd::ActiveIsa()) {
    EXPECT_EQ(simd::ForceIsa(level), level)
        << "host cannot run " << simd::IsaName(level);
  }
  ~IsaGuard() { simd::ForceIsa(previous_); }

 private:
  Isa previous_;
};

/// Every level the host supports, scalar first.
std::vector<Isa> SupportedLevels() {
  std::vector<Isa> levels = {Isa::kScalar};
  if (simd::BestSupportedIsa() >= Isa::kSse2) levels.push_back(Isa::kSse2);
  if (simd::BestSupportedIsa() >= Isa::kAvx2) levels.push_back(Isa::kAvx2);
  return levels;
}

JsonPath MustParsePath(const std::string& text) {
  Result<JsonPath> parsed = JsonPath::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? *parsed : JsonPath();
}

/// Strict oracle: the two tiers must be indistinguishable — identical
/// bytes on success, identical status codes on error, and the exact same
/// NotFound message (callers see that text).
void ExpectStrict(OndemandParser* parser, const std::string& doc,
                  const JsonPath& path) {
  const Result<std::string> dom = json::GetJsonObject(doc, path);
  const Result<std::string> ond = parser->Extract(doc, path);
  if (dom.ok()) {
    ASSERT_TRUE(ond.ok()) << "on-demand error '" << ond.status().message()
                          << "' where DOM succeeded, doc=" << doc
                          << " path=" << path.ToString();
    EXPECT_EQ(*ond, *dom) << "doc=" << doc << " path=" << path.ToString();
    return;
  }
  ASSERT_FALSE(ond.ok()) << "on-demand value '" << *ond
                         << "' where DOM errored '" << dom.status().message()
                         << "', doc=" << doc << " path=" << path.ToString();
  EXPECT_EQ(ond.status().code(), dom.status().code())
      << "on-demand '" << ond.status().message() << "' vs DOM '"
      << dom.status().message() << "', doc=" << doc
      << " path=" << path.ToString();
  if (dom.status().code() == StatusCode::kNotFound) {
    EXPECT_EQ(ond.status().message(), dom.status().message());
  }
}

/// Soundness oracle for random fuzz input, where token-level garbage can
/// land in skipped subtrees: whenever DOM succeeds the on-demand tier must
/// match it byte for byte (no false errors, no wrong values); when DOM
/// fails, on-demand may either fail too or succeed past untouched garbage.
void ExpectSound(OndemandParser* parser, const std::string& doc,
                 const JsonPath& path) {
  const Result<std::string> dom = json::GetJsonObject(doc, path);
  const Result<std::string> ond = parser->Extract(doc, path);
  if (dom.ok()) {
    ASSERT_TRUE(ond.ok()) << "on-demand error '" << ond.status().message()
                          << "' where DOM succeeded, doc=" << doc
                          << " path=" << path.ToString();
    EXPECT_EQ(*ond, *dom) << "doc=" << doc << " path=" << path.ToString();
  } else if (dom.status().code() == StatusCode::kNotFound) {
    ASSERT_FALSE(ond.ok()) << "doc=" << doc << " path=" << path.ToString();
    EXPECT_EQ(ond.status().message(), dom.status().message());
  }
}

TEST(OndemandParserTest, WorkloadDocumentsMatchDomAtEveryLevel) {
  // Documents across schema shapes the generator produces: flat and
  // nested, stable and variable, small and large.
  struct SpecCase {
    int props;
    int nesting;
    double variability;
    int bytes;
  };
  const std::vector<SpecCase> cases = {
      {5, 1, 0.0, 200},  {17, 1, 0.0, 500},  {17, 3, 0.0, 500},
      {17, 2, 0.5, 500}, {40, 3, 0.25, 2000},
  };
  const std::vector<std::string> path_texts = {
      "$.f0",         "$.f1",      "$.f2",       "$.f3",
      "$.f4",         "$.f16",     "$.blob",     "$.missing",
      "$.f3.leaf",    "$.f3.n0.leaf", "$.f3.n0.n1.leaf", "$.f0[0]",
      "$.f3.missing", "$",
  };
  std::vector<JsonPath> paths;
  paths.reserve(path_texts.size());
  for (const std::string& t : path_texts) paths.push_back(MustParsePath(t));

  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    for (const SpecCase& c : cases) {
      workload::JsonTableSpec spec;
      spec.table = "t";
      spec.num_properties = c.props;
      spec.nesting_level = c.nesting;
      spec.schema_variability = c.variability;
      spec.avg_json_bytes = c.bytes;
      spec.seed = 77;
      for (uint64_t row = 0; row < 40; ++row) {
        const std::string doc = workload::GenerateJsonRecord(spec, row);
        for (const JsonPath& path : paths) {
          ExpectStrict(&parser, doc, path);
        }
      }
    }
  }
}

TEST(OndemandParserTest, AdversarialStructuralInputsMatchDomAtEveryLevel) {
  struct Case {
    std::string doc;
    std::string path;
  };
  std::vector<Case> cases = {
      // Duplicate keys: last occurrence wins, at any type.
      {R"({"a":1,"a":2})", "$.a"},
      {R"({"a":{"x":1},"a":[7,8]})", "$.a[1]"},
      {R"({"a":[1],"a":{"x":"y"},"b":3})", "$.a.x"},
      {R"({"a":1,"b":{"a":9},"a":3})", "$.a"},
      {R"({"a":"first","b":2,"a":"last"})", "$.a"},
      // Escapes: in keys, in values, escaped quotes and backslashes, and
      // \uXXXX including a surrogate pair.
      {R"({"k\"ey":1,"other":2})", "$.other"},
      {R"({"a":"va\"l,ue}"})", "$.a"},
      {R"({"a\\":1,"b":2})", "$.b"},
      {R"({"a":"\\","b":"x"})", "$.b"},
      {R"({"a":"A😀"})", "$.a"},
      {R"({"b":5})", "$.b"},
      {R"({"a":"end\\"})", "$.a"},
      {"{\"a\":\"colon : brace } inside\",\"b\":[1,2]}", "$.b[0]"},
      // Numbers: huge magnitudes, int64 overflow into double, exponents.
      {R"({"n":99999999999999999999999})", "$.n"},
      {R"({"n":-9223372036854775808})", "$.n"},
      {R"({"n":9223372036854775807})", "$.n"},
      {R"({"n":1e308,"m":2})", "$.n"},
      {R"({"n":1e999})", "$.n"},
      {R"({"n":0.5e-3})", "$.n"},
      {R"({"n":NaN})", "$.n"},
      {R"({"n":Infinity})", "$.n"},
      // Malformed structure the index sees: unbalanced, mismatched,
      // unterminated, empty, bare separators.
      {R"({"a":1)", "$.a"},
      {R"({"a":1]})", "$.a"},
      {R"([1,2})", "$[0]"},
      {R"({"a":"unterminated)", "$.a"},
      {R"({)", "$.a"},
      {R"(})", "$.a"},
      {R"({"a":1}})", "$.a"},
      {R"({"a":1}{"b":2})", "$.a"},
      {R"({"a":1} x)", "$.a"},
      {R"({:1})", "$.a"},
      {R"({"a":})", "$.a"},
      {R"([:])", "$[0]"},
      {"", "$.a"},
      {"   ", "$.a"},
      // Empty containers, whitespace, arrays of arrays.
      {R"({})", "$.a"},
      {R"([])", "$[0]"},
      {"[  ]", "$[0]"},
      {"{ \"a\" :\n[ [1, 2] , [3] ] }", "$.a[1][0]"},
      {R"([[[1]]])", "$[0][0][0]"},
      {R"([1,2,3])", "$[3]"},
      {R"({"a":[{"b":1},{"b":2}]})", "$.a[1].b"},
      // Scalar roots: delegated to the DOM evaluator.
      {R"("hi")", "$.a"},
      {R"(42)", "$"},
      {R"(null)", "$.a"},
      {"  true  ", "$"},
      {R"("unterminated)", "$"},
      // Type mismatches along the path.
      {R"({"a":1})", "$.a.b"},
      {R"({"a":[1]})", "$.a.b"},
      {R"({"a":{"b":1}})", "$.a[0]"},
      {R"([1,2])", "$.a"},
  };
  // Deep nesting: past the DOM depth cap both must reject; deep-but-legal
  // must agree. The cap is 256 (dom_parser.cc / ondemand_tape.h).
  {
    std::string deep_ok = "{\"a\":";
    std::string path_ok = "$.a";
    for (int d = 0; d < 200; ++d) {
      deep_ok += "[";
      path_ok += "[0]";
    }
    deep_ok += "7";
    for (int d = 0; d < 200; ++d) deep_ok += "]";
    deep_ok += "}";
    cases.push_back({deep_ok, path_ok});
    std::string too_deep;
    for (int d = 0; d < 300; ++d) too_deep += "[";
    too_deep += "1";
    for (int d = 0; d < 300; ++d) too_deep += "]";
    cases.push_back({too_deep, "$[0]"});
  }
  // Truncations: every prefix of a representative document must error (or
  // succeed) identically.
  const std::string base = R"({"a":[1,{"b":"x\"y"}],"c":{"d":null}})";
  for (size_t len = 0; len <= base.size(); ++len) {
    cases.push_back({base.substr(0, len), "$.a[1].b"});
    cases.push_back({base.substr(0, len), "$.c.d"});
  }

  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    for (const Case& c : cases) {
      ExpectStrict(&parser, c.doc, MustParsePath(c.path));
    }
  }
}

TEST(OndemandParserTest, RandomFuzzIsSoundAtEveryLevel) {
  // Random structural soup: on-demand may sail past token garbage the
  // query skips, but must never contradict a successful DOM result.
  static const char kAlphabet[] = "\"\\{}:,ab \t\n[]0.-e";
  Rng rng{190};
  std::vector<std::string> docs;
  for (int trial = 0; trial < 400; ++trial) {
    std::string s;
    const size_t len = 1 + rng.NextBounded(120);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
    }
    docs.push_back(s);
  }
  const std::vector<std::string> path_texts = {"$.a", "$.ab", "$[0]",
                                               "$[2]", "$.a[1].b", "$"};
  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    for (const std::string& doc : docs) {
      for (const std::string& t : path_texts) {
        ExpectSound(&parser, doc, MustParsePath(t));
      }
    }
  }
}

TEST(OndemandParserTest, SkippedSubtreeGarbageIsTheDocumentedDivergence) {
  // The contract (ondemand_parser.h): token-level garbage whose bytes the
  // cursor never touches goes undetected — the only case where on-demand
  // succeeds and DOM errors. Pin it so a behavior change is a loud event.
  OndemandParser parser;
  const struct {
    std::string doc;
    std::string path;
    std::string want;
  } cases[] = {
      {R"({"junk":truu,"b":1})", "$.b", "1"},
      {R"({"junk":[1 2 3],"b":"x"})", "$.b", "x"},
      {R"([nope,7])", "$[1]", "7"},
      {R"({"a":1,})", "$.a", "1"},
  };
  for (const auto& c : cases) {
    const JsonPath path = MustParsePath(c.path);
    const Result<std::string> dom = json::GetJsonObject(c.doc, path);
    ASSERT_FALSE(dom.ok()) << c.doc;
    EXPECT_EQ(dom.status().code(), StatusCode::kParseError) << c.doc;
    const Result<std::string> ond = parser.Extract(c.doc, path);
    ASSERT_TRUE(ond.ok()) << c.doc << ": " << ond.status().message();
    EXPECT_EQ(*ond, c.want) << c.doc;
    // The moment the garbage is on the requested path, on-demand rejects
    // it too (materialization runs the DOM parser on the span).
    EXPECT_FALSE(parser.Extract(c.doc, MustParsePath("$.junk")).ok());
  }
}

TEST(OndemandParserTest, ExtractAllSharesOneTapeAcrossPaths) {
  OndemandParser parser;
  const std::string doc =
      R"({"a":1,"b":{"c":"two"},"d":[10,20,30],"pad":"xxxxxxxxxxxxxxxx"})";
  const std::vector<JsonPath> paths = {
      MustParsePath("$.a"), MustParsePath("$.b.c"), MustParsePath("$.d[2]"),
      MustParsePath("$.nope")};
  std::vector<Result<std::string>> out;
  ASSERT_TRUE(parser.ExtractAll(doc, paths, &out).ok());
  ASSERT_EQ(out.size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    const Result<std::string> dom = json::GetJsonObject(doc, paths[i]);
    ASSERT_EQ(out[i].ok(), dom.ok()) << paths[i].ToString();
    if (dom.ok()) {
      EXPECT_EQ(*out[i], *dom) << paths[i].ToString();
    } else {
      EXPECT_EQ(out[i].status().message(), dom.status().message());
    }
  }
  // One record, one tape — and the untouched padding counts as skipped.
  EXPECT_EQ(parser.records_indexed(), 1u);
  EXPECT_GT(parser.skipped_bytes(), 0u);
  // Structural malformation is a record-level failure: no slots are
  // produced and the caller falls back to the DOM for the whole record.
  std::vector<Result<std::string>> none;
  EXPECT_FALSE(parser.ExtractAll(R"({"a":1)", paths, &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(OndemandParserTest, TelemetryCounts) {
  OndemandParser a;
  const JsonPath path = MustParsePath("$.a");
  const std::string doc =
      R"({"a":1,"big":"0123456789012345678901234567890123456789"})";
  ASSERT_TRUE(a.Extract(doc, path).ok());
  ASSERT_TRUE(a.Extract(doc, path).ok());
  EXPECT_EQ(a.records_indexed(), 2u);
  const uint64_t skipped = a.skipped_bytes();
  EXPECT_GT(skipped, 0u);
  // Scalar roots take the DOM delegation and are not counted as indexed.
  EXPECT_FALSE(a.Extract("42", path).ok());
  EXPECT_EQ(a.records_indexed(), 2u);
  EXPECT_EQ(a.skipped_bytes(), skipped);
}

}  // namespace
}  // namespace maxson
