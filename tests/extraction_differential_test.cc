// Once-per-record versus once-per-call extraction. Under the default kDom
// backend the get_json_object calls one operator makes on one record share
// a DOM parse (json::DocumentExtractor); under kDomPerCall, the paper's
// Spark+Jackson baseline, every call parses. Every query here must return
// the same rows under kDom, at one thread and at four, as under
// kDomPerCall: the Table II
// templates, projections alternating between two JSON columns, NULL,
// truncated, duplicate-key and malformed records, and calls in WHERE,
// GROUP BY, HAVING, ORDER BY, DISTINCT and join keys. A count check pins
// the parse work itself.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "workload/query_templates.h"

namespace maxson::engine {
namespace {

using storage::FileSystem;
using storage::Schema;
using storage::TypeKind;
using storage::Value;

/// Rows of table `two`: more than one 1024-row chunk, over two files.
constexpr int64_t kRows = 3000;

/// Payloads of table `odd`, cycled over its rows: well-formed records, a
/// NULL, a truncated record, duplicate keys, garbage outside the requested
/// path, non-object roots and an empty text.
const char* const kOddPayloads[] = {
    R"({"a":1,"b":2})",
    nullptr,
    R"({"a":1,"b":)",
    R"({"a":1,"a":2,"b":3})",
    R"({"junk":truu,"b":1})",
    R"([1,2,3])",
    R"("scalar")",
    "",
    R"({"a":{"b":[1,{"c":null}]},"b":1})",
    R"({"b":2}   )",
};
constexpr size_t kNumOdd = sizeof(kOddPayloads) / sizeof(kOddPayloads[0]);

class ExtractionDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_extraction_differential_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
    ASSERT_TRUE(catalog_.CreateDatabase("db").ok());

    // two: JSON columns a and b, and c for the count check. a repeats each
    // text for two consecutive rows, b is NULL on every 11th row, and c is
    // distinct on every row.
    Schema two;
    two.AddField("id", TypeKind::kInt64);
    two.AddField("a", TypeKind::kString);
    two.AddField("b", TypeKind::kString);
    two.AddField("c", TypeKind::kString);
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < kRows; ++i) {
      const int64_t h = i / 2;
      const std::string a = R"({"x":)" + std::to_string(h) + R"(,"y":"a)" +
                            std::to_string(h % 7) + R"(","z":{"k":[)" +
                            std::to_string(h) + "]}}";
      const std::string b = R"({"y":"a)" + std::to_string(i % 5) +
                            R"(","x":)" + std::to_string(i * 3 % 17) + "}";
      const std::string c = R"({"x":)" + std::to_string(i) + R"(,"y":"c)" +
                            std::to_string(i) + R"(","z":[)" +
                            std::to_string(i % 3) + "]}";
      rows.push_back({Value::Int64(i), Value::String(a),
                      i % 11 == 0 ? Value::Null() : Value::String(b),
                      Value::String(c)});
    }
    WriteTable("two", two, rows, kRows / 2);

    Schema odd;
    odd.AddField("id", TypeKind::kInt64);
    odd.AddField("payload", TypeKind::kString);
    rows.clear();
    for (size_t i = 0; i < 4 * kNumOdd; ++i) {
      const char* payload = kOddPayloads[i % kNumOdd];
      rows.push_back({Value::Int64(static_cast<int64_t>(i)),
                      payload == nullptr ? Value::Null()
                                         : Value::String(payload)});
    }
    WriteTable("odd", odd, rows, rows.size());
  }

  void TearDown() override { ASSERT_TRUE(FileSystem::RemoveAll(root_).ok()); }

  /// Writes `rows` as table db.`name`, `rows_per_file` rows per part file.
  void WriteTable(const std::string& name, const Schema& schema,
                  const std::vector<std::vector<Value>>& rows,
                  size_t rows_per_file) {
    const std::string dir = root_ + "/" + name;
    ASSERT_TRUE(FileSystem::MakeDirs(dir).ok());
    for (size_t begin = 0, f = 0; begin < rows.size();
         begin += rows_per_file, ++f) {
      storage::CorcWriterOptions options;
      options.rows_per_group = 500;
      storage::CorcWriter writer(dir + "/" + FileSystem::PartFileName(f),
                                 schema, options);
      ASSERT_TRUE(writer.Open().ok());
      for (size_t r = begin; r < std::min(rows.size(), begin + rows_per_file);
           ++r) {
        ASSERT_TRUE(writer.AppendRow(rows[r]).ok());
      }
      ASSERT_TRUE(writer.Close().ok());
    }
    catalog::TableInfo info;
    info.database = "db";
    info.name = name;
    info.schema = schema;
    info.location = dir;
    ASSERT_TRUE(catalog_.CreateTable(info).ok());
  }

  QueryResult Run(const std::string& sql, JsonBackend backend,
                  size_t threads) {
    EngineConfig config;
    config.json_backend = backend;
    config.default_database = "db";
    config.num_threads = threads;
    QueryEngine engine(&catalog_, config);
    auto result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  /// Runs `sql` under kDom at 1 and 4 threads; both runs must fingerprint
  /// the same as kDomPerCall at 1 thread. (kDomPerCall at other thread
  /// counts is the parallel-determinism suite's business.)
  void ExpectBackendsAgree(const std::string& sql) {
    const QueryResult reference = Run(sql, JsonBackend::kDomPerCall, 1);
    for (const size_t threads : {1u, 4u}) {
      const QueryResult run = Run(sql, JsonBackend::kDom, threads);
      EXPECT_EQ(FingerprintHash(run.batch), FingerprintHash(reference.batch))
          << sql << "\nkDom at " << threads << " threads:\n"
          << FingerprintBatch(run.batch) << "kDomPerCall:\n"
          << FingerprintBatch(reference.batch);
    }
  }

  std::string root_;
  catalog::Catalog catalog_;
};

TEST_F(ExtractionDifferentialTest, TableIITemplatesAgree) {
  // The smallest tables MakeTableIIQueries makes (2,000 rows), spread over
  // 30 dates so the templates' two-date filter leaves about 130 rows to
  // extract from: the per-call reference parses Q3's and Q6's wide
  // documents 10 and 29 times a row.
  workload::BenchmarkSuiteOptions options;
  options.bytes_per_table = 64 << 10;
  options.rows_per_file = 1000;
  options.rows_per_group = 250;
  options.date_days = 30;
  const std::vector<workload::BenchmarkQuery> queries =
      workload::MakeTableIIQueries(options);
  ASSERT_TRUE(workload::GenerateBenchmarkTables(queries, root_ + "/warehouse",
                                                options, &catalog_)
                  .ok());
  for (const workload::BenchmarkQuery& q : queries) {
    SCOPED_TRACE(q.name);
    ExpectBackendsAgree(q.sql);
  }
}

TEST_F(ExtractionDifferentialTest, ProjectionAlternatingBetweenColumnsAgrees) {
  ExpectBackendsAgree(
      "SELECT id, get_json_object(a, '$.x') AS ax, "
      "get_json_object(b, '$.x') AS bx, get_json_object(a, '$.y') AS ay, "
      "get_json_object(b, '$.y') AS by_, get_json_object(a, '$.z.k[0]') AS "
      "ak FROM two");
}

TEST_F(ExtractionDifferentialTest, MalformedAndEdgeRecordsAgree) {
  ExpectBackendsAgree(
      "SELECT id, get_json_object(payload, '$.a') AS a, "
      "get_json_object(payload, '$.b') AS b, "
      "get_json_object(payload, '$.a.b[1].c') AS c, "
      "get_json_object(payload, '$[1]') AS e FROM odd");
  // Garbage outside the requested path still fails the whole parse, as the
  // DOM parser decides: $.b of {"junk":truu,"b":1} is NULL.
  for (const JsonBackend backend :
       {JsonBackend::kDom, JsonBackend::kDomPerCall}) {
    const QueryResult r = Run(
        "SELECT get_json_object(payload, '$.b') AS b, "
        "get_json_object(payload, '$.junk') AS j FROM odd WHERE id = 4",
        backend, 1);
    ASSERT_EQ(r.batch.num_rows(), 1u);
    EXPECT_TRUE(r.batch.column(0).IsNull(0));
    EXPECT_TRUE(r.batch.column(1).IsNull(0));
  }
}

TEST_F(ExtractionDifferentialTest, CallsInEveryClauseAgree) {
  // WHERE.
  ExpectBackendsAgree(
      "SELECT id, get_json_object(b, '$.y') AS y FROM two "
      "WHERE to_int(get_json_object(a, '$.x')) % 3 = 0 AND "
      "get_json_object(a, '$.y') = 'a1'");
  // GROUP BY and HAVING.
  ExpectBackendsAgree(
      "SELECT get_json_object(a, '$.y') AS y, COUNT(*) AS n, "
      "SUM(to_int(get_json_object(b, '$.x'))) AS s FROM two "
      "GROUP BY get_json_object(a, '$.y') "
      "HAVING SUM(to_int(get_json_object(a, '$.x'))) > 100 ORDER BY y");
  // ORDER BY.
  ExpectBackendsAgree(
      "SELECT id, get_json_object(a, '$.y') AS y FROM two "
      "ORDER BY get_json_object(b, '$.y') DESC, "
      "to_int(get_json_object(a, '$.x')), id LIMIT 50");
  // DISTINCT.
  ExpectBackendsAgree(
      "SELECT DISTINCT get_json_object(a, '$.y') AS ay, "
      "get_json_object(b, '$.y') AS by_ FROM two");
  // Join keys, with the join output projected and filtered.
  ExpectBackendsAgree(
      "SELECT l.id, r.id, get_json_object(l.b, '$.y') AS y FROM db.two l "
      "JOIN db.odd r ON get_json_object(l.a, '$.x') = "
      "get_json_object(r.payload, '$.b') "
      "WHERE get_json_object(r.payload, '$.a') IS NOT NULL");
}

TEST_F(ExtractionDifferentialTest, ParsesOncePerRecordOrOncePerCall) {
  // Column c is distinct and non-NULL on every row: three paths over kRows
  // rows parse kRows documents once per record and 3 * kRows once per call.
  const std::string sql =
      "SELECT get_json_object(c, '$.x'), get_json_object(c, '$.y'), "
      "get_json_object(c, '$.z') FROM two";
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const QueryResult once = Run(sql, JsonBackend::kDom, threads);
    const QueryResult per_call = Run(sql, JsonBackend::kDomPerCall, threads);
    EXPECT_EQ(once.metrics.parse.records_parsed,
              static_cast<uint64_t>(kRows));
    EXPECT_EQ(per_call.metrics.parse.records_parsed,
              3 * static_cast<uint64_t>(kRows));
    EXPECT_EQ(per_call.metrics.parse.bytes_parsed,
              3 * once.metrics.parse.bytes_parsed);
  }
}

}  // namespace
}  // namespace maxson::engine
