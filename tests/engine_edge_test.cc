// Edge-case sweep for the engine: NULL semantics, empty inputs, multi-key
// ordering, joins with empty/NULL sides, LIMIT extremes, exact keys for
// doubles in GROUP BY / DISTINCT / joins, and a parameterized truth table
// for binary operators.

#include <filesystem>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"

namespace maxson::engine {
namespace {

using storage::FileSystem;
using storage::Schema;
using storage::TypeKind;
using storage::Value;

class EngineEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("maxson_edge_" + std::to_string(::getpid())))
               .string();
    ASSERT_TRUE(FileSystem::RemoveAll(dir_).ok());
    ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
    // Table with NULLs sprinkled in: (id, grp, val)
    // id: 0..9; grp cycles a,b,NULL; val = id*10, NULL when id%4==3.
    Schema schema;
    schema.AddField("id", TypeKind::kInt64);
    schema.AddField("grp", TypeKind::kString);
    schema.AddField("val", TypeKind::kInt64);
    ASSERT_TRUE(FileSystem::MakeDirs(dir_ + "/t").ok());
    storage::CorcWriter writer(dir_ + "/t/" + FileSystem::PartFileName(0),
                               schema, {});
    ASSERT_TRUE(writer.Open().ok());
    for (int i = 0; i < 10; ++i) {
      Value grp = i % 3 == 2 ? Value::Null()
                             : Value::String(i % 3 == 0 ? "a" : "b");
      Value val = i % 4 == 3 ? Value::Null() : Value::Int64(i * 10);
      ASSERT_TRUE(writer.AppendRow({Value::Int64(i), grp, val}).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    Register("t", schema, dir_ + "/t");

    // Empty table (one part file, zero rows).
    ASSERT_TRUE(FileSystem::MakeDirs(dir_ + "/empty").ok());
    storage::CorcWriter empty_writer(
        dir_ + "/empty/" + FileSystem::PartFileName(0), schema, {});
    ASSERT_TRUE(empty_writer.Open().ok());
    ASSERT_TRUE(empty_writer.Close().ok());
    Register("empty", schema, dir_ + "/empty");

    // Doubles that print alike under %.6g, and numbers that are equal but
    // typed or signed differently.
    WriteJsonTable("dv", {R"({"v":1.0000001})", R"({"v":1.0000002})",
                          R"({"v":1.0000003})"});
    WriteJsonTable("dz", {R"({"v":2})", R"({"v":2.0})", R"({"v":-0.0})",
                          R"({"v":0})"});
  }
  void TearDown() override { ASSERT_TRUE(FileSystem::RemoveAll(dir_).ok()); }

  void Register(const std::string& name, const Schema& schema,
                const std::string& location) {
    catalog::TableInfo info;
    info.database = "db";
    info.name = name;
    info.schema = schema;
    info.location = location;
    ASSERT_TRUE(catalog_.CreateTable(info).ok());
  }

  /// Writes table `name` of (id, payload) rows, one per payload.
  void WriteJsonTable(const std::string& name,
                      const std::vector<std::string>& payloads) {
    Schema schema;
    schema.AddField("id", TypeKind::kInt64);
    schema.AddField("payload", TypeKind::kString);
    ASSERT_TRUE(FileSystem::MakeDirs(dir_ + "/" + name).ok());
    storage::CorcWriter writer(
        dir_ + "/" + name + "/" + FileSystem::PartFileName(0), schema, {});
    ASSERT_TRUE(writer.Open().ok());
    for (size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_TRUE(writer
                      .AppendRow({Value::Int64(static_cast<int64_t>(i)),
                                  Value::String(payloads[i])})
                      .ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    Register(name, schema, dir_ + "/" + name);
  }

  /// Executes `sql` on an engine of `threads` workers (0 = all cores).
  QueryResult Run(const std::string& sql, size_t threads = 0) {
    EngineConfig config;
    config.default_database = "db";
    config.num_threads = threads;
    QueryEngine engine(&catalog_, config);
    auto result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::string dir_;
  catalog::Catalog catalog_;
};

TEST_F(EngineEdgeTest, NullsNeverMatchComparisons) {
  // val is NULL for ids 3 and 7; neither < nor >= matches them.
  EXPECT_EQ(Run("SELECT id FROM t WHERE val < 999").batch.num_rows(), 8u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE val >= 0").batch.num_rows(), 8u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE val IS NULL").batch.num_rows(), 2u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE val IS NOT NULL").batch.num_rows(),
            8u);
}

TEST_F(EngineEdgeTest, NullGroupFormsItsOwnGroup) {
  QueryResult r =
      Run("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY n DESC");
  // Groups: a (ids 0,3,6,9 -> 4), b (ids 1,4,7 -> 3), NULL (2,5,8 -> 3).
  ASSERT_EQ(r.batch.num_rows(), 3u);
  int total = 0;
  for (size_t i = 0; i < 3; ++i) {
    total += static_cast<int>(r.batch.column(1).GetValue(i).int64_value());
  }
  EXPECT_EQ(total, 10);
}

TEST_F(EngineEdgeTest, CountIgnoresNullsSumSkipsThem) {
  QueryResult r = Run("SELECT COUNT(val), COUNT(*), sum(val) FROM t");
  EXPECT_EQ(r.batch.column(0).GetValue(0).int64_value(), 8);   // non-null
  EXPECT_EQ(r.batch.column(1).GetValue(0).int64_value(), 10);  // all rows
  // sum of id*10 for ids != 3,7: (0+1+2+4+5+6+8+9)*10 = 350.
  EXPECT_DOUBLE_EQ(r.batch.column(2).GetValue(0).AsDouble(), 350.0);
}

TEST_F(EngineEdgeTest, EmptyTableBehaviour) {
  EXPECT_EQ(Run("SELECT id FROM empty").batch.num_rows(), 0u);
  QueryResult agg = Run("SELECT COUNT(*), min(val) FROM empty");
  ASSERT_EQ(agg.batch.num_rows(), 1u);
  EXPECT_EQ(agg.batch.column(0).GetValue(0).int64_value(), 0);
  EXPECT_TRUE(agg.batch.column(1).GetValue(0).is_null());
  EXPECT_EQ(Run("SELECT grp, COUNT(*) FROM empty GROUP BY grp")
                .batch.num_rows(),
            0u);
}

TEST_F(EngineEdgeTest, MultiKeyOrderByWithDirections) {
  QueryResult r = Run(
      "SELECT grp, id FROM t WHERE grp IS NOT NULL "
      "ORDER BY grp ASC, id DESC");
  ASSERT_EQ(r.batch.num_rows(), 7u);
  // All 'a' rows first (ids desc: 9,6,3,0) then 'b' (7,4,1).
  EXPECT_EQ(r.batch.column(0).GetString(0), "a");
  EXPECT_EQ(r.batch.column(1).GetValue(0).int64_value(), 9);
  EXPECT_EQ(r.batch.column(1).GetValue(3).int64_value(), 0);
  EXPECT_EQ(r.batch.column(0).GetString(4), "b");
  EXPECT_EQ(r.batch.column(1).GetValue(4).int64_value(), 7);
}

TEST_F(EngineEdgeTest, LimitExtremes) {
  EXPECT_EQ(Run("SELECT id FROM t LIMIT 0").batch.num_rows(), 0u);
  EXPECT_EQ(Run("SELECT id FROM t LIMIT 99999").batch.num_rows(), 10u);
  EXPECT_EQ(Run("SELECT id FROM t ORDER BY id DESC LIMIT 1")
                .batch.column(0)
                .GetValue(0)
                .int64_value(),
            9);
}

TEST_F(EngineEdgeTest, JoinWithEmptySideYieldsNothing) {
  EXPECT_EQ(Run("SELECT a.id FROM db.t a JOIN db.empty b ON a.id = b.id")
                .batch.num_rows(),
            0u);
  EXPECT_EQ(Run("SELECT a.id FROM db.empty a JOIN db.t b ON a.id = b.id")
                .batch.num_rows(),
            0u);
}

TEST_F(EngineEdgeTest, NullJoinKeysNeverMatch) {
  // grp is NULL for 3 rows on each side; SQL semantics: NULL != NULL.
  QueryResult r =
      Run("SELECT a.id FROM db.t a JOIN db.t b ON a.grp = b.grp");
  // 'a' rows: 4x4 = 16 pairs; 'b' rows: 3x3 = 9 pairs; NULLs: 0.
  EXPECT_EQ(r.batch.num_rows(), 25u);
}

TEST_F(EngineEdgeTest, WhereOnJoinOutputFiltersPairs) {
  QueryResult r = Run(
      "SELECT a.id, b.id FROM db.t a JOIN db.t b ON a.grp = b.grp "
      "WHERE a.id < b.id");
  // From 16 'a'-pairs: C(4,2)=6 ordered; from 9 'b'-pairs: C(3,2)=3.
  EXPECT_EQ(r.batch.num_rows(), 9u);
}

TEST_F(EngineEdgeTest, DoublesAgreeingToSixDigitsKeyApart) {
  // 1.0000001, 1.0000002 and 1.0000003 render alike with %.6g; DISTINCT,
  // GROUP BY and join keys must still tell them apart.
  const std::string v = "to_double(get_json_object(payload, '$.v'))";
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(Run("SELECT DISTINCT " + v + " FROM dv", threads)
                  .batch.num_rows(),
              3u);
    QueryResult grouped = Run(
        "SELECT " + v + " AS v, COUNT(*) AS n FROM dv GROUP BY " + v,
        threads);
    EXPECT_EQ(grouped.batch.num_rows(), 3u);
    for (size_t r = 0; r < grouped.batch.num_rows(); ++r) {
      EXPECT_EQ(grouped.batch.column(1).GetValue(r).int64_value(), 1);
    }
    EXPECT_EQ(Run("SELECT a.id FROM db.dv a JOIN db.dv b ON "
                  "to_double(get_json_object(a.payload, '$.v')) = "
                  "to_double(get_json_object(b.payload, '$.v'))",
                  threads)
                  .batch.num_rows(),
              3u);
  }
}

TEST_F(EngineEdgeTest, EqualNumbersKeyTogetherAcrossTypeAndSign) {
  // 2 and 2.0 are one key, and so are -0.0 and 0, as they compare equal.
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(Run("SELECT DISTINCT to_double(get_json_object(payload, "
                  "'$.v')) FROM dz",
                  threads)
                  .batch.num_rows(),
              2u);
    // to_int yields int64 2, 2, 0, 0; to_double yields 2.0, 2.0, -0.0, 0.0.
    EXPECT_EQ(Run("SELECT a.id FROM db.dz a JOIN db.dz b ON "
                  "to_int(get_json_object(a.payload, '$.v')) = "
                  "to_double(get_json_object(b.payload, '$.v'))",
                  threads)
                  .batch.num_rows(),
              8u);
  }
}

TEST_F(EngineEdgeTest, MissingPathPartitionsRowsThreeWays) {
  // A path no record has makes p NULL on every row: WHERE p and WHERE NOT p
  // keep no row, and WHERE p IS NULL keeps them all. Three chunks of rows,
  // so the 4-thread run fans the filter out.
  std::vector<std::string> payloads;
  for (int i = 0; i < 2500; ++i) {
    payloads.push_back(R"({"v":)" + std::to_string(i) + "}");
  }
  WriteJsonTable("nopath", payloads);
  const std::string p = "get_json_object(payload, '$.nope') = 'x'";
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(Run("SELECT id FROM nopath WHERE " + p, threads)
                  .batch.num_rows(),
              0u);
    EXPECT_EQ(Run("SELECT id FROM nopath WHERE NOT (" + p + ")", threads)
                  .batch.num_rows(),
              0u);
    EXPECT_EQ(Run("SELECT id FROM nopath WHERE (" + p + ") IS NULL", threads)
                  .batch.num_rows(),
              payloads.size());
    EXPECT_EQ(Run("SELECT id FROM nopath WHERE get_json_object(payload, "
                  "'$.nope') NOT IN ('a', 'b')",
                  threads)
                  .batch.num_rows(),
              0u);
  }
}

struct BinOpCase {
  const char* expr;
  const char* expected;  // rendered result on the single-row probe
};

class BinaryOpTruthTest : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(BinaryOpTruthTest, EvaluatesToExpected) {
  // Probe expressions against a one-row table built on the fly.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("maxson_truth_" + std::to_string(::getpid())))
          .string();
  ASSERT_TRUE(FileSystem::RemoveAll(dir).ok());
  ASSERT_TRUE(FileSystem::MakeDirs(dir + "/one").ok());
  Schema schema;
  schema.AddField("x", TypeKind::kInt64);
  storage::CorcWriter writer(dir + "/one/" + FileSystem::PartFileName(0),
                             schema, {});
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRow({Value::Int64(5)}).ok());
  ASSERT_TRUE(writer.Close().ok());
  catalog::Catalog catalog;
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  catalog::TableInfo info;
  info.database = "db";
  info.name = "one";
  info.schema = schema;
  info.location = dir + "/one";
  ASSERT_TRUE(catalog.CreateTable(info).ok());

  EngineConfig config;
  config.default_database = "db";
  QueryEngine engine(&catalog, config);
  const BinOpCase& c = GetParam();
  auto result =
      engine.Execute(std::string("SELECT ") + c.expr + " AS r FROM db.one");
  ASSERT_TRUE(result.ok()) << c.expr << ": " << result.status();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.column(0).GetValue(0).ToString(), c.expected)
      << c.expr;
  ASSERT_TRUE(FileSystem::RemoveAll(dir).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BinaryOpTruthTest,
    ::testing::Values(
        BinOpCase{"x + 2", "7"}, BinOpCase{"x - 7", "-2"},
        BinOpCase{"x * x", "25"}, BinOpCase{"x / 2", "2.5"},
        BinOpCase{"x % 3", "2"}, BinOpCase{"-x", "-5"},
        BinOpCase{"x = 5", "true"}, BinOpCase{"x != 5", "false"},
        BinOpCase{"x < 5", "false"}, BinOpCase{"x <= 5", "true"},
        BinOpCase{"x > 4", "true"}, BinOpCase{"x >= 6", "false"},
        BinOpCase{"x BETWEEN 5 AND 9", "true"},
        BinOpCase{"x BETWEEN 6 AND 9", "false"},
        BinOpCase{"NOT x = 5", "false"},
        BinOpCase{"x = 5 AND x > 1", "true"},
        BinOpCase{"x = 4 OR x = 5", "true"},
        // Three-valued logic: NOT keeps NULL, false decides AND, true
        // decides OR, and otherwise NULL wins.
        BinOpCase{"NOT NULL = 5", "NULL"},
        BinOpCase{"NULL = 1 AND 1 = 0", "false"},
        BinOpCase{"NULL = 1 OR 1 = 1", "true"},
        BinOpCase{"NULL = 1 AND 1 = 1", "NULL"},
        BinOpCase{"x / 0", "NULL"},          // division by zero -> NULL
        BinOpCase{"x % 0", "NULL"},
        BinOpCase{"x + 0.5", "5.5"},         // int + double widens
        BinOpCase{"coalesce(NULL, x)", "5"},
        BinOpCase{"length(concat('ab', 'c'))", "3"},
        BinOpCase{"lower('AbC')", "abc"},
        BinOpCase{"x IN (1, 5, 9)", "true"},
        BinOpCase{"x NOT IN (1, 9)", "true"},
        BinOpCase{"'hello' LIKE 'h%o'", "true"}));

}  // namespace
}  // namespace maxson::engine
