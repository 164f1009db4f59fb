// Cached-versus-uncached differential test: every query must return the
// same rows and column types from the cache as ExecuteWithoutCache returns
// by parsing raw JSON, at one thread and at four. The corpus targets what a
// cache can get wrong: number renderings (long decimals, integers beyond
// 2^53, exponents, negative zero), paths that are numeric in a short first
// split and text in the next, fractional values under to_int, and
// comparisons that order textually rather than numerically.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"

namespace maxson {
namespace {

using storage::FileSystem;
using storage::Value;

/// One part file's payloads; ids run on across files.
using PartFile = std::vector<std::string>;

class CacheDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_cache_differential_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
    ASSERT_TRUE(catalog_.CreateDatabase("db").ok());

    // nums: two files of two 4-row groups each. Per group: $.d long
    // decimals, $.big integers at and beyond 2^53 and int64, $.e exponents
    // and zeros, $.f0 numbers that order differently as text ("9000" >
    // "10000"), $.v fractions whose to_int truncation crosses the literal,
    // $.z numbers in the first file and the string "05" in the second, $.x
    // absent in some rows (coalesce falls back to 2.5).
    WriteTable(
        "nums",
        {{
             R"({"d":123.456789,"big":9007199254740993,"e":1e+03,"f0":100,"v":2.9,"z":5,"x":1})",
             R"({"d":0.000012345678,"big":-9007199254740993,"e":1E-7,"f0":200,"v":2.95,"z":7,"x":2})",
             R"({"d":-98765.4321,"big":18446744073709551615,"e":-0,"f0":300,"v":2.99,"z":10})",
             R"({"d":3.14159265358979,"big":9223372036854775807,"e":-0.0,"f0":400,"v":2.5,"z":12,"x":3})",
             R"({"d":1.5,"big":4,"e":2.5e10,"f0":2000,"v":-2.5,"z":5,"x":4})",
             R"({"d":2.25,"big":5,"e":1e-300,"f0":3000,"v":-2.9,"z":6})",
             R"({"d":1e21,"big":6,"e":6.02214076e23,"f0":9000,"v":-2.3,"z":8,"x":5})",
             R"({"d":0.1,"big":7,"e":-1e+03,"f0":9999,"v":-2.7,"z":9,"x":6})",
         },
         {
             R"({"d":7.0,"big":9007199254740992,"e":1E+2,"f0":10001,"v":3.5,"z":"05","x":7})",
             R"({"d":100.25,"big":9007199254740995,"e":5e-324,"f0":20000,"v":3.9,"z":"5"})",
             R"({"d":-0.5,"big":-1,"e":1.7976931348623157e308,"f0":50000,"v":4.1,"z":5,"x":8})",
             R"({"d":99999.99999,"big":0,"e":0.0,"f0":12345,"v":3.0,"z":"abc","x":9})",
             R"({"d":12.5,"big":1,"e":10,"f0":1,"v":1.99,"z":null})",
             R"({"d":-12.5,"big":2,"e":1e1,"f0":10,"v":0.5,"z":15,"x":10})",
             R"({"d":0.3333333333333333,"big":3,"e":-0,"f0":100000,"v":-0.5,"x":11})",
             R"({"d":42,"big":4,"e":1,"f0":-5,"v":0,"z":16,"x":12})",
         }},
        4);
    // mixed4 / mixed8: $.x holds numbers in a 4-row (8-row) first split and
    // text in the next one.
    for (int first : {4, 8}) {
      PartFile numbers;
      for (int i = 0; i < first; ++i) {
        numbers.push_back(R"({"x":)" + std::to_string(i + 1) + "}");
      }
      WriteTable("mixed" + std::to_string(first),
                 {numbers,
                  {R"({"x":"red"})", R"({"x":"blue"})", R"({"x":"2"})",
                   R"({"x":"green"})"}},
                 4);
    }

    core::MaxsonConfig config;
    config.cache_root = root_ + "/cache";
    config.engine.default_database = "db";
    session_ = std::make_unique<core::MaxsonSession>(&catalog_, config);
    std::vector<core::ScoredMpjp> selected;
    auto select = [&](const std::string& table, const std::string& path) {
      core::ScoredMpjp s;
      s.candidate.location.database = "db";
      s.candidate.location.table = table;
      s.candidate.location.column = "payload";
      s.candidate.location.path = path;
      selected.push_back(std::move(s));
    };
    for (const char* path : {"$.d", "$.big", "$.e", "$.f0", "$.v", "$.z",
                             "$.x"}) {
      select("nums", path);
    }
    select("mixed4", "$.x");
    select("mixed8", "$.x");
    auto cached = session_->CacheSelected(selected, 1);
    ASSERT_TRUE(cached.ok()) << cached.status();
    ASSERT_EQ(cached->paths_cached, selected.size());
  }

  void TearDown() override {
    session_.reset();
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
  }

  void WriteTable(const std::string& name, const std::vector<PartFile>& files,
                  uint32_t rows_per_group) {
    const std::string dir = root_ + "/warehouse/db/" + name;
    ASSERT_TRUE(FileSystem::MakeDirs(dir).ok());
    storage::Schema schema;
    schema.AddField("id", storage::TypeKind::kInt64);
    schema.AddField("payload", storage::TypeKind::kString);
    int64_t id = 0;
    for (size_t f = 0; f < files.size(); ++f) {
      storage::CorcWriterOptions options;
      options.rows_per_group = rows_per_group;
      storage::CorcWriter writer(dir + "/" + FileSystem::PartFileName(f),
                                 schema, options);
      ASSERT_TRUE(writer.Open().ok());
      for (const std::string& payload : files[f]) {
        ASSERT_TRUE(
            writer.AppendRow({Value::Int64(id++), Value::String(payload)})
                .ok());
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

  /// Runs `sql` cached and uncached at 1 and 4 threads; every run must
  /// fingerprint the same, and the cached runs must read cache columns.
  void ExpectCachedMatchesUncached(const std::string& sql) {
    uint64_t reference = 0;
    for (size_t threads : {1u, 4u}) {
      core::SessionUpdate update;
      update.num_threads = threads;
      ASSERT_TRUE(session_->UpdateConfig(update).ok());
      auto plain = session_->ExecuteWithoutCache(sql);
      ASSERT_TRUE(plain.ok()) << sql << ": " << plain.status();
      auto cached = session_->Execute(sql);
      ASSERT_TRUE(cached.ok()) << sql << ": " << cached.status();
      EXPECT_GT(cached->metrics.cache_columns_read, 0u) << sql;
      EXPECT_EQ(engine::FingerprintHash(cached->batch),
                engine::FingerprintHash(plain->batch))
          << sql << " at " << threads << " threads\ncached:\n"
          << engine::FingerprintBatch(cached->batch) << "uncached:\n"
          << engine::FingerprintBatch(plain->batch);
      if (threads == 1) {
        reference = engine::FingerprintHash(plain->batch);
      } else {
        EXPECT_EQ(engine::FingerprintHash(plain->batch), reference) << sql;
      }
    }
  }

  std::string root_;
  catalog::Catalog catalog_;
  std::unique_ptr<core::MaxsonSession> session_;
};

TEST_F(CacheDifferentialTest, NumberRenderingsMatchGetJsonObject) {
  ExpectCachedMatchesUncached(
      "SELECT id, get_json_object(payload, '$.d') AS d, "
      "get_json_object(payload, '$.big') AS big, "
      "get_json_object(payload, '$.e') AS e, "
      "get_json_object(payload, '$.z') AS z FROM db.nums");
  ExpectCachedMatchesUncached(
      "SELECT id, to_double(get_json_object(payload, '$.e')) AS e, "
      "to_int(get_json_object(payload, '$.big')) AS big FROM db.nums");
}

TEST_F(CacheDifferentialTest, PathNumericInShortFirstSplitKeepsItsText) {
  for (const char* table : {"db.mixed4", "db.mixed8"}) {
    const std::string from = std::string(" FROM ") + table;
    ExpectCachedMatchesUncached(
        "SELECT id, get_json_object(payload, '$.x') AS x" + from);
    ExpectCachedMatchesUncached("SELECT id" + from +
                                " WHERE get_json_object(payload, '$.x') = "
                                "'red'");
    ExpectCachedMatchesUncached(
        "SELECT id" + from +
        " WHERE to_int(get_json_object(payload, '$.x')) < 3");
  }
}

TEST_F(CacheDifferentialTest, TruncatingCastsPruneByTruncatedBounds) {
  for (const char* predicate :
       {"to_int(get_json_object(payload, '$.v')) = 2",
        "to_int(get_json_object(payload, '$.v')) < 2.5",
        "to_int(get_json_object(payload, '$.v')) < 3",
        "to_int(get_json_object(payload, '$.v')) > -2.2",
        "to_int(get_json_object(payload, '$.v')) >= 3",
        "to_double(get_json_object(payload, '$.v')) <= 2.95",
        "to_int(get_json_object(payload, '$.f0')) > 10000"}) {
    ExpectCachedMatchesUncached(
        std::string("SELECT id, get_json_object(payload, '$.v') AS v "
                    "FROM db.nums WHERE ") +
        predicate);
  }
}

TEST_F(CacheDifferentialTest, NegativeLiteralsPushDownWithTheirCast) {
  // `-1` and `-2.2` parse as literals, so each conjunct reaches the cache
  // SARG as a cast leaf and prunes row groups.
  const std::pair<const char*, const char*> cases[] = {
      {"to_int(get_json_object(payload, '$.v')) < -1",
       "cache sarg: to_int(payload____v) < -1"},
      {"to_double(get_json_object(payload, '$.v')) > -2.2",
       "cache sarg: to_double(payload____v) > -2.2"},
  };
  for (const auto& [predicate, leaf] : cases) {
    const std::string sql =
        std::string("SELECT id, get_json_object(payload, '$.v') AS v "
                    "FROM db.nums WHERE ") +
        predicate;
    ExpectCachedMatchesUncached(sql);
    auto explained = session_->Execute("EXPLAIN " + sql);
    ASSERT_TRUE(explained.ok()) << explained.status();
    std::string plan;
    for (size_t r = 0; r < explained->batch.num_rows(); ++r) {
      plan += explained->batch.column(0).GetString(r) + "\n";
    }
    EXPECT_NE(plan.find(leaf), std::string::npos) << plan;
  }
}

TEST_F(CacheDifferentialTest, UncastComparisonsOrderLikeTheFilter) {
  // The residual filter compares get_json_object's text with a number
  // textually ("9000" > 10000) and with a string bytewise ("05" != "5").
  for (const char* predicate :
       {"get_json_object(payload, '$.f0') > 10000",
        "get_json_object(payload, '$.f0') < 500",
        "get_json_object(payload, '$.z') = '05'",
        "get_json_object(payload, '$.z') >= '5'",
        "get_json_object(payload, '$.z') = 5"}) {
    ExpectCachedMatchesUncached(
        std::string("SELECT id, get_json_object(payload, '$.f0') AS f0 "
                    "FROM db.nums WHERE ") +
        predicate);
  }
}

TEST_F(CacheDifferentialTest, OutputTypeCoversEveryRow) {
  // coalesce() yields int64 where $.x is present and the double 2.5 where
  // it is absent; the column is double whatever the row order.
  const std::string select =
      "SELECT id, coalesce(to_int(get_json_object(payload, '$.x')), 2.5) "
      "AS v FROM db.nums";
  ExpectCachedMatchesUncached(select);
  ExpectCachedMatchesUncached(select + " ORDER BY v DESC");
  auto plain = session_->ExecuteWithoutCache(select);
  auto ordered = session_->ExecuteWithoutCache(select + " ORDER BY v DESC");
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(ordered.ok()) << ordered.status();
  ASSERT_EQ(plain->batch.schema().field(1).type, storage::TypeKind::kDouble);
  ASSERT_EQ(ordered->batch.schema().field(1).type, storage::TypeKind::kDouble);
  std::map<int64_t, double> by_id;
  for (size_t r = 0; r < plain->batch.num_rows(); ++r) {
    by_id[plain->batch.column(0).GetInt64(r)] =
        plain->batch.column(1).GetDouble(r);
  }
  ASSERT_EQ(ordered->batch.num_rows(), by_id.size());
  for (size_t r = 0; r < ordered->batch.num_rows(); ++r) {
    EXPECT_EQ(ordered->batch.column(1).GetDouble(r),
              by_id.at(ordered->batch.column(0).GetInt64(r)));
  }
  EXPECT_EQ(by_id.at(2), 2.5);  // the third row has no $.x
  EXPECT_EQ(by_id.at(0), 1.0);
}

}  // namespace
}  // namespace maxson
