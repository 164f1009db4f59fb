// Cross-module integration and property tests: randomized cached-vs-
// uncached equivalence, alignment invariants of the cacher, SARG pruning
// soundness, and failure injection (corrupt cache files, missing splits).

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "catalog/catalog.h"
#include "common/random.h"
#include "core/cacher.h"
#include "core/maxson.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "storage/corc_reader.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

using catalog::Catalog;
using core::MaxsonConfig;
using core::MaxsonSession;
using storage::FileSystem;
using workload::JsonPathLocation;
using workload::JsonTableSpec;

JsonPathLocation Loc(const std::string& db, const std::string& table,
                     const std::string& path) {
  JsonPathLocation l;
  l.database = db;
  l.table = table;
  l.column = "payload";
  l.path = path;
  return l;
}

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_integration_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
  }
  void TearDown() override { ASSERT_TRUE(FileSystem::RemoveAll(root_).ok()); }

  void MakeTable(const std::string& table, uint64_t rows,
                 double variability = 0.0, int properties = 14) {
    JsonTableSpec spec;
    spec.database = "db";
    spec.table = table;
    spec.num_properties = properties;
    spec.avg_json_bytes = 350;
    spec.schema_variability = variability;
    spec.rows = rows;
    spec.rows_per_file = 700;
    spec.rows_per_group = 100;
    spec.seed = rows * 31 + properties;
    auto generated = workload::GenerateJsonTable(spec, root_ + "/warehouse",
                                                 3, &catalog_);
    ASSERT_TRUE(generated.ok()) << generated.status();
  }

  MaxsonSession MakeSession(uint64_t budget = 64ull << 20) {
    MaxsonConfig config;
    config.cache_root = root_ + "/cache";
    config.cache_budget_bytes = budget;
    config.engine.default_database = "db";
    config.predictor.epochs = 5;
    return MaxsonSession(&catalog_, config);
  }

  void FeedDailyHistory(MaxsonSession* session, const std::string& table,
                        const std::vector<std::string>& paths, int days) {
    for (int day = 0; day < days; ++day) {
      for (int rep = 0; rep < 3; ++rep) {
        workload::QueryRecord q;
        q.date = day;
        for (const std::string& p : paths) {
          q.paths.push_back(Loc("db", table, p));
        }
        session->RecordQuery(q);
      }
    }
  }

  std::string root_;
  Catalog catalog_;
};

TEST_F(IntegrationTest, RandomizedCachedVsUncachedEquivalence) {
  // Property: for randomly chosen projections/predicates over a table with
  // schema variability (so some records miss fields -> NULLs), the cached
  // and uncached executions return identical row sets.
  MakeTable("t", 2100, 0.5);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t",
                   {"$.f0", "$.f1", "$.f2", "$.f4", "$.f5"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  auto report = session.RunMidnightCycle(14);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->selected.size(), 2u);

  Rng rng(77);
  const char* fields[] = {"$.f0", "$.f1", "$.f2", "$.f4", "$.f5", "$.f7"};
  for (int trial = 0; trial < 12; ++trial) {
    // Random projection of 1-3 fields, random predicate shape.
    std::string select = "SELECT id";
    const int nproj = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < nproj; ++i) {
      const char* f = fields[rng.NextBounded(6)];
      select += std::string(", get_json_object(payload, '") + f + "') AS p" +
                std::to_string(i);
    }
    select += " FROM db.t";
    switch (rng.NextBounded(3)) {
      case 0:
        select += " WHERE to_int(get_json_object(payload, '$.f0')) < " +
                  std::to_string(rng.NextBounded(2100));
        break;
      case 1:
        select += " WHERE get_json_object(payload, '$.f1') = 'cat" +
                  std::to_string(rng.NextBounded(10)) + "'";
        break;
      default:
        break;  // no predicate
    }
    auto cached = session.Execute(select);
    auto plain = session.ExecuteWithoutCache(select);
    ASSERT_TRUE(cached.ok()) << select << ": " << cached.status();
    ASSERT_TRUE(plain.ok()) << select << ": " << plain.status();
    ASSERT_EQ(cached->batch.num_rows(), plain->batch.num_rows()) << select;
    for (size_t r = 0; r < cached->batch.num_rows(); ++r) {
      for (size_t c = 0; c < cached->batch.num_columns(); ++c) {
        EXPECT_EQ(cached->batch.column(c).GetValue(r).ToString(),
                  plain->batch.column(c).GetValue(r).ToString())
            << select << " row " << r << " col " << c;
      }
    }
  }
}

TEST_F(IntegrationTest, CacheFilesAlwaysAlignWithRawFiles) {
  // Property: for every part file, the cache file with the same index has
  // identical row count and row-group size — the alignment invariant that
  // Algorithms 2 and 3 rely on.
  MakeTable("t", 3456);  // deliberately not a multiple of rows_per_file
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0", "$.f2"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  auto raw_splits = FileSystem::ListSplits(root_ + "/warehouse/db/t");
  auto cache_splits = FileSystem::ListSplits(root_ + "/cache/db.t");
  ASSERT_TRUE(raw_splits.ok());
  ASSERT_TRUE(cache_splits.ok());
  ASSERT_EQ(raw_splits->size(), cache_splits->size());
  for (size_t i = 0; i < raw_splits->size(); ++i) {
    storage::CorcReader raw((*raw_splits)[i].path);
    storage::CorcReader cache((*cache_splits)[i].path);
    ASSERT_TRUE(raw.Open().ok());
    ASSERT_TRUE(cache.Open().ok());
    EXPECT_EQ(raw.num_rows(), cache.num_rows()) << i;
    EXPECT_EQ(raw.footer().rows_per_group, cache.footer().rows_per_group);
    EXPECT_EQ(raw.num_stripes(), cache.num_stripes());
  }
}

TEST_F(IntegrationTest, SargPruningNeverChangesResults) {
  // Property: row-group pruning is a pure optimization. Compare result row
  // counts of selective predicates against a full-scan + engine filter
  // (which always re-checks rows).
  MakeTable("t", 2800);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  for (int threshold : {0, 1, 700, 1399, 1400, 2799, 2800, 5000}) {
    const std::string sql =
        "SELECT id FROM db.t WHERE to_int(get_json_object(payload, "
        "'$.f0')) >= " +
        std::to_string(threshold);
    auto cached = session.Execute(sql);
    ASSERT_TRUE(cached.ok()) << cached.status();
    const int64_t expected =
        std::max<int64_t>(0, 2800 - std::min<int64_t>(2800, threshold));
    EXPECT_EQ(cached->batch.num_rows(), static_cast<size_t>(expected))
        << "threshold " << threshold;
  }
}

TEST_F(IntegrationTest, MultiTableCachingKeepsTablesSeparate) {
  MakeTable("a", 1400);
  MakeTable("b", 2100, 0.0, 20);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "a", {"$.f0", "$.f1"}, 14);
  FeedDailyHistory(&session, "b", {"$.f2", "$.f3"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  auto report = session.RunMidnightCycle(14);
  ASSERT_TRUE(report.ok());
  // Both tables' paths cached, into separate cache tables.
  EXPECT_TRUE(FileSystem::Exists(root_ + "/cache/db.a"));
  EXPECT_TRUE(FileSystem::Exists(root_ + "/cache/db.b"));

  auto qa = session.Execute(
      "SELECT get_json_object(payload, '$.f1') FROM db.a LIMIT 4");
  auto qb = session.Execute(
      "SELECT get_json_object(payload, '$.f2') FROM db.b LIMIT 4");
  ASSERT_TRUE(qa.ok()) << qa.status();
  ASSERT_TRUE(qb.ok()) << qb.status();
  EXPECT_EQ(qa->metrics.parse.records_parsed, 0u);
  EXPECT_EQ(qb->metrics.parse.records_parsed, 0u);
}

TEST_F(IntegrationTest, CorruptCacheFileFallsBackToRaw) {
  // Failure injection: truncate one cache part file. The scan must detect
  // the corruption, quarantine that split's cache file, and re-derive the
  // column from the raw table — same rows as a cache-disabled run, never an
  // error, never silently wrong data.
  MakeTable("t", 1400);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql = "SELECT get_json_object(payload, '$.f0') FROM db.t";
  auto expected = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  auto cache_splits = FileSystem::ListSplits(root_ + "/cache/db.t");
  ASSERT_TRUE(cache_splits.ok());
  ASSERT_FALSE(cache_splits->empty());
  {
    std::ofstream truncate((*cache_splits)[0].path,
                           std::ios::binary | std::ios::trunc);
    truncate << "garbage";
  }
  auto result = session.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->metrics.cache_corruption_fallbacks, 1u);
  // Only the corrupt split re-parses; the other split still reads cached.
  EXPECT_GT(result->metrics.parse.records_parsed, 0u);
  ASSERT_EQ(result->batch.num_rows(), expected->batch.num_rows());
  for (size_t r = 0; r < result->batch.num_rows(); ++r) {
    for (size_t c = 0; c < result->batch.num_columns(); ++c) {
      EXPECT_EQ(result->batch.column(c).GetValue(r).ToString(),
                expected->batch.column(c).GetValue(r).ToString())
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(IntegrationTest, MissingCacheSplitSurfacesAsError) {
  MakeTable("t", 1400);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());
  auto cache_splits = FileSystem::ListSplits(root_ + "/cache/db.t");
  ASSERT_TRUE(cache_splits.ok());
  std::filesystem::remove((*cache_splits)[1].path);
  auto result = session.Execute(
      "SELECT get_json_object(payload, '$.f0') FROM db.t");
  EXPECT_FALSE(result.ok());
}

TEST_F(IntegrationTest, SelfJoinUsesCacheOnBothSides) {
  // Cached get_json_object calls under both join inputs must be rewritten
  // per-scan (qualified placeholders) and produce the same rows as the
  // uncached plan.
  MakeTable("t", 700);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f1"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT a.id FROM db.t a JOIN db.t b ON "
      "get_json_object(a.payload, '$.f1') = "
      "get_json_object(b.payload, '$.f1') "
      "WHERE a.id < 40 AND b.id < 40";
  auto cached = session.Execute(sql);
  auto plain = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(cached->batch.num_rows(), plain->batch.num_rows());
  EXPECT_GT(cached->batch.num_rows(), 0u);
  // Join keys on both sides resolved from cache: no JSON parsing at all.
  EXPECT_EQ(cached->metrics.parse.records_parsed, 0u);
  // Both scans carry a cache column request.
  auto plan = session.Plan(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.cache_columns.size(), 1u);
  ASSERT_TRUE(plan->join_scan.has_value());
  EXPECT_EQ(plan->join_scan->cache_columns.size(), 1u);
}

TEST_F(IntegrationTest, MultiStripeFilesStillAlignAndMatch) {
  // Force multiple stripes per part file; pushdown sharing is disabled by
  // the paper's single-stripe rule, but results must remain identical.
  {
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "striped";
    spec.num_properties = 10;
    spec.rows = 900;
    spec.rows_per_file = 900;
    spec.rows_per_group = 50;
    auto generated =
        workload::GenerateJsonTable(spec, root_ + "/warehouse", 3, &catalog_);
    ASSERT_TRUE(generated.ok());
  }
  // Rewrite the raw file with small stripes by copying it through a writer.
  const std::string table_dir = root_ + "/warehouse/db/striped";
  {
    auto splits = FileSystem::ListSplits(table_dir);
    ASSERT_TRUE(splits.ok());
    storage::CorcReader reader((*splits)[0].path);
    ASSERT_TRUE(reader.Open().ok());
    auto all = reader.ReadAll(nullptr);
    ASSERT_TRUE(all.ok());
    storage::CorcWriterOptions options;
    options.rows_per_group = 50;
    options.rows_per_stripe = 300;  // -> 3 stripes
    storage::CorcWriter writer((*splits)[0].path + ".tmp", reader.schema(),
                               options);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.WriteBatch(*all).ok());
    ASSERT_TRUE(writer.Close().ok());
    std::filesystem::rename((*splits)[0].path + ".tmp", (*splits)[0].path);
  }

  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "striped", {"$.f0", "$.f1"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT get_json_object(payload, '$.f1') AS c, COUNT(*) AS n "
      "FROM db.striped WHERE to_int(get_json_object(payload, '$.f0')) >= "
      "450 GROUP BY get_json_object(payload, '$.f1') ORDER BY c";
  auto cached = session.Execute(sql);
  auto plain = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(cached->batch.num_rows(), plain->batch.num_rows());
  for (size_t r = 0; r < cached->batch.num_rows(); ++r) {
    EXPECT_EQ(cached->batch.column(1).GetValue(r).ToString(),
              plain->batch.column(1).GetValue(r).ToString());
  }
}

TEST_F(IntegrationTest, MisonBackendEndToEndMatchesDom) {
  MakeTable("t", 1400, 0.3);
  MaxsonConfig config;
  config.cache_root = root_ + "/cache";
  config.engine.default_database = "db";
  config.engine.json_backend = engine::JsonBackend::kMison;
  config.predictor.epochs = 5;
  MaxsonSession mison(&catalog_, config);
  FeedDailyHistory(&mison, "t", {"$.f0", "$.f1"}, 14);
  ASSERT_TRUE(mison.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(mison.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT get_json_object(payload, '$.f1') AS c, COUNT(*) AS n "
      "FROM db.t GROUP BY get_json_object(payload, '$.f1') ORDER BY c";
  auto cached = mison.Execute(sql);
  auto plain = mison.ExecuteWithoutCache(sql);
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(cached->batch.num_rows(), plain->batch.num_rows());
  for (size_t r = 0; r < cached->batch.num_rows(); ++r) {
    EXPECT_EQ(cached->batch.column(1).GetValue(r).ToString(),
              plain->batch.column(1).GetValue(r).ToString());
  }
}

TEST_F(IntegrationTest, TypedCacheColumnsGetNumericStats) {
  // Cache fields hold get_json_object's text. $.f0 (the row counter)
  // parses as a number in every record, so its row groups carry numeric
  // bounds and `to_int(...) > N` still prunes them; $.f1 ("catK") keeps
  // lexicographic bounds.
  MakeTable("t", 1400);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0", "$.f1"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  auto cache_splits = FileSystem::ListSplits(root_ + "/cache/db.t");
  ASSERT_TRUE(cache_splits.ok());
  storage::CorcReader reader((*cache_splits)[0].path);
  ASSERT_TRUE(reader.Open().ok());
  const int f0 = reader.schema().FindField(
      core::CacheFieldName("payload", "$.f0"));
  const int f1 = reader.schema().FindField(
      core::CacheFieldName("payload", "$.f1"));
  ASSERT_GE(f0, 0);
  ASSERT_GE(f1, 0);
  EXPECT_EQ(reader.schema().field(static_cast<size_t>(f0)).type,
            storage::TypeKind::kString);
  EXPECT_EQ(reader.schema().field(static_cast<size_t>(f1)).type,
            storage::TypeKind::kString);
  const auto& columns = reader.footer().stripes[0].columns;
  const auto& f0_stats = columns[static_cast<size_t>(f0)].row_groups[0].stats;
  const auto& f1_stats = columns[static_cast<size_t>(f1)].row_groups[0].stats;
  EXPECT_TRUE(f0_stats.min.is_double());
  EXPECT_TRUE(f0_stats.max.is_double());
  EXPECT_EQ(f0_stats.min.double_value(), 0.0);
  EXPECT_EQ(f0_stats.max.double_value(), 99.0);
  EXPECT_TRUE(f1_stats.min.is_string());
  EXPECT_TRUE(f1_stats.max.is_string());

  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f0') AS v FROM db.t "
      "WHERE to_int(get_json_object(payload, '$.f0')) > 1250";
  auto cached = session.Execute(sql);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_GT(cached->metrics.shared_skips, 0u);
  auto plain = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(cached->batch.num_rows(), 149u);
  EXPECT_EQ(engine::FingerprintHash(cached->batch),
            engine::FingerprintHash(plain->batch));
}

}  // namespace
}  // namespace maxson
