#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>

#include "catalog/catalog.h"
#include "core/cache_registry.h"
#include "core/cacher.h"
#include "core/collector.h"
#include "core/lru_cache.h"
#include "core/maxson.h"
#include "core/maxson_parser.h"
#include "core/predictor.h"
#include "core/scoring.h"
#include "gtest/gtest.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"
#include "workload/trace_generator.h"

namespace maxson::core {
namespace {

using storage::FileSystem;
using workload::JsonPathLocation;

JsonPathLocation Loc(const std::string& table, const std::string& path) {
  JsonPathLocation loc;
  loc.database = "mydb";
  loc.table = table;
  loc.column = "payload";
  loc.path = path;
  return loc;
}

TEST(CacheRegistryTest, PutFindInvalidateClear) {
  CacheRegistry registry;
  CacheEntry entry;
  entry.location = Loc("t", "$.a");
  entry.cache_table_dir = "/tmp/cache/mydb.t";
  entry.cache_field = "payload___a";
  entry.cache_time = 5;
  registry.Put(entry);

  const std::optional<CacheEntry> found = registry.Lookup(Loc("t", "$.a"));
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->valid);
  EXPECT_FALSE(registry.Lookup(Loc("t", "$.b")).has_value());

  registry.Invalidate(Loc("t", "$.a"));
  EXPECT_FALSE(registry.Lookup(Loc("t", "$.a"))->valid);

  const std::vector<std::string> dirs = registry.Clear();
  ASSERT_EQ(dirs.size(), 1u);
  EXPECT_EQ(dirs[0], "/tmp/cache/mydb.t");
  EXPECT_EQ(registry.size(), 0u);
}

TEST(CacheRegistryTest, JsonRoundTripPreservesEntries) {
  CacheRegistry registry;
  CacheEntry entry;
  entry.location = Loc("t", "$.a.b");
  entry.cache_table_dir = "/cache/mydb.t";
  entry.cache_field = "payload___a_b";
  entry.cache_time = 12;
  registry.Put(entry);
  CacheEntry stale = entry;
  stale.location = Loc("t", "$.c");
  stale.valid = false;
  registry.Put(stale);

  auto restored = CacheRegistry::FromJson(registry.ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), 2u);
  const std::optional<CacheEntry> a = restored->Lookup(Loc("t", "$.a.b"));
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->valid);
  EXPECT_EQ(a->cache_time, 12);
  EXPECT_EQ(a->cache_table_dir, "/cache/mydb.t");
  const std::optional<CacheEntry> c = restored->Lookup(Loc("t", "$.c"));
  ASSERT_TRUE(c.has_value());
  EXPECT_FALSE(c->valid);
}

TEST(CacheRegistryTest, SaveLoadAndRejectGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("maxson_registry_" + std::to_string(::getpid()) + ".json"))
          .string();
  CacheRegistry registry;
  CacheEntry entry;
  entry.location = Loc("t", "$.x");
  entry.cache_table_dir = "/cache/mydb.t";
  entry.cache_field = "payload___x";
  registry.Put(entry);
  ASSERT_TRUE(registry.Save(path).ok());
  auto loaded = CacheRegistry::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Lookup(Loc("t", "$.x")).has_value());
  std::filesystem::remove(path);

  EXPECT_FALSE(CacheRegistry::FromJson("not json").ok());
  EXPECT_FALSE(CacheRegistry::FromJson("{}").ok());
  EXPECT_FALSE(CacheRegistry::Load("/nonexistent/registry.json").ok());
}

TEST(CacheRegistryTest, FieldAndDirNaming) {
  EXPECT_EQ(CacheFieldName("payload", "$.a.b[2]"), "payload____a_b_2_");
  EXPECT_EQ(CacheTableDir("/cache", "db", "t"), "/cache/db.t");
  // Distinct paths must map to distinct fields for the paths we use.
  EXPECT_NE(CacheFieldName("payload", "$.f1"), CacheFieldName("payload", "$.f2"));
}

TEST(CollectorTest, CountsAndMpjps) {
  JsonPathCollector collector;
  workload::QueryRecord q1;
  q1.date = 3;
  q1.paths = {Loc("t", "$.a"), Loc("t", "$.b")};
  workload::QueryRecord q2;
  q2.date = 3;
  q2.paths = {Loc("t", "$.a")};
  collector.Record(q1);
  collector.Record(q2);

  EXPECT_EQ(collector.CountOn(Loc("t", "$.a").Key(), 3), 2);
  EXPECT_EQ(collector.CountOn(Loc("t", "$.b").Key(), 3), 1);
  EXPECT_EQ(collector.CountOn(Loc("t", "$.a").Key(), 4), 0);
  EXPECT_EQ(collector.CountsBetween(Loc("t", "$.a").Key(), 1, 4),
            (std::vector<int>{0, 0, 2}));

  const auto mpjps = collector.PathsWithCountAtLeast(3, 2);
  ASSERT_EQ(mpjps.size(), 1u);
  EXPECT_EQ(mpjps[0], Loc("t", "$.a").Key());
  EXPECT_EQ(collector.QueriesOn(3).size(), 2u);
  EXPECT_EQ(collector.max_date(), 3);
  ASSERT_NE(collector.Location(Loc("t", "$.b").Key()), nullptr);
  EXPECT_EQ(collector.Location(Loc("t", "$.b").Key())->path, "$.b");
}

TEST(CollectorTest, JsonRoundTripPreservesStatistics) {
  JsonPathCollector collector;
  workload::QueryRecord q1;
  q1.date = 2;
  q1.paths = {Loc("t", "$.a"), Loc("t", "$.b")};
  workload::QueryRecord q2;
  q2.date = 5;
  q2.paths = {Loc("t", "$.a")};
  collector.Record(q1);
  collector.Record(q2);

  auto restored = JsonPathCollector::FromJson(collector.ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->CountOn(Loc("t", "$.a").Key(), 2), 1);
  EXPECT_EQ(restored->CountOn(Loc("t", "$.a").Key(), 5), 1);
  EXPECT_EQ(restored->CountOn(Loc("t", "$.b").Key(), 2), 1);
  EXPECT_EQ(restored->max_date(), 5);
  EXPECT_EQ(restored->QueriesOn(2).size(), 1u);
  EXPECT_EQ(restored->QueriesOn(2)[0].size(), 2u);
  ASSERT_NE(restored->Location(Loc("t", "$.b").Key()), nullptr);
  EXPECT_EQ(restored->Location(Loc("t", "$.b").Key())->path, "$.b");

  EXPECT_FALSE(JsonPathCollector::FromJson("[]").ok());
  EXPECT_FALSE(JsonPathCollector::FromJson("{}").ok());
}

TEST(CollectorTest, SaveLoadFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("maxson_collector_" + std::to_string(::getpid()) + ".json"))
          .string();
  JsonPathCollector collector;
  workload::QueryRecord q;
  q.date = 1;
  q.paths = {Loc("t", "$.x")};
  collector.Record(q);
  ASSERT_TRUE(collector.Save(path).ok());
  auto loaded = JsonPathCollector::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->CountOn(Loc("t", "$.x").Key(), 1), 1);
  std::filesystem::remove(path);
}

TEST(ScoringTest, EquationsMatchPaperDefinitions) {
  // Two candidates; three queries. Candidate a: parse 2s, 1 byte; in q1
  // (paths {a,b}, both MPJP) and q2 (paths {a,x}, one MPJP).
  MpjpCandidate a;
  a.location = Loc("t", "$.a");
  a.avg_parse_seconds = 2.0;
  a.avg_value_bytes = 1.0;
  a.estimated_cache_bytes = 10;
  MpjpCandidate b;
  b.location = Loc("t", "$.b");
  b.avg_parse_seconds = 1.0;
  b.avg_value_bytes = 4.0;
  b.estimated_cache_bytes = 10;

  const std::string ka = a.location.Key();
  const std::string kb = b.location.Key();
  const std::string kx = Loc("t", "$.x").Key();
  std::vector<std::vector<std::string>> queries = {
      {ka, kb}, {ka, kx}, {kb, kb, kx, kx}};
  std::set<std::string> mpjps = {ka, kb};

  const auto scored = ScoreMpjps({a, b}, queries, mpjps);
  ASSERT_EQ(scored.size(), 2u);
  // Candidate a: A = 2/1 = 2; queries containing a: q1 (M=2,N=2), q2
  // (M=1,N=2) -> R = 3/4; O = 2 -> score = 2 * 0.75 * 2 = 3.
  const ScoredMpjp& sa =
      scored[0].candidate.location.Key() == ka ? scored[0] : scored[1];
  EXPECT_DOUBLE_EQ(sa.acceleration_per_byte, 2.0);
  EXPECT_DOUBLE_EQ(sa.relevance, 0.75);
  EXPECT_EQ(sa.occurrences, 2u);
  EXPECT_DOUBLE_EQ(sa.score, 3.0);
  // Candidate b: A = 0.25; queries with b: q1 (2/2), q3 (2/4) -> R = 4/6;
  // O = 2 -> score = 0.25 * (4/6) * 2 = 1/3.
  const ScoredMpjp& sb =
      scored[0].candidate.location.Key() == kb ? scored[0] : scored[1];
  EXPECT_DOUBLE_EQ(sb.acceleration_per_byte, 0.25);
  EXPECT_NEAR(sb.relevance, 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(sb.score, 1.0 / 3.0, 1e-12);
  // Sorted descending: a first.
  EXPECT_EQ(scored[0].candidate.location.Key(), ka);
}

TEST(ScoringTest, BudgetedSelectionRespectsBudget) {
  std::vector<ScoredMpjp> scored;
  for (int i = 0; i < 5; ++i) {
    ScoredMpjp s;
    s.candidate.location = Loc("t", "$.f" + std::to_string(i));
    s.candidate.estimated_cache_bytes = 100;
    s.score = 10 - i;
    scored.push_back(s);
  }
  const auto selected = SelectWithinBudget(scored, 250);
  ASSERT_EQ(selected.size(), 2u);  // two fit in 250 bytes
  EXPECT_EQ(selected[0].candidate.location.path, "$.f0");
  EXPECT_EQ(selected[1].candidate.location.path, "$.f1");

  const auto all = SelectWithinBudget(scored, 10000);
  EXPECT_EQ(all.size(), 5u);
  const auto none = SelectWithinBudget(scored, 50);
  EXPECT_TRUE(none.empty());

  const auto random = SelectRandomWithinBudget(scored, 250, 3);
  EXPECT_LE(random.size(), 2u);
}

TEST(ScoringTest, SmallerLaterCandidatesBackfillBudget) {
  std::vector<ScoredMpjp> scored(3);
  scored[0].candidate.location = Loc("t", "$.big");
  scored[0].candidate.estimated_cache_bytes = 90;
  scored[0].score = 3;
  scored[1].candidate.location = Loc("t", "$.huge");
  scored[1].candidate.estimated_cache_bytes = 50;
  scored[1].score = 2;
  scored[2].candidate.location = Loc("t", "$.small");
  scored[2].candidate.estimated_cache_bytes = 10;
  scored[2].score = 1;
  const auto selected = SelectWithinBudget(scored, 100);
  // big (90) fits; huge (50) does not; small (10) backfills.
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].candidate.location.path, "$.big");
  EXPECT_EQ(selected[1].candidate.location.path, "$.small");
}

TEST(LruCacheTest, HitMissPromotionEviction) {
  LruValueCache cache(100);
  EXPECT_FALSE(cache.Get("a"));
  cache.Put("a", 40);
  cache.Put("b", 40);
  EXPECT_TRUE(cache.Get("a"));  // promotes a
  cache.Put("c", 40);           // evicts b (LRU)
  EXPECT_TRUE(cache.Get("a"));
  EXPECT_FALSE(cache.Get("b"));
  EXPECT_TRUE(cache.Get("c"));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.used_bytes(), 80u);
}

TEST(LruCacheTest, OversizedEntriesNotAdmitted) {
  LruValueCache cache(10);
  cache.Put("big", 100);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("big"));
}

TEST(LruCacheTest, UpdateExistingEntryAdjustsBytes) {
  LruValueCache cache(100);
  cache.Put("a", 30);
  cache.Put("a", 60);
  EXPECT_EQ(cache.used_bytes(), 60u);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.Get("a"));
}

TEST(LruCacheTest, HitRatioAccounting) {
  LruValueCache cache(100);
  cache.Put("a", 10);
  cache.Get("a");
  cache.Get("a");
  cache.Get("z");
  EXPECT_NEAR(cache.HitRatio(), 2.0 / 3.0, 1e-12);
}

// ---------- End-to-end Maxson fixture ----------

class MaxsonEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_core_test_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
    // Table mydb.sales with JSON payloads.
    workload::JsonTableSpec spec;
    spec.database = "mydb";
    spec.table = "sales";
    spec.num_properties = 12;
    spec.avg_json_bytes = 400;
    spec.rows = 3000;
    spec.rows_per_file = 1000;
    spec.rows_per_group = 200;
    auto table = workload::GenerateJsonTable(spec, root_ + "/warehouse", 3,
                                             &catalog_);
    ASSERT_TRUE(table.ok()) << table.status();
  }

  void TearDown() override { ASSERT_TRUE(FileSystem::RemoveAll(root_).ok()); }

  MaxsonConfig Config() {
    MaxsonConfig config;
    config.cache_root = root_ + "/cache";
    config.cache_budget_bytes = 64ull << 20;
    config.engine.default_database = "mydb";
    return config;
  }

  /// Feeds the collector a history in which $.f1, $.f2 are parsed daily by
  /// several queries (clear MPJPs) and $.f9 appears once a week.
  void FeedHistory(MaxsonSession* session, int days) {
    for (int day = 0; day < days; ++day) {
      for (int rep = 0; rep < 3; ++rep) {
        workload::QueryRecord q;
        q.date = day;
        q.recurrence = workload::Recurrence::kDaily;
        q.paths = {Loc("sales", "$.f1"), Loc("sales", "$.f2")};
        session->RecordQuery(q);
      }
      if (day % 7 == 0) {
        workload::QueryRecord q;
        q.date = day;
        q.recurrence = workload::Recurrence::kWeekly;
        q.paths = {Loc("sales", "$.f9")};
        session->RecordQuery(q);
      }
    }
  }

  std::string root_;
  catalog::Catalog catalog_;
};

TEST_F(MaxsonEndToEndTest, SampleTableStatsMeasuresSizesAndTimes) {
  auto table = catalog_.GetTable("mydb", "sales");
  ASSERT_TRUE(table.ok());
  auto stats = SampleTableStats(**table, "payload", "$.f1", 100,
                                engine::JsonBackend::kDom);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->table_rows, 3000u);
  EXPECT_GT(stats->avg_value_bytes, 1.0);   // "catN" strings
  EXPECT_LT(stats->avg_value_bytes, 10.0);
  EXPECT_GT(stats->avg_parse_seconds, 0.0);
}

TEST_F(MaxsonEndToEndTest, CacherWritesAlignedCacheTables) {
  CacheRegistry registry;
  JsonPathCacher cacher(&catalog_, root_ + "/cache");
  std::vector<ScoredMpjp> selected(2);
  selected[0].candidate.location = Loc("sales", "$.f1");
  selected[1].candidate.location = Loc("sales", "$.f2");
  auto stats = cacher.RepopulateCache(selected, 1, &registry);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_cached, 2u);
  EXPECT_EQ(stats->rows_parsed, 3000u);
  EXPECT_EQ(registry.size(), 2u);

  // One cache file per raw part file, with matching row counts.
  const std::string cache_dir = CacheTableDir(root_ + "/cache", "mydb", "sales");
  auto splits = FileSystem::ListSplits(cache_dir);
  ASSERT_TRUE(splits.ok());
  EXPECT_EQ(splits->size(), 3u);  // 3000 rows / 1000 per file
  storage::CorcReader reader((*splits)[0].path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.num_rows(), 1000u);
  EXPECT_EQ(reader.footer().rows_per_group, 200u);
  EXPECT_EQ(reader.schema().num_fields(), 2u);
}

TEST_F(MaxsonEndToEndTest, CacheFilesDoNotDependOnSelectionOrder) {
  // Selections arrive in score order, which varies from run to run; the
  // same paths handed over in two orders must write byte-identical files.
  const std::vector<std::string> paths = {"$.f3", "$.f1", "$.f2"};
  std::vector<std::string> dirs;
  for (const bool reversed : {false, true}) {
    std::vector<ScoredMpjp> selected(paths.size());
    for (size_t i = 0; i < paths.size(); ++i) {
      selected[i].candidate.location =
          Loc("sales", paths[reversed ? paths.size() - 1 - i : i]);
    }
    const std::string cache_root =
        root_ + (reversed ? "/cache_reversed" : "/cache_forward");
    CacheRegistry registry;
    JsonPathCacher cacher(&catalog_, cache_root);
    ASSERT_TRUE(cacher.RepopulateCache(selected, 1, &registry).ok());
    dirs.push_back(CacheTableDir(cache_root, "mydb", "sales"));
  }
  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  auto forward = FileSystem::ListSplits(dirs[0]);
  auto reversed = FileSystem::ListSplits(dirs[1]);
  ASSERT_TRUE(forward.ok() && reversed.ok());
  ASSERT_EQ(forward->size(), 3u);
  ASSERT_EQ(reversed->size(), forward->size());
  for (size_t i = 0; i < forward->size(); ++i) {
    const std::string bytes = read_file((*forward)[i].path);
    EXPECT_FALSE(bytes.empty());
    EXPECT_TRUE(bytes == read_file((*reversed)[i].path))
        << "cache part file " << i << " differs between selection orders";
  }
}

TEST_F(MaxsonEndToEndTest, CachedQueryMatchesUncachedResults) {
  MaxsonSession session(&catalog_, Config());
  FeedHistory(&session, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  auto report = session.RunMidnightCycle(14);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->selected.size(), 0u);

  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f1') AS f1, "
      "get_json_object(payload, '$.f2') AS f2 FROM mydb.sales "
      "WHERE date = 20190101";
  auto cached = session.Execute(sql);
  ASSERT_TRUE(cached.ok()) << cached.status();
  auto uncached = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(uncached.ok()) << uncached.status();

  ASSERT_EQ(cached->batch.num_rows(), uncached->batch.num_rows());
  ASSERT_GT(cached->batch.num_rows(), 0u);
  for (size_t r = 0; r < cached->batch.num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(cached->batch.column(c).GetValue(r).ToString(),
                uncached->batch.column(c).GetValue(r).ToString())
          << "row " << r << " col " << c;
    }
  }
  // The cached run must not have parsed JSON for f1/f2.
  EXPECT_LT(cached->metrics.parse.records_parsed,
            uncached->metrics.parse.records_parsed);
  EXPECT_EQ(cached->metrics.parse.records_parsed, 0u);
  EXPECT_GT(cached->metrics.cache_columns_read, 0u);
}

TEST_F(MaxsonEndToEndTest, PredicatePushdownSharesSkipsAcrossReaders) {
  MaxsonSession session(&catalog_, Config());
  FeedHistory(&session, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  // f1 = "cat3" matches 10% of rows; the cache-field SARG should exclude
  // row groups... but "catN" cycles every 10 rows so every group contains
  // every category. Use a range predicate on f1 rendered strings instead:
  // categories are cat0..cat9; pick one that sorts above most ("cat9").
  const std::string sql =
      "SELECT get_json_object(payload, '$.f1') AS f1 FROM mydb.sales "
      "WHERE get_json_object(payload, '$.f1') > 'cat8'";
  auto result = session.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  // Correctness: exactly the cat9 rows.
  EXPECT_EQ(result->batch.num_rows(), 300u);
  // The rewritten plan must carry a cache SARG (pushdown happened), even if
  // min/max can't skip groups on this data distribution.
  auto plan = session.Plan(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->scan.cache_sarg.empty());
  EXPECT_EQ(plan->scan.cache_columns.size(), 1u);
}

TEST_F(MaxsonEndToEndTest, ModificationInvalidatesCache) {
  MaxsonSession session(&catalog_, Config());
  FeedHistory(&session, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT get_json_object(payload, '$.f1') FROM mydb.sales LIMIT 5";
  auto before = session.Execute(sql);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->metrics.parse.records_parsed, 0u);  // cache hit

  // Touch the table with a timestamp after the cache time (day 14).
  ASSERT_TRUE(catalog_.TouchTable("mydb", "sales", 20).ok());
  auto after = session.Execute(sql);
  ASSERT_TRUE(after.ok());
  // Cache invalid: the engine must parse raw JSON again.
  EXPECT_GT(after->metrics.parse.records_parsed, 0u);
  EXPECT_GT(session.parser().invalidations(), 0u);
  // The entry stays invalid for later queries too.
  auto again = session.Execute(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(again->metrics.parse.records_parsed, 0u);
}

TEST_F(MaxsonEndToEndTest, PredictorFindsDailyMpjps) {
  MaxsonSession session(&catalog_, Config());
  FeedHistory(&session, 21);
  ASSERT_TRUE(session.TrainPredictor(8, 20).ok());
  const auto predicted = session.PredictMpjps(21);
  const std::set<std::string> set(predicted.begin(), predicted.end());
  // Daily paths parsed 3x/day are trivially MPJPs.
  EXPECT_TRUE(set.count(Loc("sales", "$.f1").Key()) != 0);
  EXPECT_TRUE(set.count(Loc("sales", "$.f2").Key()) != 0);
  // The weekly path (parsed once on its day) never hits count >= 2.
  EXPECT_TRUE(set.count(Loc("sales", "$.f9").Key()) == 0);
}

TEST_F(MaxsonEndToEndTest, MidnightCycleIsRepeatable) {
  MaxsonSession session(&catalog_, Config());
  FeedHistory(&session, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());
  const size_t first_size = session.registry().size();
  // Re-populating (next midnight) must not leak stale entries or files.
  ASSERT_TRUE(session.RunMidnightCycle(15).ok());
  EXPECT_EQ(session.registry().size(), first_size);
  auto result = session.Execute(
      "SELECT get_json_object(payload, '$.f1') FROM mydb.sales LIMIT 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.parse.records_parsed, 0u);
}

TEST_F(MaxsonEndToEndTest, BudgetZeroCachesNothing) {
  MaxsonConfig config = Config();
  config.cache_budget_bytes = 0;
  MaxsonSession session(&catalog_, config);
  FeedHistory(&session, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  auto report = session.RunMidnightCycle(14);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->selected.empty());
  auto result = session.Execute(
      "SELECT get_json_object(payload, '$.f1') FROM mydb.sales LIMIT 3");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.parse.records_parsed, 0u);  // no cache
}

TEST_F(MaxsonEndToEndTest, MaxsonParserCountsHitsAndMisses) {
  MaxsonSession session(&catalog_, Config());
  FeedHistory(&session, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());
  // f1 cached; f7 never cached.
  auto result = session.Execute(
      "SELECT get_json_object(payload, '$.f1'), "
      "get_json_object(payload, '$.f7') FROM mydb.sales LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(session.parser().cache_hits(), 1u);
  EXPECT_GE(session.parser().cache_misses(), 1u);
}

}  // namespace
}  // namespace maxson::core
