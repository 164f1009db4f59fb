// Tests of queries scanning one table at the same time.
//
// Each query reads its own splits, alone through the session and truly
// concurrent through MaxsonServer and bare session threads. Every result
// must be byte-identical to a file-based oracle that reads the part files
// directly, and a query's counters must not depend on what else runs.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "json/json_path.h"
#include "obs/metrics_registry.h"
#include "serve/server.h"
#include "storage/corc_reader.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

/// One query and what the file oracle needs to answer it: `SELECT <columns>
/// FROM t WHERE keep(id)`, where each output column is the raw `id` or a
/// path of `payload`.
struct OracleQuery {
  std::string sql;
  /// (output name, path) in output order; an empty path is the raw `id`.
  std::vector<std::pair<std::string, std::string>> columns;
  std::function<bool(int64_t)> keep = [](int64_t) { return true; };
};

/// The path the fixture caches before every test.
constexpr char kCachedPath[] = "$.f3";

class ConcurrentScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_concurrent_scan_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "t";
    spec.num_properties = 4;
    spec.avg_json_bytes = 120;
    spec.rows = 600;
    spec.rows_per_file = 150;  // 4 splits per scan
    spec.rows_per_group = 50;
    spec.seed = 7;
    auto generated =
        workload::GenerateJsonTable(spec, root_ + "/warehouse", 1, &catalog_);
    ASSERT_TRUE(generated.ok()) << generated.status();
    table_dir_ = generated->location;

    core::MaxsonConfig config;
    config.cache_root = root_ + "/cache";
    config.engine.default_database = "db";
    config.engine.num_threads = 2;
    config.metrics = &metrics_;
    session_ = std::make_unique<core::MaxsonSession>(&catalog_, config);

    core::ScoredMpjp cached;
    cached.candidate.location.database = "db";
    cached.candidate.location.table = "t";
    cached.candidate.location.column = "payload";
    cached.candidate.location.path = kCachedPath;
    auto caching = session_->CacheSelected({cached}, 1);
    ASSERT_TRUE(caching.ok()) << caching.status();
    ASSERT_EQ(caching->paths_cached, 1u);
  }
  void TearDown() override {
    session_.reset();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
  }

  /// Fingerprint of `sql` as the session executes it.
  std::string Fingerprint(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? engine::FingerprintBatch(result->batch)
                       : std::string();
  }

  /// File-based oracle: `q`'s expected result computed without the engine.
  /// Each split is read with CorcReader in index order, each path is
  /// extracted with json::GetJsonObject (absent -> NULL), the predicate is
  /// applied here, and every output column is typed the way the engine
  /// types it — by the widest kind among all its values, string when all
  /// are NULL.
  std::string Expected(const OracleQuery& q) {
    std::vector<std::optional<json::JsonPath>> paths;
    for (const auto& [name, path_text] : q.columns) {
      if (path_text.empty()) {
        paths.emplace_back();
        continue;
      }
      auto path = json::JsonPath::Parse(path_text);
      EXPECT_TRUE(path.ok()) << path_text;
      if (!path.ok()) return std::string();
      paths.emplace_back(std::move(*path));
    }
    auto splits = storage::FileSystem::ListSplits(table_dir_);
    EXPECT_TRUE(splits.ok()) << splits.status();
    if (!splits.ok()) return std::string();
    std::vector<std::vector<storage::Value>> rows;
    for (const storage::Split& split : *splits) {
      storage::CorcReader reader(split.path);
      EXPECT_TRUE(reader.Open().ok()) << split.path;
      auto batch = reader.ReadAll(nullptr);
      EXPECT_TRUE(batch.ok()) << batch.status();
      if (!batch.ok()) return std::string();
      const storage::ColumnVector& ids = batch->column(
          static_cast<size_t>(batch->schema().FindField("id")));
      const storage::ColumnVector& payload = batch->column(
          static_cast<size_t>(batch->schema().FindField("payload")));
      for (size_t r = 0; r < batch->num_rows(); ++r) {
        const int64_t id = ids.GetInt64(r);
        if (!q.keep(id)) continue;
        std::vector<storage::Value> row;
        for (const std::optional<json::JsonPath>& path : paths) {
          if (!path.has_value()) {
            row.push_back(storage::Value::Int64(id));
            continue;
          }
          Result<std::string> value =
              payload.IsNull(r) ? Result<std::string>(Status::NotFound(""))
                                : json::GetJsonObject(payload.GetString(r),
                                                      *path);
          row.push_back(value.ok() ? storage::Value::String(std::move(*value))
                                   : storage::Value::Null());
        }
        rows.push_back(std::move(row));
      }
    }
    storage::Schema schema;
    for (size_t c = 0; c < q.columns.size(); ++c) {
      std::optional<storage::TypeKind> type;
      for (const std::vector<storage::Value>& row : rows) {
        if (row[c].is_null()) continue;
        const storage::TypeKind kind = row[c].is_int64()
                                           ? storage::TypeKind::kInt64
                                           : storage::TypeKind::kString;
        type = std::max(type.value_or(kind), kind);
      }
      schema.AddField(q.columns[c].first,
                      type.value_or(storage::TypeKind::kString));
    }
    storage::RecordBatch expected(schema);
    for (const std::vector<storage::Value>& row : rows) {
      expected.AppendRow(row);
    }
    return engine::FingerprintBatch(expected);
  }

  /// A registry entry for an unrelated table: importing it bumps
  /// CacheRegistry::version() while other queries run.
  core::CacheEntry UnrelatedRegistryEntry(int i) {
    core::CacheEntry entry;
    entry.location.database = "db";
    entry.location.table = "unrelated";
    entry.location.column = "c";
    entry.location.path = "$.f" + std::to_string(i);
    entry.cache_table_dir = root_ + "/cache/unrelated";
    entry.cache_field = "f";
    entry.cache_time = i;
    return entry;
  }

  std::string root_;
  std::string table_dir_;
  catalog::Catalog catalog_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<core::MaxsonSession> session_;
};

/// Reads the cached path through two get_json_object calls: both resolve
/// to the one cache column the scan supplies.
const OracleQuery kCachedPathTwice = {
    .sql = "SELECT get_json_object(payload, '$.f3') AS a, "
           "get_json_object(payload, '$.f3') AS b FROM t WHERE id >= 100",
    .columns = {{"a", "$.f3"}, {"b", "$.f3"}},
    .keep = [](int64_t id) { return id >= 100; }};

/// Names the raw column `id` twice.
const OracleQuery kRawColumnTwice = {
    .sql = "SELECT id, id AS id2 FROM t WHERE id < 250",
    .columns = {{"id", ""}, {"id2", ""}},
    .keep = [](int64_t id) { return id < 250; }};

TEST_F(ConcurrentScanTest, SequentialScansMatchTheFileOracle) {
  const std::vector<OracleQuery> queries = {
      {.sql = "SELECT id FROM t", .columns = {{"id", ""}}},
      {.sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
              "WHERE id >= 100",
       .columns = {{"id", ""}, {"f1", "$.f1"}},
       .keep = [](int64_t id) { return id >= 100; }},
      {.sql = "SELECT get_json_object(payload, '$.f2') AS f2 FROM t "
              "WHERE id < 50",
       .columns = {{"f2", "$.f2"}},
       .keep = [](int64_t id) { return id < 50; }},
      kCachedPathTwice,
      kRawColumnTwice,
  };
  for (const OracleQuery& q : queries) {
    EXPECT_EQ(Fingerprint(q.sql), Expected(q)) << q.sql;
  }
  // Both calls were rewritten to the cache column, which the scan read from
  // every split: no record was parsed.
  auto cached = session_->Execute(kCachedPathTwice.sql);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(cached->metrics.plan_cache_hits, 2u);
  EXPECT_EQ(cached->metrics.cache_columns_read, 4u);
  EXPECT_EQ(cached->metrics.parse.records_parsed, 0u);
}

TEST_F(ConcurrentScanTest, ConcurrentServedClientsStayIdentical) {
  const OracleQuery q = {
      .sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
             "WHERE id < 400",
      .columns = {{"id", ""}, {"f1", "$.f1"}},
      .keep = [](int64_t id) { return id < 400; }};
  const std::string expected = Expected(q);
  const std::string& sql = q.sql;
  // The counters of the query running alone: every concurrent client must
  // count exactly these, since each reads and parses its own splits.
  auto alone = session_->Execute(sql);
  ASSERT_TRUE(alone.ok()) << alone.status();
  const engine::QueryMetrics& want = alone->metrics;

  serve::ServeOptions options;
  // Result caching off so every client truly scans.
  options.enable_result_cache = false;
  serve::MaxsonServer server(session_.get(), &catalog_, options);
  constexpr size_t kClients = 4;
  std::vector<serve::ClientSession> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(server.Connect("tenant" + std::to_string(i)));
  }

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> rows_ok{true};
    std::atomic<bool> counters_ok{true};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        auto outcome = clients[i].Execute(sql);
        if (!outcome.ok() ||
            engine::FingerprintBatch(outcome->result.batch) != expected) {
          rows_ok.store(false);
          return;
        }
        const engine::QueryMetrics& got = outcome->result.metrics;
        if (got.read.bytes_read != want.read.bytes_read ||
            got.read.rows_read != want.read.rows_read ||
            got.parse.records_parsed != want.parse.records_parsed ||
            got.parse.bytes_parsed != want.parse.bytes_parsed) {
          counters_ok.store(false);
        }
      });
    }
    while (ready.load() < kClients) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE(rows_ok.load()) << "a served result diverged from the oracle";
    EXPECT_TRUE(counters_ok.load())
        << "a concurrent query counted other work than the query alone";
  }
}

TEST_F(ConcurrentScanTest, RegistryChurnKeepsResultsCorrect) {
  const OracleQuery q = {
      .sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
             "WHERE id < 300",
      .columns = {{"id", ""}, {"f1", "$.f1"}},
      .keep = [](int64_t id) { return id < 300; }};
  const std::string expected = Expected(q);
  const std::string& sql = q.sql;

  // Registry churn concurrent with querying.
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    int i = 0;
    while (!stop.load()) {
      session_->ImportCacheEntries({UnrelatedRegistryEntry(i++ % 7)});
      std::this_thread::yield();
    }
  });

  constexpr size_t kWorkers = 3;
  constexpr int kIterations = 12;
  std::atomic<bool> ok{true};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        auto result = session_->Execute(sql);
        if (!result.ok() ||
            engine::FingerprintBatch(result->batch) != expected) {
          ok.store(false);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  invalidator.join();
  EXPECT_TRUE(ok.load());
}

// The TSan target: many threads, mixed queries, registry churn. Run
// standalone under ThreadSanitizer by tools/ci.sh.
TEST_F(ConcurrentScanTest, ConcurrentMixedQueriesStress) {
  const std::vector<OracleQuery> queries = {
      {.sql = "SELECT id FROM t WHERE id < 200",
       .columns = {{"id", ""}},
       .keep = [](int64_t id) { return id < 200; }},
      {.sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
              "WHERE id >= 150",
       .columns = {{"id", ""}, {"f1", "$.f1"}},
       .keep = [](int64_t id) { return id >= 150; }},
      {.sql = "SELECT get_json_object(payload, '$.f2') AS f2 FROM t",
       .columns = {{"f2", "$.f2"}}},
      kCachedPathTwice,
      kRawColumnTwice,
  };
  std::vector<std::string> expected;
  for (const OracleQuery& q : queries) expected.push_back(Expected(q));

  constexpr size_t kThreads = 6;
  constexpr int kIterations = 8;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t q = (t + i) % queries.size();
        auto result = session_->Execute(queries[q].sql);
        if (!result.ok() ||
            engine::FingerprintBatch(result->batch) != expected[q]) {
          ok.store(false);
          return;
        }
        if (i % 4 == 3) {
          session_->ImportCacheEntries(
              {UnrelatedRegistryEntry(static_cast<int>(t))});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace maxson
