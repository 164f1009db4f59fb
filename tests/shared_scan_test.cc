// Tests of the morsel-driven shared-scan executor (exec/shared_scan.h).
//
// The manager-level tests drive SharedScanManager directly with a synthetic
// pass callback, staging subscriptions *before* any Collect so the
// coalescing counts are exact and deterministic: K subscribers over M
// morsels must execute M passes and coalesce (K-1)*M registrations, with
// byte-identical columns fanned out to every subscriber. They also pin the
// attach-safety rules (frozen column unions, predicate-identity gating,
// retired passes never rejoined, validity keying) and the cooperative
// cancellation contract.
//
// The end-to-end tests run real queries over a generated JSON table —
// every scan is a subscription, alone through the session and truly
// concurrent through MaxsonServer — asserting results are byte-identical
// to a file-based oracle that reads the part files directly, while the
// maxson_sharedscan_* counters prove passes were actually shared. Overlap
// at the server level is timing-dependent, so coalescing there is asserted
// with a bounded retry loop; correctness is asserted on every attempt.

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "engine/fingerprint.h"
#include "exec/shared_scan.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "json/json_path.h"
#include "obs/metrics_registry.h"
#include "serve/server.h"
#include "storage/corc_reader.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

using exec::ColumnKey;
using exec::Morsel;
using exec::ScanInterest;
using exec::ScanPredicate;
using exec::ScanSubscription;
using exec::SharedPassOutput;
using exec::SharedScanManager;
using exec::SharedScanPassFn;
using exec::ThreadPool;

// ---------------------------------------------------------------------------
// Manager-level tests: synthetic passes, deterministic staged coalescing.
// ---------------------------------------------------------------------------

constexpr uint64_t kPassInputBytes = 100;
constexpr int kRowsPerMorsel = 2;

std::vector<Morsel> MakeMorsels(size_t n) {
  std::vector<Morsel> morsels;
  for (size_t i = 0; i < n; ++i) {
    morsels.push_back(Morsel{.path = "split" + std::to_string(i), .index = i});
  }
  return morsels;
}

/// Raw-column keys for `names`.
std::vector<ColumnKey> RawKeys(const std::vector<std::string>& names) {
  std::vector<ColumnKey> keys;
  for (const std::string& name : names) keys.emplace_back().name = name;
  return keys;
}

ScanInterest MakeInterest(const std::vector<std::string>& columns,
                          const std::vector<Morsel>& morsels,
                          uint64_t validity = 1, ScanPredicate predicate = {}) {
  ScanInterest interest;
  interest.table_key = "warehouse/db/t";
  interest.validity = validity;
  interest.columns = RawKeys(columns);
  interest.predicate = std::move(predicate);
  interest.morsels = morsels;
  return interest;
}

/// The value CountingPass writes at (split, union position, row).
int64_t CellValue(size_t split, size_t position, int row) {
  return static_cast<int64_t>(split) * 100 +
         static_cast<int64_t>(position) * 10 + row;
}

/// A pass callback that counts executions and produces a batch whose cell
/// values encode (split, union-column position, row) — so fan-out identity
/// and per-subscriber column mappings are checkable cell by cell.
SharedScanPassFn CountingPass(std::atomic<int>* passes,
                              std::atomic<int>* last_predicates = nullptr) {
  return [passes, last_predicates](
             const Morsel& morsel, size_t /*ordinal*/,
             const std::vector<ColumnKey>& union_columns,
             const std::vector<ScanPredicate>& predicates)
             -> Result<SharedPassOutput> {
    passes->fetch_add(1);
    if (last_predicates != nullptr) {
      last_predicates->store(static_cast<int>(predicates.size()));
    }
    storage::Schema schema;
    for (const ColumnKey& column : union_columns) {
      schema.AddField(column.name, storage::TypeKind::kInt64);
    }
    SharedPassOutput out;
    out.batch = storage::RecordBatch(schema);
    for (int row = 0; row < kRowsPerMorsel; ++row) {
      std::vector<storage::Value> values;
      values.reserve(union_columns.size());
      for (size_t c = 0; c < union_columns.size(); ++c) {
        values.push_back(
            storage::Value::Int64(CellValue(morsel.index, c, row)));
      }
      out.batch.AppendRow(values);
    }
    out.input_bytes = kPassInputBytes;
    return out;
  };
}

/// Renders taken columns cell by cell, so equal strings mean identical
/// fan-out.
std::string Render(const std::vector<storage::ColumnVector>& columns) {
  std::string out;
  for (const storage::ColumnVector& column : columns) {
    for (size_t r = 0; r < column.size(); ++r) {
      out += column.GetValue(r).ToString() + ",";
    }
    out += "|";
  }
  return out;
}

/// A pushed-down `column < literal` predicate with its canonical key, so
/// two subscriptions can agree (or disagree) on pruning identity.
ScanPredicate PredicateLt(const std::string& column, int64_t literal) {
  ScanPredicate predicate;
  storage::SargLeaf leaf;
  leaf.column = column;
  leaf.op = storage::SargOp::kLt;
  leaf.literal = storage::Value::Int64(literal);
  predicate.raw_sarg.AddLeaf(std::move(leaf));
  predicate.key =
      ScanPredicate::KeyFor(predicate.raw_sarg, predicate.cache_sarg);
  return predicate;
}

TEST(ScanPredicateTest, KeysTellApartCastsAndNearbyDoubles) {
  // Equal keys share one pass's pruning, so SARGs that prune differently
  // need different keys: a cast changes the bounds compared, and %.6g
  // renders 1.0000001 and 1.0000002 alike.
  auto key = [](storage::SargCast cast, double literal) {
    storage::SearchArgument sarg;
    sarg.AddLeaf({"v", storage::SargOp::kGt, storage::Value::Double(literal),
                  cast});
    return ScanPredicate::KeyFor(sarg, storage::SearchArgument());
  };
  EXPECT_NE(key(storage::SargCast::kNone, 5.0),
            key(storage::SargCast::kToInt, 5.0));
  EXPECT_NE(key(storage::SargCast::kToInt, 5.0),
            key(storage::SargCast::kToDouble, 5.0));
  EXPECT_NE(key(storage::SargCast::kNone, 1.0000001),
            key(storage::SargCast::kNone, 1.0000002));
  EXPECT_EQ(key(storage::SargCast::kToInt, 2.5),
            key(storage::SargCast::kToInt, 2.5));
}

TEST(SharedScanManagerTest, StagedSubscribersCoalesceToOnePassPerMorsel) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(3);
  std::atomic<int> passes{0};
  constexpr size_t kSubscribers = 4;

  // Stage every subscription before any Collect: all registrations merge
  // into pending tasks, so the counts below are exact, not timing-lucky.
  std::vector<std::unique_ptr<ScanSubscription>> subs;
  for (size_t i = 0; i < kSubscribers; ++i) {
    subs.push_back(manager.Subscribe(MakeInterest({"a", "b"}, morsels),
                                     CountingPass(&passes)));
    ASSERT_EQ(subs.back()->num_morsels(), morsels.size());
  }
  ThreadPool pool(2);
  for (auto& sub : subs) {
    ASSERT_TRUE(sub->Collect(&pool).ok());
  }

  EXPECT_EQ(passes.load(), 3);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.subscribers, kSubscribers);
  EXPECT_EQ(stats.parse_passes, 3u);
  EXPECT_EQ(stats.coalesced_parses, (kSubscribers - 1) * 3);
  EXPECT_EQ(stats.saved_bytes, (kSubscribers - 1) * 3 * kPassInputBytes);
  EXPECT_EQ(stats.groups_opened, 1u);

  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    // Identical fan-out: the first three subscribers copy their columns,
    // the last one moves them out, and all four see the same cells.
    const std::vector<storage::ColumnVector> first = subs[0]->Take(ordinal);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].size(), static_cast<size_t>(kRowsPerMorsel));
    const std::string expected = Render(first);
    int executors = subs[0]->executed_by_self(ordinal) ? 1 : 0;
    for (size_t i = 1; i < subs.size(); ++i) {
      EXPECT_EQ(Render(subs[i]->Take(ordinal)), expected);
      executors += subs[i]->executed_by_self(ordinal) ? 1 : 0;
    }
    // Exactly one subscription ran the pass; the rest rode the result.
    EXPECT_EQ(executors, 1);
  }
}

TEST(SharedScanManagerTest, UnionColumnsMapBackByPositionPerSubscriber) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  auto a =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  // b's interest order differs from the union's first-seen order {a, b}.
  auto b = manager.Subscribe(MakeInterest({"b", "a"}, morsels),
                             CountingPass(&passes));
  ThreadPool pool(1);
  ASSERT_TRUE(a->Collect(&pool).ok());
  ASSERT_TRUE(b->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);

  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    // Cell values encode the union position: the union is {a, b} in
    // first-seen order, so b's interest {b, a} reads positions 1 then 0.
    const std::vector<storage::ColumnVector> columns = b->Take(ordinal);
    ASSERT_EQ(columns.size(), 2u);
    for (int row = 0; row < kRowsPerMorsel; ++row) {
      EXPECT_EQ(columns[0].GetInt64(row), CellValue(ordinal, 1, row));
      EXPECT_EQ(columns[1].GetInt64(row), CellValue(ordinal, 0, row));
    }
    const std::vector<storage::ColumnVector> only_a = a->Take(ordinal);
    ASSERT_EQ(only_a.size(), 1u);
    EXPECT_EQ(only_a[0].GetInt64(0), CellValue(ordinal, 0, 0));
  }
}

TEST(SharedScanManagerTest, ColumnRequestedTwiceIsTakenTwice) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(1);
  std::atomic<int> passes{0};
  // Alone, the subscription is the last consumer and moves the column out;
  // its second request for the same key still gets every cell.
  auto sub = manager.Subscribe(MakeInterest({"a", "a"}, morsels),
                               CountingPass(&passes));
  ASSERT_TRUE(sub->Collect(nullptr).ok());
  const std::vector<storage::ColumnVector> columns = sub->Take(0);
  ASSERT_EQ(columns.size(), 2u);
  EXPECT_EQ(Render({columns[0]}), Render({columns[1]}));
  EXPECT_EQ(columns[1].size(), static_cast<size_t>(kRowsPerMorsel));
}

TEST(SharedScanManagerTest, PendingPassesMergePredicatesAsDisjunction) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  std::atomic<int> predicate_count{0};
  auto a = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 5)),
      CountingPass(&passes, &predicate_count));
  auto b = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 7)),
      CountingPass(&passes, &predicate_count));
  ThreadPool pool(1);
  ASSERT_TRUE(a->Collect(&pool).ok());
  ASSERT_TRUE(b->Collect(&pool).ok());
  // One pass per morsel, pruning with both subscribers' predicates OR'd.
  EXPECT_EQ(passes.load(), 2);
  EXPECT_EQ(predicate_count.load(), 2);
  EXPECT_EQ(manager.stats().coalesced_parses, 2u);
}

TEST(SharedScanManagerTest, CompletedPassesJoinOnlyCoveredSubscribers) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  ThreadPool pool(1);

  auto a = manager.Subscribe(MakeInterest({"a", "b"}, morsels),
                             CountingPass(&passes));
  ASSERT_TRUE(a->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);
  EXPECT_EQ(manager.stats().saved_bytes, 0u);

  // Same-coverage late arrival attaches to the done, unreleased passes:
  // no new work, and the attach reports the bytes it avoided.
  auto b =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  ASSERT_TRUE(b->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);
  EXPECT_EQ(manager.stats().coalesced_parses, 2u);
  EXPECT_EQ(manager.stats().saved_bytes, 2 * kPassInputBytes);
  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    EXPECT_FALSE(b->executed_by_self(ordinal));
  }

  // A column outside the frozen union cannot attach: fresh passes.
  auto c = manager.Subscribe(MakeInterest({"a", "c"}, morsels),
                             CountingPass(&passes));
  ASSERT_TRUE(c->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
}

TEST(SharedScanManagerTest, CompletedPassesGateAttachOnPredicateIdentity) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  ThreadPool pool(1);

  // a's passes prune with `a < 5`; they do NOT read all row groups.
  auto a = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 5)),
      CountingPass(&passes));
  ASSERT_TRUE(a->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);

  // Identical predicate key: safe to attach to the frozen passes.
  auto same = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 5)),
      CountingPass(&passes));
  ASSERT_TRUE(same->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);

  // A wider predicate might need row groups a's pruning skipped: fresh
  // passes, never a silent under-read.
  auto wider = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 7)),
      CountingPass(&passes));
  ASSERT_TRUE(wider->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
}

TEST(SharedScanManagerTest, ValidityChangeStartsAFreshGroup) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  // Same table, different cache-validity stamps (a mid-run invalidation):
  // the subscriptions must not share, even staged concurrently.
  auto old_state = manager.Subscribe(MakeInterest({"a"}, morsels, 1),
                                     CountingPass(&passes));
  auto new_state = manager.Subscribe(MakeInterest({"a"}, morsels, 2),
                                     CountingPass(&passes));
  ThreadPool pool(1);
  ASSERT_TRUE(old_state->Collect(&pool).ok());
  ASSERT_TRUE(new_state->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.coalesced_parses, 0u);
  EXPECT_EQ(stats.groups_opened, 2u);
}

TEST(SharedScanManagerTest, RetiredPassesAreNeverRejoined) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  ThreadPool pool(1);

  auto a =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  ASSERT_TRUE(a->Collect(&pool).ok());
  // a takes everything: the passes retire and hand their decoded rows
  // over. Sharing is a concurrency window, not a cache.
  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    EXPECT_EQ(a->Take(ordinal).size(), 1u);
  }

  auto late =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  ASSERT_TRUE(late->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
  EXPECT_EQ(manager.stats().coalesced_parses, 0u);
}

TEST(SharedScanManagerTest, CancelledSubscriberLeavesCoSubscriberWorking) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(3);
  std::atomic<int> passes{0};
  auto worker = manager.Subscribe(MakeInterest({"a"}, morsels),
                                  CountingPass(&passes));
  auto quitter = manager.Subscribe(MakeInterest({"a"}, morsels),
                                   CountingPass(&passes));
  ThreadPool pool(1);

  // Cancel before collecting: the quitter claims nothing and reports
  // Cancelled without executing a single pass.
  quitter->Cancel();
  const Status cancelled = quitter->Collect(&pool);
  EXPECT_TRUE(cancelled.IsCancelled()) << cancelled;
  EXPECT_EQ(passes.load(), 0);

  // The co-subscriber is unaffected: it claims and runs the passes itself.
  ASSERT_TRUE(worker->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 3);
  EXPECT_EQ(worker->Take(0)[0].size(), static_cast<size_t>(kRowsPerMorsel));
  // Destroying the cancelled subscription consumes its registrations
  // without disturbing the worker's still-untaken outputs.
  quitter.reset();
  for (size_t ordinal = 1; ordinal < morsels.size(); ++ordinal) {
    EXPECT_EQ(worker->Take(ordinal)[0].size(),
              static_cast<size_t>(kRowsPerMorsel));
  }

  // The external cancel flag (the executor's ExecContext cancel) is
  // honoured the same way.
  auto flagged = manager.Subscribe(MakeInterest({"a"}, morsels),
                                   CountingPass(&passes));
  std::atomic<bool> cancel_flag{true};
  EXPECT_TRUE(flagged->Collect(&pool, &cancel_flag).IsCancelled());
}

TEST(SharedScanManagerTest, PassFailurePropagatesToEverySubscriber) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  const SharedScanPassFn failing =
      [&passes](const Morsel&, size_t, const std::vector<ColumnKey>&,
                const std::vector<ScanPredicate>&) -> Result<SharedPassOutput> {
    passes.fetch_add(1);
    return Status::IoError("disk on fire");
  };
  auto a = manager.Subscribe(MakeInterest({"a"}, morsels), failing);
  auto b = manager.Subscribe(MakeInterest({"a"}, morsels), failing);
  ThreadPool pool(1);
  const Status first = a->Collect(&pool);
  EXPECT_FALSE(first.ok());
  // b never re-runs the failed passes; it sees the published failure.
  const Status second = b->Collect(&pool);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(passes.load(), 2);
}

// ---------------------------------------------------------------------------
// End-to-end tests: real queries over a generated JSON table.
// ---------------------------------------------------------------------------

/// One query of the end-to-end tests and what the file oracle needs to
/// answer it: `SELECT [id,] [get_json_object(payload, '$.fN') AS fN]
/// FROM t WHERE keep(id)`.
struct OracleQuery {
  std::string sql;
  bool with_id = true;
  std::string path = "";  // "$.fN", or empty for no get_json_object column
  std::function<bool(int64_t)> keep = [](int64_t) { return true; };
};

class SharedScanE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_shared_scan_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "t";
    spec.num_properties = 4;
    spec.avg_json_bytes = 120;
    spec.rows = 600;
    spec.rows_per_file = 150;  // 4 splits -> 4 morsels per scan
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
  /// Each split is read with CorcReader in index order, the path is
  /// extracted with json::GetJsonObject (absent -> NULL), the predicate is
  /// applied here, and every output column is typed the way the engine
  /// types it — by its first non-null value, string when there is none.
  std::string Expected(const OracleQuery& q) {
    std::vector<std::vector<storage::Value>> rows;
    auto path = json::JsonPath::Parse(q.path.empty() ? "$" : q.path);
    EXPECT_TRUE(path.ok()) << q.path;
    auto splits = storage::FileSystem::ListSplits(table_dir_);
    EXPECT_TRUE(splits.ok()) << splits.status();
    if (!path.ok() || !splits.ok()) return std::string();
    for (const storage::Split& split : *splits) {
      storage::CorcReader reader(split.path);
      EXPECT_TRUE(reader.Open().ok()) << split.path;
      auto batch = reader.ReadAll(nullptr);
      EXPECT_TRUE(batch.ok()) << batch.status();
      if (!batch.ok()) return std::string();
      const int id_col = batch->schema().FindField("id");
      const int payload_col = batch->schema().FindField("payload");
      for (size_t r = 0; r < batch->num_rows(); ++r) {
        const int64_t id =
            batch->column(static_cast<size_t>(id_col)).GetInt64(r);
        if (!q.keep(id)) continue;
        std::vector<storage::Value> row;
        if (q.with_id) row.push_back(storage::Value::Int64(id));
        if (!q.path.empty()) {
          const storage::ColumnVector& payload =
              batch->column(static_cast<size_t>(payload_col));
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
    std::vector<std::string> names;
    if (q.with_id) names.push_back("id");
    if (!q.path.empty()) names.push_back(q.path.substr(2));  // "$.fN" -> fN
    storage::Schema schema;
    for (size_t c = 0; c < names.size(); ++c) {
      storage::TypeKind type = storage::TypeKind::kString;
      for (const std::vector<storage::Value>& row : rows) {
        if (row[c].is_null()) continue;
        if (row[c].is_int64()) type = storage::TypeKind::kInt64;
        break;
      }
      schema.AddField(names[c], type);
    }
    storage::RecordBatch expected(schema);
    for (const std::vector<storage::Value>& row : rows) {
      expected.AppendRow(row);
    }
    return engine::FingerprintBatch(expected);
  }

  /// A registry entry for an unrelated table: importing it bumps
  /// CacheRegistry::version() — the mid-run invalidation that must split
  /// sharing groups without corrupting in-flight queries.
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

TEST_F(SharedScanE2ETest, SequentialScansMatchTheFileOracle) {
  const std::vector<OracleQuery> queries = {
      {.sql = "SELECT id FROM t"},
      {.sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
              "WHERE id >= 100",
       .path = "$.f1",
       .keep = [](int64_t id) { return id >= 100; }},
      {.sql = "SELECT get_json_object(payload, '$.f2') AS f2 FROM t "
              "WHERE id < 50",
       .with_id = false,
       .path = "$.f2",
       .keep = [](int64_t id) { return id < 50; }},
  };
  for (const OracleQuery& q : queries) {
    // Every scan subscribes, even alone: one subscription, one pass per
    // split, nothing to coalesce with.
    const auto before = session_->stats();
    EXPECT_EQ(Fingerprint(q.sql), Expected(q)) << q.sql;
    const auto after = session_->stats();
    EXPECT_EQ(after.sharedscan_subscribers - before.sharedscan_subscribers,
              1u);
    EXPECT_EQ(after.sharedscan_parse_passes - before.sharedscan_parse_passes,
              4u);
    EXPECT_EQ(after.sharedscan_coalesced_parses,
              before.sharedscan_coalesced_parses);
  }
}

TEST_F(SharedScanE2ETest, ConcurrentServedClientsCoalesceAndStayIdentical) {
  const OracleQuery q = {
      .sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
             "WHERE id < 400",
      .path = "$.f1",
      .keep = [](int64_t id) { return id < 400; }};
  const std::string expected = Expected(q);
  const std::string& sql = q.sql;

  serve::ServeOptions options;
  // Result caching off so every client truly scans (the point here is the
  // scan-sharing layer below the result cache).
  options.enable_result_cache = false;
  serve::MaxsonServer server(session_.get(), &catalog_, options);
  constexpr size_t kClients = 4;
  std::vector<serve::ClientSession> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(server.Connect("tenant" + std::to_string(i)));
  }

  // Whether K clients actually overlap inside the scan is timing-
  // dependent, so coalescing is asserted over a bounded retry loop;
  // byte-identical results are asserted on every attempt.
  bool coalesced_seen = false;
  for (int attempt = 0; attempt < 50 && !coalesced_seen; ++attempt) {
    const auto before = session_->stats();
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> ok{true};
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
          ok.store(false);
        }
      });
    }
    while (ready.load() < kClients) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE(ok.load()) << "a served result diverged from the oracle";

    const auto after = session_->stats();
    EXPECT_EQ(after.sharedscan_subscribers - before.sharedscan_subscribers,
              kClients);
    coalesced_seen = after.sharedscan_coalesced_parses >
                     before.sharedscan_coalesced_parses;
  }
  EXPECT_TRUE(coalesced_seen)
      << "4 concurrent identical queries never shared a parse pass in 50 "
         "attempts";
}

TEST_F(SharedScanE2ETest, MidRunInvalidationKeepsResultsCorrect) {
  const OracleQuery q = {
      .sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
             "WHERE id < 300",
      .path = "$.f1",
      .keep = [](int64_t id) { return id < 300; }};
  const std::string expected = Expected(q);
  const std::string& sql = q.sql;

  // Registry churn concurrent with querying: version bumps move new scans
  // to fresh sharing groups; in-flight ones finish against their stamp.
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
TEST_F(SharedScanE2ETest, ConcurrentMixedQueriesStress) {
  const std::vector<OracleQuery> queries = {
      {.sql = "SELECT id FROM t WHERE id < 200",
       .keep = [](int64_t id) { return id < 200; }},
      {.sql = "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
              "WHERE id >= 150",
       .path = "$.f1",
       .keep = [](int64_t id) { return id >= 150; }},
      {.sql = "SELECT get_json_object(payload, '$.f2') AS f2 FROM t",
       .with_id = false,
       .path = "$.f2"},
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
  EXPECT_GT(session_->stats().sharedscan_parse_passes, 0u);
}

}  // namespace
}  // namespace maxson
