// Durability and crash-consistency tests: a corruption matrix that damages
// every region of a CORC cache file and asserts queries still return rows
// byte-identical to a cache-disabled run (never wrong data, never a crash),
// and a kill-at-every-fault-point midnight cycle driven by the storage
// fault injector that must leave every table queryable and converge on the
// next clean run.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "gtest/gtest.h"
#include "storage/corc_format.h"
#include "storage/corc_reader.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

using catalog::Catalog;
using core::MaxsonConfig;
using core::MaxsonSession;
using storage::FaultInjector;
using storage::FileSystem;
using workload::JsonPathLocation;
using workload::JsonTableSpec;

/// Disarms the process-wide fault injector when a test scope ends, so a
/// failing assertion cannot leak an armed injector into later tests.
class FaultGuard {
 public:
  ~FaultGuard() { EXPECT_TRUE(FaultInjector::Instance().Configure("off").ok()); }
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_durability_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
  }
  void TearDown() override {
    ASSERT_TRUE(FaultInjector::Instance().Configure("off").ok());
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
  }

  void MakeTable(const std::string& table, uint64_t rows) {
    JsonTableSpec spec;
    spec.database = "db";
    spec.table = table;
    spec.num_properties = 10;
    spec.avg_json_bytes = 300;
    spec.rows = rows;
    spec.rows_per_file = 700;
    spec.rows_per_group = 100;
    spec.seed = rows * 17 + 5;
    auto generated = workload::GenerateJsonTable(spec, root_ + "/warehouse",
                                                 3, &catalog_);
    ASSERT_TRUE(generated.ok()) << generated.status();
  }

  MaxsonSession MakeSession() {
    MaxsonConfig config;
    config.cache_root = root_ + "/cache";
    config.cache_budget_bytes = 64ull << 20;
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
          JsonPathLocation l;
          l.database = "db";
          l.table = table;
          l.column = "payload";
          l.path = p;
          q.paths.push_back(l);
        }
        session->RecordQuery(q);
      }
    }
  }

  /// Asserts `result` matches `expected` row for row, value for value.
  template <typename R>
  void ExpectSameRows(const R& result, const R& expected,
                      const std::string& context) {
    ASSERT_EQ(result->batch.num_rows(), expected->batch.num_rows()) << context;
    ASSERT_EQ(result->batch.num_columns(), expected->batch.num_columns())
        << context;
    for (size_t r = 0; r < result->batch.num_rows(); ++r) {
      for (size_t c = 0; c < result->batch.num_columns(); ++c) {
        ASSERT_EQ(result->batch.column(c).GetValue(r).ToString(),
                  expected->batch.column(c).GetValue(r).ToString())
            << context << " row " << r << " col " << c;
      }
    }
  }

  std::string root_;
  Catalog catalog_;
};

TEST_F(DurabilityTest, EnvVarArmsInjectorAtFirstUse) {
  // Run standalone with MAXSON_FAULT_INJECT set (tools/ci.sh does); the
  // very first Instance() call must come up armed with that spec. Declared
  // first in this file so no earlier test has disarmed or counted it down.
  const char* env = std::getenv("MAXSON_FAULT_INJECT");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "MAXSON_FAULT_INJECT not set";
  }
  EXPECT_EQ(FaultInjector::Instance().spec(), std::string(env));
  EXPECT_TRUE(FaultInjector::Instance().enabled());
  ASSERT_TRUE(FaultInjector::Instance().Configure("off").ok());
}

TEST_F(DurabilityTest, CorruptionMatrixNeverReturnsWrongRows) {
  // Damage every structural region of a cache part file in turn. Each query
  // over the damaged cache must either fall back to raw parsing (rows
  // byte-identical to a cache-disabled run, fallback counter bumped) — and
  // with an intact raw table that fallback always succeeds — or fail with a
  // typed error. Wrong rows and crashes are the only unacceptable outcomes.
  MakeTable("t", 1400);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0", "$.f1"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f0'), "
      "get_json_object(payload, '$.f1') FROM db.t";
  auto expected = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  auto cache_splits = FileSystem::ListSplits(root_ + "/cache/db.t");
  ASSERT_TRUE(cache_splits.ok());
  ASSERT_FALSE(cache_splits->empty());
  const std::string victim = (*cache_splits)[0].path;
  const std::string pristine = ReadBytes(victim);
  const size_t size = pristine.size();
  ASSERT_GT(size, 2 * storage::kCorcMagicLen + 13u);
  // v2/v3 tail: [footer_crc u32][footer_len u32][magic]. Locate the footer so
  // a mutation can land squarely inside the JSON text.
  uint32_t footer_len = 0;
  std::memcpy(&footer_len, pristine.data() + size - 9, 4);
  ASSERT_LT(footer_len, size);
  const size_t footer_start = size - 13 - footer_len;

  struct Mutation {
    const char* name;
    std::function<void(std::string*)> apply;
  };
  auto flip = [](size_t at) {
    return [at](std::string* bytes) { (*bytes)[at] ^= 0x40; };
  };
  const std::vector<Mutation> matrix = {
      {"leading-magic", flip(1)},
      {"chunk-data", flip(storage::kCorcMagicLen + 2)},
      {"mid-file", flip(size / 2)},
      {"footer-json", flip(footer_start + footer_len / 2)},
      {"footer-crc-field", flip(size - 13)},
      {"footer-len-field", flip(size - 9)},
      {"trailing-magic", flip(size - 2)},
      {"huge-footer-len",
       [](std::string* bytes) {
         const uint32_t huge = UINT32_MAX - 15;
         std::memcpy(bytes->data() + bytes->size() - 9, &huge, 4);
       }},
      {"truncate-half", [](std::string* bytes) { bytes->resize(bytes->size() / 2); }},
      {"truncate-tiny", [](std::string* bytes) { bytes->resize(3); }},
      {"truncate-empty", [](std::string* bytes) { bytes->clear(); }},
  };

  for (const Mutation& m : matrix) {
    std::string bytes = pristine;
    m.apply(&bytes);
    WriteBytes(victim, bytes);

    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << m.name << ": " << result.status();
    EXPECT_EQ(result->metrics.cache_corruption_fallbacks, 1u) << m.name;
    ExpectSameRows(result, expected, m.name);
    // The fallback re-derives both cached paths of the victim split's 700
    // records from one parse per record.
    EXPECT_EQ(result->metrics.parse.records_parsed, 700u) << m.name;

    // Restore and confirm the cache serves cleanly again: the quarantine is
    // per-query, not a permanent invalidation.
    WriteBytes(victim, pristine);
    auto healed = session.Execute(sql);
    ASSERT_TRUE(healed.ok()) << m.name << ": " << healed.status();
    EXPECT_EQ(healed->metrics.cache_corruption_fallbacks, 0u) << m.name;
  }
  EXPECT_GE(session.metrics().GetCounter("maxson_cache_corruption_total")
                ->value(),
            matrix.size());
}

TEST_F(DurabilityTest, CorruptPrimaryFileFailsInsteadOfGuessing) {
  // When the RAW file itself is damaged, the fallback re-parse hits the same
  // corruption and the query must fail with a typed error — degraded mode
  // repairs cache damage only, it never invents rows.
  MakeTable("t", 700);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  auto raw_splits = FileSystem::ListSplits(root_ + "/warehouse/db/t");
  ASSERT_TRUE(raw_splits.ok());
  ASSERT_FALSE(raw_splits->empty());
  std::string bytes = ReadBytes((*raw_splits)[0].path);
  bytes.resize(bytes.size() / 2);  // tears off the footer: unreadable for sure
  WriteBytes((*raw_splits)[0].path, bytes);

  auto result =
      session.Execute("SELECT id, get_json_object(payload, '$.f0') FROM db.t");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status();
}

TEST_F(DurabilityTest, KillAtEveryFaultPointMidnightConverges) {
  // Simulate a process killed at the Nth write-side operation of the
  // midnight cache build, for every N until a run completes untouched.
  // After every faulted run the table must still answer queries with
  // correct rows (from whatever mix of surviving cache and raw parsing),
  // and one clean midnight afterwards must converge to a working cache.
  MakeTable("t", 700);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0", "$.f1"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());

  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f0') FROM db.t";
  auto expected = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  FaultGuard guard;
  bool fail_clean = false;
  bool torn_clean = false;
  const int kMaxFaultPoints = 300;
  for (int n = 1; n <= kMaxFaultPoints && !(fail_clean && torn_clean); ++n) {
    for (const char* mode : {"fail", "torn"}) {
      if ((std::string(mode) == "fail" && fail_clean) ||
          (std::string(mode) == "torn" && torn_clean)) {
        continue;
      }
      const std::string spec = std::string(mode) + ":" + std::to_string(n);
      ASSERT_TRUE(FaultInjector::Instance().Configure(spec).ok());
      auto report = session.RunMidnightCycle(14);
      const bool tripped = FaultInjector::Instance().tripped();
      ASSERT_TRUE(FaultInjector::Instance().Configure("off").ok());
      if (!tripped) {
        // The whole build used fewer than n counted ops: nothing faulted,
        // so the cycle must have succeeded and this mode's sweep is done.
        ASSERT_TRUE(report.ok()) << spec << ": " << report.status();
        (std::string(mode) == "fail" ? fail_clean : torn_clean) = true;
      }

      // Whatever the cycle left behind, queries must return correct rows.
      auto result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << spec << ": " << result.status();
      ExpectSameRows(result, expected, spec);

      // No half-published artifacts may be visible as splits: every listed
      // cache file must load or the query above would have re-derived it,
      // and staged ".tmp"/".staging" names never match the ".corc" listing.
      for (const std::string& dir : {root_ + "/cache/db.t"}) {
        if (!FileSystem::Exists(dir)) continue;
        auto splits = FileSystem::ListSplits(dir);
        ASSERT_TRUE(splits.ok());
        for (const storage::Split& split : *splits) {
          EXPECT_EQ(split.path.find(".tmp"), std::string::npos) << spec;
        }
      }
    }
  }
  ASSERT_TRUE(fail_clean && torn_clean)
      << "midnight cycle still faulting after " << kMaxFaultPoints
      << " fault points; sweep did not cover the full build";

  // Convergence: a clean midnight after the crash storm ends with a fully
  // working cache — queries hit it, return identical rows, and no
  // corruption fallback fires.
  auto report = session.RunMidnightCycle(14);
  ASSERT_TRUE(report.ok()) << report.status();
  auto result = session.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->metrics.cache_corruption_fallbacks, 0u);
  ExpectSameRows(result, expected, "post-convergence");
}

TEST_F(DurabilityTest, ShortReadSurfacesAsCorruptionAndFallsBack) {
  // A read that returns fewer bytes than asked (torn page, truncated block
  // device) must be caught by the length check and heal through fallback.
  MakeTable("t", 700);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f0') FROM db.t";
  auto expected = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  FaultGuard guard;
  core::SessionUpdate update;
  update.fault_injection = "short:1";
  ASSERT_TRUE(session.UpdateConfig(update).ok());
  auto result = session.Execute(sql);
  ASSERT_TRUE(FaultInjector::Instance().Configure("off").ok());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->metrics.cache_corruption_fallbacks, 1u);
  ExpectSameRows(result, expected, "short-read");
}

TEST_F(DurabilityTest, EncodedCacheCorruptionStillFallsBackToRaw) {
  // Bit damage inside an ENCODED (v3) chunk must behave exactly like plain
  // chunk damage: checksum or decode rejection, silent fallback to raw
  // parsing, identical rows. Decoders must never crash or emit wrong data.
  MakeTable("t", 1400);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0", "$.f1"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f0') FROM db.t";
  auto expected = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  auto cache_splits = FileSystem::ListSplits(root_ + "/cache/db.t");
  ASSERT_TRUE(cache_splits.ok());
  ASSERT_FALSE(cache_splits->empty());
  const std::string victim = (*cache_splits)[0].path;
  const std::string pristine = ReadBytes(victim);
  ASSERT_EQ(pristine.substr(0, storage::kCorcMagicLen), "CORC3");

  // Flip a bit at several depths inside the chunk-data region (everything
  // between the leading magic and the footer holds encoded chunks).
  for (size_t at : {static_cast<size_t>(storage::kCorcMagicLen + 1),
                    pristine.size() / 4, pristine.size() / 3,
                    pristine.size() / 2}) {
    std::string bytes = pristine;
    bytes[at] ^= 0x10;
    WriteBytes(victim, bytes);
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << "offset " << at << ": " << result.status();
    EXPECT_EQ(result->metrics.cache_corruption_fallbacks, 1u) << at;
    ExpectSameRows(result, expected, "encoded-chunk-damage");
  }
  WriteBytes(victim, pristine);
  auto healed = session.Execute(sql);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->metrics.cache_corruption_fallbacks, 0u);
}

TEST_F(DurabilityTest, TypedCacheFileFromOlderBuildFallsBackToRaw) {
  // Older builds stored numeric paths in int64 cache columns, and the
  // registry outlives the process (registry_path). Such a file is not one
  // this build writes: the scan must report it as corruption and re-derive
  // the split from raw, never abort on the type mismatch.
  MakeTable("t", 1400);
  MaxsonSession session = MakeSession();
  FeedDailyHistory(&session, "t", {"$.f0", "$.f1"}, 14);
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  ASSERT_TRUE(session.RunMidnightCycle(14).ok());

  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f0'), "
      "get_json_object(payload, '$.f1') FROM db.t";
  auto expected = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  auto cache_splits = FileSystem::ListSplits(root_ + "/cache/db.t");
  ASSERT_TRUE(cache_splits.ok());
  ASSERT_FALSE(cache_splits->empty());
  const std::string victim = (*cache_splits)[0].path;
  storage::CorcReader reader(victim);
  ASSERT_TRUE(reader.Open().ok());
  const uint32_t rows_per_group = reader.footer().rows_per_group;
  auto batch = reader.ReadAll(nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const int f0 = batch->schema().FindField(
      core::CacheFieldName("payload", "$.f0"));
  ASSERT_GE(f0, 0);
  storage::Schema typed;
  for (const storage::Field& field : batch->schema().fields()) {
    typed.AddField(field.name, field.name == batch->schema().field(f0).name
                                   ? storage::TypeKind::kInt64
                                   : field.type);
  }
  storage::CorcWriterOptions options;
  options.rows_per_group = rows_per_group;
  storage::CorcWriter writer(victim, typed, options);
  ASSERT_TRUE(writer.Open().ok());
  for (size_t r = 0; r < batch->num_rows(); ++r) {
    std::vector<storage::Value> row = batch->GetRow(r);
    const storage::Value& text = row[static_cast<size_t>(f0)];
    if (!text.is_null()) {
      row[static_cast<size_t>(f0)] = storage::Value::Int64(
          std::stoll(text.string_value()));
    }
    ASSERT_TRUE(writer.AppendRow(row).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  auto result = session.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->metrics.cache_corruption_fallbacks, 1u);
  ExpectSameRows(result, expected, "typed cache file");
}

TEST_F(DurabilityTest, UpdateConfigRejectsMalformedFaultSpecs) {
  MaxsonSession session = MakeSession();
  for (const char* bad : {"fail", "fail:", "fail:0", "fail:x", "bogus:3", ""}) {
    core::SessionUpdate update;
    update.fault_injection = bad;
    EXPECT_FALSE(session.UpdateConfig(update).ok()) << bad;
    EXPECT_EQ(FaultInjector::Instance().spec(), "off") << bad;
  }
  core::SessionUpdate update;
  update.fault_injection = "fail:7";
  ASSERT_TRUE(session.UpdateConfig(update).ok());
  EXPECT_EQ(FaultInjector::Instance().spec(), "fail:7");
  EXPECT_EQ(session.stats().fault_injection, "fail:7");
  update.fault_injection = "off";
  ASSERT_TRUE(session.UpdateConfig(update).ok());
  EXPECT_EQ(FaultInjector::Instance().spec(), "off");
}

}  // namespace
}  // namespace maxson
