#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "simd/kernels.h"
#include "storage/column_vector.h"
#include "storage/corc_format.h"
#include "storage/corc_reader.h"
#include "storage/corc_writer.h"
#include "storage/encoding.h"
#include "storage/file_system.h"
#include "storage/record_batch.h"
#include "storage/sarg.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace maxson::storage {
namespace {

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    dir_ = std::filesystem::temp_directory_path() /
           ("maxson_storage_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string dir() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

TEST(ValueTest, NullOrderingAndEquality) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int64(0)), 0);
  EXPECT_GT(Value::Int64(0).Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericWideningComparison) {
  EXPECT_EQ(Value::Int64(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int64(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.1).Compare(Value::Int64(3)), 0);
}

TEST(ValueTest, StringCoercionToDouble) {
  EXPECT_DOUBLE_EQ(Value::String("2.5").AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value::String("junk").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble(), 1.0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("x").ToString(), "x");
}

TEST(ColumnVectorTest, AppendAndGetEachType) {
  ColumnVector ints(TypeKind::kInt64);
  ints.AppendInt64(1);
  ints.AppendNull();
  ints.AppendInt64(3);
  ASSERT_EQ(ints.size(), 3u);
  EXPECT_EQ(ints.GetInt64(0), 1);
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_EQ(ints.GetValue(2), Value::Int64(3));

  ColumnVector strs(TypeKind::kString);
  strs.AppendString("a");
  strs.AppendNull();
  EXPECT_EQ(strs.GetValue(0), Value::String("a"));
  EXPECT_TRUE(strs.GetValue(1).is_null());
}

TEST(ColumnVectorTest, AppendValueCoerces) {
  ColumnVector doubles(TypeKind::kDouble);
  doubles.AppendValue(Value::Int64(4));
  EXPECT_DOUBLE_EQ(doubles.GetDouble(0), 4.0);

  ColumnVector strs(TypeKind::kString);
  strs.AppendValue(Value::Int64(7));
  EXPECT_EQ(strs.GetString(0), "7");
}

TEST(RecordBatchTest, RowRoundTrip) {
  Schema schema;
  schema.AddField("id", TypeKind::kInt64);
  schema.AddField("name", TypeKind::kString);
  RecordBatch batch(schema);
  batch.AppendRow({Value::Int64(1), Value::String("a")});
  batch.AppendRow({Value::Null(), Value::String("b")});
  ASSERT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.GetRow(0)[0], Value::Int64(1));
  EXPECT_TRUE(batch.GetRow(1)[0].is_null());
  EXPECT_EQ(batch.GetRow(1)[1], Value::String("b"));
}

TEST(ColumnStatsTest, TracksMinMaxAndNulls) {
  ColumnStats stats;
  stats.Update(Value::Int64(5));
  stats.Update(Value::Null());
  stats.Update(Value::Int64(-2));
  stats.Update(Value::Int64(9));
  EXPECT_EQ(stats.min, Value::Int64(-2));
  EXPECT_EQ(stats.max, Value::Int64(9));
  EXPECT_EQ(stats.null_count, 1u);
  EXPECT_EQ(stats.value_count, 4u);
  EXPECT_FALSE(stats.all_null());
}

struct SargCase {
  SargOp op;
  int64_t literal;
  bool expect_maybe;  // against stats min=10 max=20 nulls=2
};

class SargLeafTest : public ::testing::TestWithParam<SargCase> {};

TEST_P(SargLeafTest, EvaluatesAgainstStats) {
  ColumnStats stats;
  stats.Update(Value::Int64(10));
  stats.Update(Value::Int64(20));
  stats.Update(Value::Null());
  stats.Update(Value::Null());
  const SargCase& c = GetParam();
  SargLeaf leaf{"col", c.op, Value::Int64(c.literal)};
  const SargResult result = SearchArgument::EvaluateLeaf(leaf, stats);
  EXPECT_EQ(result == SargResult::kMaybe, c.expect_maybe)
      << "op=" << static_cast<int>(c.op) << " lit=" << c.literal;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SargLeafTest,
    ::testing::Values(SargCase{SargOp::kEq, 15, true},
                      SargCase{SargOp::kEq, 9, false},
                      SargCase{SargOp::kEq, 21, false},
                      SargCase{SargOp::kEq, 10, true},
                      SargCase{SargOp::kNe, 15, true},
                      SargCase{SargOp::kLt, 10, false},
                      SargCase{SargOp::kLt, 11, true},
                      SargCase{SargOp::kLe, 10, true},
                      SargCase{SargOp::kLe, 9, false},
                      SargCase{SargOp::kGt, 20, false},
                      SargCase{SargOp::kGt, 19, true},
                      SargCase{SargOp::kGe, 20, true},
                      SargCase{SargOp::kGe, 21, false}));

TEST(SargTest, NullPredicates) {
  ColumnStats with_nulls;
  with_nulls.Update(Value::Int64(1));
  with_nulls.Update(Value::Null());
  ColumnStats no_nulls;
  no_nulls.Update(Value::Int64(1));
  ColumnStats all_null;
  all_null.Update(Value::Null());

  SargLeaf is_null{"c", SargOp::kIsNull, Value::Null()};
  SargLeaf not_null{"c", SargOp::kIsNotNull, Value::Null()};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(is_null, with_nulls),
            SargResult::kMaybe);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(is_null, no_nulls), SargResult::kNo);
  EXPECT_EQ(SearchArgument::EvaluateLeaf(not_null, all_null), SargResult::kNo);
  // Comparisons never match all-null groups.
  SargLeaf eq{"c", SargOp::kEq, Value::Int64(1)};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(eq, all_null), SargResult::kNo);
}

Schema TestSchema() {
  Schema schema;
  schema.AddField("id", TypeKind::kInt64);
  schema.AddField("score", TypeKind::kDouble);
  schema.AddField("name", TypeKind::kString);
  schema.AddField("flag", TypeKind::kBool);
  return schema;
}

TEST(CorcRoundTripTest, WriteReadAllTypes) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 8;
  CorcWriter writer(path, TestSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  const int kRows = 100;
  for (int i = 0; i < kRows; ++i) {
    std::vector<Value> row;
    row.push_back(i % 7 == 0 ? Value::Null() : Value::Int64(i));
    row.push_back(Value::Double(i * 0.5));
    row.push_back(Value::String("name-" + std::to_string(i)));
    row.push_back(Value::Bool(i % 2 == 0));
    ASSERT_TRUE(writer.AppendRow(row).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.num_rows(), static_cast<uint64_t>(kRows));
  EXPECT_EQ(reader.schema(), TestSchema());
  ReadStats stats;
  auto batch = reader.ReadAll(&stats);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->num_rows(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    if (i % 7 == 0) {
      EXPECT_TRUE(batch->column(0).IsNull(i));
    } else {
      EXPECT_EQ(batch->column(0).GetInt64(i), i);
    }
    EXPECT_DOUBLE_EQ(batch->column(1).GetDouble(i), i * 0.5);
    EXPECT_EQ(batch->column(2).GetString(i), "name-" + std::to_string(i));
    EXPECT_EQ(batch->column(3).GetBool(i), i % 2 == 0);
  }
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_EQ(stats.rows_read, static_cast<uint64_t>(kRows));
}

TEST(CorcRoundTripTest, ColumnProjectionReadsOnlyRequestedColumns) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 10;
  CorcWriter writer(path, TestSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    // Incompressible string payload so the column dominates the file size
    // under every format version (a constant payload would encode away).
    std::string payload(100, '\0');
    for (char& c : payload) c = static_cast<char>(rng.NextInt(0, 255));
    ASSERT_TRUE(writer
                    .AppendRow({Value::Int64(i), Value::Double(i),
                                Value::String(std::move(payload)),
                                Value::Bool(true)})
                    .ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  ReadStats narrow;
  auto only_id = reader.ReadStripe(0, {0}, std::nullopt, &narrow);
  ASSERT_TRUE(only_id.ok());
  EXPECT_EQ(only_id->num_columns(), 1u);
  EXPECT_EQ(only_id->schema().field(0).name, "id");

  ReadStats wide;
  auto all = reader.ReadStripe(0, {0, 1, 2, 3}, std::nullopt, &wide);
  ASSERT_TRUE(all.ok());
  // Projection must read far fewer bytes than the full scan (the string
  // column dominates).
  EXPECT_LT(narrow.bytes_read * 3, wide.bytes_read);
}

TEST(CorcRoundTripTest, SargSkipsRowGroups) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 10;
  CorcWriter writer(path, TestSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  // ids ascend 0..99, so groups have disjoint [min,max] ranges.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer
                    .AppendRow({Value::Int64(i), Value::Double(i),
                                Value::String("s"), Value::Bool(false)})
                    .ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  SearchArgument sarg;
  sarg.AddLeaf(SargLeaf{"id", SargOp::kGt, Value::Int64(74)});
  auto include = reader.ComputeRowGroupInclusion(0, sarg);
  ASSERT_TRUE(include.ok());
  ASSERT_EQ(include->size(), 10u);
  int included = 0;
  for (bool b : *include) included += b ? 1 : 0;
  EXPECT_EQ(included, 3);  // groups [70..79], [80..89], [90..99]

  ReadStats stats;
  auto batch = reader.ReadStripe(0, {0}, *include, &stats);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 30u);
  EXPECT_EQ(stats.row_groups_skipped, 7u);
  EXPECT_EQ(batch->column(0).GetInt64(0), 70);
}

TEST(CorcRoundTripTest, EmptySargIncludesEverything) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 4;
  CorcWriter writer(path, TestSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(writer
                    .AppendRow({Value::Int64(i), Value::Double(0),
                                Value::String(""), Value::Bool(false)})
                    .ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  auto include = reader.ComputeRowGroupInclusion(0, SearchArgument());
  ASSERT_TRUE(include.ok());
  EXPECT_EQ(include->size(), 3u);  // ceil(9/4)
  for (bool b : *include) EXPECT_TRUE(b);
}

TEST(CorcRoundTripTest, MultipleStripes) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 5;
  options.rows_per_stripe = 20;
  CorcWriter writer(path, TestSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer
                    .AppendRow({Value::Int64(i), Value::Double(i),
                                Value::String("r" + std::to_string(i)),
                                Value::Bool(i % 3 == 0)})
                    .ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.num_stripes(), 3u);  // 20 + 20 + 10
  auto all = reader.ReadAll(nullptr);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->num_rows(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(all->column(0).GetInt64(i), i);
    EXPECT_EQ(all->column(2).GetString(i), "r" + std::to_string(i));
  }
}

TEST(CorcReaderTest, RejectsGarbageFiles) {
  TempDir tmp;
  const std::string path = tmp.path("junk.corc");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is definitely not a CORC file, but long enough to check";
  }
  CorcReader reader(path);
  EXPECT_FALSE(reader.Open().ok());

  CorcReader missing(tmp.path("absent.corc"));
  EXPECT_FALSE(missing.Open().ok());
}

TEST(CorcPropertyTest, RandomizedRoundTrip) {
  // Property: arbitrary values written through the writer come back
  // identically, for several row-group sizes.
  for (uint32_t rows_per_group : {1u, 3u, 7u, 100u}) {
    TempDir tmp;
    const std::string path = tmp.path("t.corc");
    Rng rng(rows_per_group * 977);
    Schema schema;
    schema.AddField("i", TypeKind::kInt64);
    schema.AddField("s", TypeKind::kString);
    CorcWriterOptions options;
    options.rows_per_group = rows_per_group;
    CorcWriter writer(path, schema, options);
    ASSERT_TRUE(writer.Open().ok());
    std::vector<std::vector<Value>> expected;
    const int rows = 1 + static_cast<int>(rng.NextBounded(200));
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      row.push_back(rng.NextBool(0.1) ? Value::Null()
                                      : Value::Int64(rng.NextInt(-1e9, 1e9)));
      std::string s;
      const size_t len = rng.NextBounded(20);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>(rng.NextInt(0, 255)));
      }
      row.push_back(rng.NextBool(0.1) ? Value::Null()
                                      : Value::String(std::move(s)));
      ASSERT_TRUE(writer.AppendRow(row).ok());
      expected.push_back(std::move(row));
    }
    ASSERT_TRUE(writer.Close().ok());

    CorcReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    auto batch = reader.ReadAll(nullptr);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->num_rows(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch->GetRow(i)[0], expected[i][0]) << i;
      EXPECT_EQ(batch->GetRow(i)[1], expected[i][1]) << i;
    }
  }
}

TEST(FileSystemTest, SplitsAreSortedByName) {
  TempDir tmp;
  const std::string dir = tmp.path("table");
  ASSERT_TRUE(FileSystem::MakeDirs(dir).ok());
  // Create files out of order; listing must sort.
  for (int i : {3, 0, 2, 1}) {
    std::ofstream f(dir + "/" + FileSystem::PartFileName(i));
    f << "x";
  }
  std::ofstream ignored(dir + "/_metadata.json");
  ignored << "{}";
  auto splits = FileSystem::ListSplits(dir);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*splits)[i].index, i);
    EXPECT_NE((*splits)[i].path.find(FileSystem::PartFileName(i)),
              std::string::npos);
  }
}

TEST(FileSystemTest, DirectorySizeAndRemoveAll) {
  TempDir tmp;
  const std::string dir = tmp.path("d");
  ASSERT_TRUE(FileSystem::MakeDirs(dir + "/sub").ok());
  {
    std::ofstream f(dir + "/sub/file.bin", std::ios::binary);
    f << std::string(1000, 'a');
  }
  auto size = FileSystem::DirectorySize(dir);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1000u);
  ASSERT_TRUE(FileSystem::RemoveAll(dir).ok());
  EXPECT_FALSE(FileSystem::Exists(dir));
  EXPECT_EQ(*FileSystem::DirectorySize(dir), 0u);
}

TEST(FileSystemTest, PartFileNamesSortNumerically) {
  EXPECT_EQ(FileSystem::PartFileName(0), "part-00000.corc");
  EXPECT_EQ(FileSystem::PartFileName(42), "part-00042.corc");
  EXPECT_LT(FileSystem::PartFileName(9), FileSystem::PartFileName(10));
}

TEST(FileSystemTest, PartFileNamesStaySortedPastPadWidth) {
  // %05zu saturates at 99999; the widened form must keep name order equal
  // to index order across the boundary or raw/cache row alignment breaks.
  EXPECT_EQ(FileSystem::PartFileName(99999), "part-99999.corc");
  EXPECT_LT(FileSystem::PartFileName(99999), FileSystem::PartFileName(100000));
  EXPECT_LT(FileSystem::PartFileName(100000),
            FileSystem::PartFileName(100001));
  EXPECT_LT(FileSystem::PartFileName(100001),
            FileSystem::PartFileName(12345678901ull));
  // Every name still ends in ".corc" so listings pick it up.
  EXPECT_NE(FileSystem::PartFileName(100000).find(".corc"),
            std::string::npos);
}

// ---- Durability: staged writes, checksums, malformed-tail hardening ----

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Disarms the process-wide fault injector when the scope ends.
struct FaultGuard {
  ~FaultGuard() {
    EXPECT_TRUE(FaultInjector::Instance().Configure("off").ok());
  }
};

Schema IdSchema() {
  Schema schema;
  schema.AddField("id", TypeKind::kInt64);
  return schema;
}

TEST(CorcWriterTest, DestructorWithoutCloseAbortsStagedFile) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  {
    CorcWriter writer(path, IdSchema(), CorcWriterOptions{});
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.AppendRow({Value::Int64(1)}).ok());
    // Writer leaves scope without Close(): nothing may be published.
  }
  EXPECT_FALSE(FileSystem::Exists(path));
  EXPECT_FALSE(FileSystem::Exists(path + ".tmp"));
}

TEST(CorcWriterTest, StagedFileIsInvisibleToSplitListings) {
  TempDir tmp;
  const std::string dir = tmp.path("table");
  ASSERT_TRUE(FileSystem::MakeDirs(dir).ok());
  CorcWriter writer(dir + "/" + FileSystem::PartFileName(0), IdSchema(),
                    CorcWriterOptions{});
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRow({Value::Int64(1)}).ok());
  // Mid-write, only the ".tmp" staging file exists; readers see no splits.
  auto splits = FileSystem::ListSplits(dir);
  ASSERT_TRUE(splits.ok());
  EXPECT_TRUE(splits->empty());
  ASSERT_TRUE(writer.Close().ok());
  splits = FileSystem::ListSplits(dir);
  ASSERT_TRUE(splits.ok());
  EXPECT_EQ(splits->size(), 1u);
}

TEST(CorcWriterTest, FailedPublishLeavesNoFilesBehind) {
  // Fail each write-side op of a small file's lifecycle in turn; every
  // failure must surface through Close() and leave neither the final path
  // nor the staging file on disk.
  FaultGuard guard;
  for (int n = 1; n <= 8; ++n) {
    TempDir tmp;
    const std::string path = tmp.path("t.corc");
    ASSERT_TRUE(FaultInjector::Instance()
                    .Configure("fail:" + std::to_string(n))
                    .ok());
    Status status;
    {
      CorcWriter writer(path, IdSchema(), CorcWriterOptions{});
      status = writer.Open();
      if (status.ok()) status = writer.AppendRow({Value::Int64(7)});
      if (status.ok()) status = writer.Close();
      // Scope end: a writer whose Open failed cleans up via its destructor.
    }
    const bool tripped = FaultInjector::Instance().tripped();
    ASSERT_TRUE(FaultInjector::Instance().Configure("off").ok());
    if (!tripped) {
      // n exceeded the op count: the publish must have gone through whole.
      ASSERT_TRUE(status.ok()) << "n=" << n << ": " << status;
      EXPECT_TRUE(FileSystem::Exists(path)) << "n=" << n;
      CorcReader reader(path);
      EXPECT_TRUE(reader.Open().ok()) << "n=" << n;
      continue;
    }
    EXPECT_FALSE(status.ok()) << "n=" << n;
    // The staging file must never survive, and the final path may exist
    // only when the fault hit after the rename (e.g. the directory sync) —
    // in which case it is a complete, valid file, exactly as after a crash
    // between rename and directory flush.
    EXPECT_FALSE(FileSystem::Exists(path + ".tmp")) << "n=" << n;
    if (FileSystem::Exists(path)) {
      CorcReader reader(path);
      EXPECT_TRUE(reader.Open().ok()) << "n=" << n;
    }
  }
}

TEST(CorcWriterTest, TornWritePublishesNothingVisible) {
  FaultGuard guard;
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  ASSERT_TRUE(FaultInjector::Instance().Configure("torn:2").ok());
  CorcWriter writer(path, IdSchema(), CorcWriterOptions{});
  Status status = writer.Open();
  for (int i = 0; i < 10 && status.ok(); ++i) {
    status = writer.AppendRow({Value::Int64(i)});
  }
  if (status.ok()) status = writer.Close();
  ASSERT_TRUE(FaultInjector::Instance().Configure("off").ok());
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(FileSystem::Exists(path));
  EXPECT_FALSE(FileSystem::Exists(path + ".tmp"));
}

TEST(CorcReaderTest, EmptyAndShortFilesAreCorruption) {
  TempDir tmp;
  WriteFileBytes(tmp.path("empty.corc"), "");
  WriteFileBytes(tmp.path("short.corc"), "CORC2");
  WriteFileBytes(tmp.path("almost.corc"), "CORC2xxxCORC2");  // 13 < minimum
  for (const char* name : {"empty.corc", "short.corc", "almost.corc"}) {
    CorcReader reader(tmp.path(name));
    Status status = reader.Open();
    EXPECT_TRUE(status.IsCorruption()) << name << ": " << status;
  }
}

TEST(CorcReaderTest, HugeFooterLenIsCorruptionNotOverflow) {
  // A footer_len near UINT32_MAX must fail the bounds check cleanly; with
  // 32-bit arithmetic `len + tail` would wrap and pass.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriter writer(path, IdSchema(), CorcWriterOptions{});
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(writer.Close().ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 13u);
  for (uint32_t len : {UINT32_MAX, UINT32_MAX - 12, UINT32_MAX - 13}) {
    std::string damaged = bytes;
    // v2 tail: [footer_crc u32][footer_len u32][magic 5].
    std::memcpy(damaged.data() + damaged.size() - 9, &len, 4);
    WriteFileBytes(path, damaged);
    CorcReader reader(path);
    Status status = reader.Open();
    EXPECT_TRUE(status.IsCorruption()) << "len=" << len << ": " << status;
  }
}

TEST(CorcReaderTest, FooterAndChunkChecksumsCatchBitFlips) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriter writer(path, IdSchema(), CorcWriterOptions{});
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.AppendRow({Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  const std::string pristine = ReadFileBytes(path);
  uint32_t footer_len = 0;
  std::memcpy(&footer_len, pristine.data() + pristine.size() - 9, 4);
  const size_t footer_start = pristine.size() - 13 - footer_len;

  {
    // Flip a bit inside the footer JSON: Open must fail its checksum.
    std::string damaged = pristine;
    damaged[footer_start + footer_len / 2] ^= 0x01;
    WriteFileBytes(path, damaged);
    CorcReader reader(path);
    Status status = reader.Open();
    EXPECT_TRUE(status.IsCorruption()) << status;
  }
  {
    // Flip a bit inside the data section: Open succeeds (the footer is
    // intact) but decoding the chunk must fail its checksum.
    std::string damaged = pristine;
    damaged[kCorcMagicLen + 1] ^= 0x01;
    WriteFileBytes(path, damaged);
    CorcReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    auto batch = reader.ReadAll(nullptr);
    ASSERT_FALSE(batch.ok());
    EXPECT_TRUE(batch.status().IsCorruption()) << batch.status();
  }
}

TEST(CorcReaderTest, ReadsVersion1FilesWithoutChecksums) {
  // Hand-build a v1 file (leading/trailing "CORC1", no footer CRC, no
  // per-group "crc" keys): readers must still load it — existing caches
  // written before the version bump stay usable.
  TempDir tmp;
  const std::string path = tmp.path("v1.corc");
  std::string bytes = "CORC1";
  // One row group of two non-null int64 rows: null bytes then values.
  bytes.append(2, '\0');
  const int64_t values[2] = {41, 42};
  bytes.append(reinterpret_cast<const char*>(values), 16);
  const std::string footer =
      "{\"fields\":[{\"name\":\"id\",\"type\":1}],\"rows_per_group\":100,"
      "\"num_rows\":2,\"stripes\":[{\"num_rows\":2,\"columns\":[{"
      "\"row_groups\":[{\"offset\":5,\"length\":18,\"min\":41,\"max\":42,"
      "\"nulls\":0,\"values\":2}]}]}]}";
  bytes += footer;
  const uint32_t footer_len = static_cast<uint32_t>(footer.size());
  bytes.append(reinterpret_cast<const char*>(&footer_len), 4);
  bytes += "CORC1";
  WriteFileBytes(path, bytes);

  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.footer().version, kCorcVersionV1);
  EXPECT_EQ(reader.num_rows(), 2u);
  auto batch = reader.ReadAll(nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->num_rows(), 2u);
  EXPECT_EQ(batch->column(0).GetInt64(0), 41);
  EXPECT_EQ(batch->column(0).GetInt64(1), 42);
}

TEST(CorcReaderTest, MixedMagicIsCorruption) {
  // A v2 head with a v1 tail (or vice versa) means the file was spliced or
  // torn across versions; both directions must be rejected.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriter writer(path, IdSchema(), CorcWriterOptions{});
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(writer.Close().ok());
  std::string bytes = ReadFileBytes(path);
  std::memcpy(bytes.data(), "CORC1", 5);  // head says v1, tail says v2
  WriteFileBytes(path, bytes);
  CorcReader reader(path);
  Status status = reader.Open();
  EXPECT_TRUE(status.IsCorruption()) << status;
}

TEST(FaultInjectorTest, SpecValidationAndOneShotShortRead) {
  FaultGuard guard;
  for (const char* bad : {"", "fail", "fail:", "fail:0", "fail:2x", "nope:1"}) {
    EXPECT_FALSE(FaultInjector::ValidateSpec(bad).ok()) << bad;
    EXPECT_FALSE(FaultInjector::Instance().Configure(bad).ok()) << bad;
  }
  EXPECT_TRUE(FaultInjector::ValidateSpec("off").ok());
  EXPECT_TRUE(FaultInjector::ValidateSpec("torn:12").ok());
  // A rejected Configure leaves the injector disarmed.
  EXPECT_EQ(FaultInjector::Instance().spec(), "off");
  EXPECT_FALSE(FaultInjector::Instance().enabled());

  ASSERT_TRUE(FaultInjector::Instance().Configure("short:2").ok());
  EXPECT_EQ(FaultInjector::Instance().OnRead(100), 100u);  // op 1
  EXPECT_EQ(FaultInjector::Instance().OnRead(100), 50u);   // op 2 trips
  EXPECT_EQ(FaultInjector::Instance().OnRead(100), 100u);  // one-shot
  EXPECT_TRUE(FaultInjector::Instance().tripped());
}

// ---- CORC v3 chunk encodings ----

/// Plain-layout chunk for a fixed-width column: null byte per row, then the
/// value slots (nulls hold the zero default, matching ColumnVector).
template <typename T>
std::string PlainFixedChunk(const std::vector<std::pair<bool, T>>& rows) {
  std::string out;
  for (const auto& [is_null, v] : rows) out.push_back(is_null ? 1 : 0);
  for (const auto& [is_null, v] : rows) {
    const T slot = is_null ? T{} : v;
    out.append(reinterpret_cast<const char*>(&slot), sizeof(T));
  }
  return out;
}

/// Plain-layout chunk for a string column (null row => zero length).
std::string PlainStringChunk(
    const std::vector<std::pair<bool, std::string>>& rows) {
  std::string out;
  for (const auto& [is_null, v] : rows) out.push_back(is_null ? 1 : 0);
  for (const auto& [is_null, v] : rows) {
    const uint32_t len = is_null ? 0 : static_cast<uint32_t>(v.size());
    out.append(reinterpret_cast<const char*>(&len), 4);
    if (!is_null) out.append(v);
  }
  return out;
}

TEST(CorcEncodingTest, RleRoundTripFixedWidthTypes) {
  std::vector<std::pair<bool, int64_t>> ints;
  for (int i = 0; i < 200; ++i) ints.push_back({false, i / 50});
  ints.push_back({true, 0});
  const std::string plain = PlainFixedChunk(ints);
  std::string encoded;
  ASSERT_TRUE(RleEncodeChunk(TypeKind::kInt64, ints.size(), plain, &encoded));
  EXPECT_LT(encoded.size(), plain.size());
  std::string decoded;
  ASSERT_TRUE(DecodeChunk(ChunkEncoding::kRle, TypeKind::kInt64, ints.size(),
                          plain.size(), encoded, &decoded)
                  .ok());
  EXPECT_EQ(decoded, plain);

  std::vector<std::pair<bool, double>> doubles(64, {false, 2.5});
  const std::string dplain = PlainFixedChunk(doubles);
  std::string denc;
  ASSERT_TRUE(
      RleEncodeChunk(TypeKind::kDouble, doubles.size(), dplain, &denc));
  std::string ddec;
  ASSERT_TRUE(DecodeChunk(ChunkEncoding::kRle, TypeKind::kDouble,
                          doubles.size(), dplain.size(), denc, &ddec)
                  .ok());
  EXPECT_EQ(ddec, dplain);

  std::vector<std::pair<bool, uint8_t>> bools(33, {false, 1});
  const std::string bplain = PlainFixedChunk(bools);
  std::string benc;
  ASSERT_TRUE(RleEncodeChunk(TypeKind::kBool, bools.size(), bplain, &benc));
  std::string bdec;
  ASSERT_TRUE(DecodeChunk(ChunkEncoding::kRle, TypeKind::kBool, bools.size(),
                          bplain.size(), benc, &bdec)
                  .ok());
  EXPECT_EQ(bdec, bplain);
}

TEST(CorcEncodingTest, RleDoesNotApplyToStringsOrHighEntropy) {
  std::string out;
  EXPECT_FALSE(RleEncodeChunk(
      TypeKind::kString, 2, PlainStringChunk({{false, "a"}, {false, "b"}}),
      &out));
  // Strictly alternating values: every run has length 1, so RLE cannot win.
  std::vector<std::pair<bool, int64_t>> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({false, i % 2 ? -i : i});
  EXPECT_FALSE(RleEncodeChunk(TypeKind::kInt64, rows.size(),
                              PlainFixedChunk(rows), &out));
}

TEST(CorcEncodingTest, DictRoundTripLowCardinalityStrings) {
  std::vector<std::pair<bool, std::string>> rows;
  const char* tags[] = {"checkout", "search", "landing"};
  for (int i = 0; i < 300; ++i) {
    if (i % 31 == 0) {
      rows.push_back({true, ""});
    } else {
      rows.push_back({false, tags[i % 3]});
    }
  }
  const std::string plain = PlainStringChunk(rows);
  std::string encoded;
  ASSERT_TRUE(DictEncodeChunk(TypeKind::kString, rows.size(), plain,
                              &encoded));
  EXPECT_LT(encoded.size(), plain.size());
  std::string decoded;
  ASSERT_TRUE(DecodeChunk(ChunkEncoding::kDict, TypeKind::kString,
                          rows.size(), plain.size(), encoded, &decoded)
                  .ok());
  EXPECT_EQ(decoded, plain);
}

TEST(CorcEncodingTest, DictRejectedWhenEveryValueIsDistinct) {
  std::vector<std::pair<bool, std::string>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({false, std::to_string(i)});
  std::string out;
  EXPECT_FALSE(DictEncodeChunk(TypeKind::kString, rows.size(),
                               PlainStringChunk(rows), &out));
  EXPECT_FALSE(DictEncodeChunk(TypeKind::kInt64, 1,
                               PlainFixedChunk<int64_t>({{false, 1}}), &out));
}

TEST(CorcEncodingTest, BlockRoundTripArbitraryBytes) {
  Rng rng(4242);
  std::vector<std::string> inputs = {"", "a", std::string(100000, 'z')};
  {
    // Repetitive but multi-byte patterns (overlapping matches).
    std::string s;
    for (int i = 0; i < 5000; ++i) s += "abcabcab";
    inputs.push_back(std::move(s));
  }
  {
    // Incompressible random bytes: round-trip must still hold even though
    // the "compressed" form is larger.
    std::string s;
    for (int i = 0; i < 3000; ++i) {
      s.push_back(static_cast<char>(rng.NextInt(0, 255)));
    }
    inputs.push_back(std::move(s));
  }
  for (const std::string& input : inputs) {
    std::string compressed;
    BlockCompress(input, &compressed);
    std::string output;
    ASSERT_TRUE(BlockDecompress(compressed, input.size(), &output).ok())
        << "input size " << input.size();
    EXPECT_EQ(output, input);
  }
  // The repetitive inputs must actually shrink.
  std::string compressed;
  BlockCompress(inputs[2], &compressed);
  EXPECT_LT(compressed.size(), inputs[2].size());
}

TEST(CorcEncodingTest, AdaptivePicksSmallestWithPlainFloor) {
  // A chunk too small for any codec to amortize its overhead (two random
  // values; the 2-byte null prefix is below the block codec's minimum
  // match): every candidate loses, plain is kept verbatim.
  Rng rng(99);
  auto random_int64 = [&rng]() {
    return rng.NextInt(INT32_MIN, INT32_MAX) * (int64_t{1} << 31) +
           rng.NextInt(INT32_MIN, INT32_MAX);
  };
  std::vector<std::pair<bool, int64_t>> tiny = {{false, random_int64()},
                                                {false, random_int64()}};
  const std::string tiny_plain = PlainFixedChunk(tiny);
  std::string out;
  EXPECT_EQ(EncodeChunkAdaptive(TypeKind::kInt64, tiny.size(), tiny_plain,
                                &out),
            ChunkEncoding::kPlain);
  EXPECT_EQ(out, tiny_plain);

  // Random values at scale: the value bytes are incompressible, but the
  // all-zero null prefix is, so SOME encoding wins — and whatever is
  // picked must never exceed the plain floor and must round-trip exactly.
  std::vector<std::pair<bool, int64_t>> random_rows;
  for (int i = 0; i < 100; ++i) {
    random_rows.push_back({false, random_int64()});
  }
  const std::string random_plain = PlainFixedChunk(random_rows);
  const ChunkEncoding random_enc = EncodeChunkAdaptive(
      TypeKind::kInt64, random_rows.size(), random_plain, &out);
  EXPECT_LE(out.size(), random_plain.size());
  std::string random_decoded;
  ASSERT_TRUE(DecodeChunk(random_enc, TypeKind::kInt64, random_rows.size(),
                          random_plain.size(), out, &random_decoded)
                  .ok());
  EXPECT_EQ(random_decoded, random_plain);

  // A constant column: RLE wins and decodes back exactly.
  std::vector<std::pair<bool, int64_t>> constant(500, {false, 42});
  const std::string const_plain = PlainFixedChunk(constant);
  const ChunkEncoding enc = EncodeChunkAdaptive(
      TypeKind::kInt64, constant.size(), const_plain, &out);
  EXPECT_EQ(enc, ChunkEncoding::kRle);
  EXPECT_LT(out.size(), const_plain.size());
  std::string decoded;
  ASSERT_TRUE(DecodeChunk(enc, TypeKind::kInt64, constant.size(),
                          const_plain.size(), out, &decoded)
                  .ok());
  EXPECT_EQ(decoded, const_plain);

  // Low-cardinality strings: dictionary beats plain.
  std::vector<std::pair<bool, std::string>> tags;
  for (int i = 0; i < 400; ++i) {
    tags.push_back({false, i % 2 ? "mobile_web_client" : "desktop_client"});
  }
  const std::string tag_plain = PlainStringChunk(tags);
  const ChunkEncoding tag_enc =
      EncodeChunkAdaptive(TypeKind::kString, tags.size(), tag_plain, &out);
  EXPECT_NE(tag_enc, ChunkEncoding::kPlain);
  EXPECT_LT(out.size(), tag_plain.size());
  ASSERT_TRUE(DecodeChunk(tag_enc, TypeKind::kString, tags.size(),
                          tag_plain.size(), out, &decoded)
                  .ok());
  EXPECT_EQ(decoded, tag_plain);
}

TEST(CorcEncodingTest, AdaptiveRandomizedRoundTripEveryType) {
  // Property: whatever the adaptive encoder picks decodes back to the
  // exact plain bytes, across types, row counts, and data shapes.
  Rng rng(20260808);
  for (int iter = 0; iter < 60; ++iter) {
    const size_t rows = 1 + rng.NextBounded(300);
    const int shape = static_cast<int>(rng.NextBounded(3));  // runs/low-card/random
    const TypeKind type = static_cast<TypeKind>(rng.NextBounded(4));
    std::string plain;
    if (type == TypeKind::kString) {
      std::vector<std::pair<bool, std::string>> vals;
      for (size_t i = 0; i < rows; ++i) {
        if (rng.NextBool(0.1)) {
          vals.push_back({true, ""});
        } else if (shape == 0) {
          vals.push_back({false, "run"});
        } else if (shape == 1) {
          vals.push_back({false, std::to_string(rng.NextBounded(4))});
        } else {
          std::string s;
          for (size_t j = rng.NextBounded(12); j > 0; --j) {
            s.push_back(static_cast<char>(rng.NextInt(0, 255)));
          }
          vals.push_back({false, std::move(s)});
        }
      }
      plain = PlainStringChunk(vals);
    } else if (type == TypeKind::kBool) {
      std::vector<std::pair<bool, uint8_t>> vals;
      for (size_t i = 0; i < rows; ++i) {
        vals.push_back({rng.NextBool(0.1),
                        static_cast<uint8_t>(rng.NextBool(0.5) ? 1 : 0)});
      }
      plain = PlainFixedChunk(vals);
    } else {
      std::vector<std::pair<bool, int64_t>> vals;
      int64_t run_value = rng.NextInt(-5, 5);
      for (size_t i = 0; i < rows; ++i) {
        if (shape == 0 && rng.NextBool(0.9)) {
          // keep the run
        } else if (shape == 1) {
          run_value = rng.NextInt(0, 3);
        } else {
          run_value = rng.NextInt(-1e9, 1e9);
        }
        vals.push_back({rng.NextBool(0.1), run_value});
      }
      plain = PlainFixedChunk(vals);  // double shares the 8-byte layout
    }
    std::string encoded;
    const ChunkEncoding enc =
        EncodeChunkAdaptive(type, rows, plain, &encoded);
    EXPECT_LE(encoded.size(), plain.size());
    std::string decoded;
    ASSERT_TRUE(
        DecodeChunk(enc, type, rows, plain.size(), encoded, &decoded).ok())
        << "iter " << iter << " type " << static_cast<int>(type) << " enc "
        << static_cast<int>(enc);
    EXPECT_EQ(decoded, plain) << "iter " << iter;
  }
}

TEST(CorcEncodingTest, DecodersRejectMalformedStreamsWithoutCrashing) {
  // Valid encoded streams, then truncated and bit-flipped variants: every
  // decode must either succeed with exactly raw_length bytes or return
  // typed Corruption — never crash, hang, or over-allocate.
  std::vector<std::pair<bool, int64_t>> ints(100, {false, 9});
  const std::string int_plain = PlainFixedChunk(ints);
  std::vector<std::pair<bool, std::string>> strs(60, {false, "dup"});
  const std::string str_plain = PlainStringChunk(strs);

  struct Case {
    ChunkEncoding enc;
    TypeKind type;
    size_t rows;
    size_t raw_length;
    std::string encoded;
  };
  std::vector<Case> cases;
  {
    std::string e;
    ASSERT_TRUE(RleEncodeChunk(TypeKind::kInt64, ints.size(), int_plain, &e));
    cases.push_back({ChunkEncoding::kRle, TypeKind::kInt64, ints.size(),
                     int_plain.size(), std::move(e)});
  }
  {
    std::string e;
    ASSERT_TRUE(DictEncodeChunk(TypeKind::kString, strs.size(), str_plain,
                                &e));
    cases.push_back({ChunkEncoding::kDict, TypeKind::kString, strs.size(),
                     str_plain.size(), std::move(e)});
  }
  {
    std::string e;
    BlockCompress(str_plain, &e);
    cases.push_back({ChunkEncoding::kBlock, TypeKind::kString, strs.size(),
                     str_plain.size(), std::move(e)});
  }

  Rng rng(7);
  for (const Case& c : cases) {
    for (size_t cut = 0; cut < c.encoded.size(); ++cut) {
      std::string truncated = c.encoded.substr(0, cut);
      std::string out;
      const Status st = DecodeChunk(c.enc, c.type, c.rows, c.raw_length,
                                    truncated, &out);
      if (st.ok()) {
        EXPECT_EQ(out.size(), c.raw_length);
      } else {
        EXPECT_TRUE(st.IsCorruption()) << st;
      }
    }
    for (int flip = 0; flip < 200; ++flip) {
      std::string mutated = c.encoded;
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<char>(1 << rng.NextBounded(8));
      std::string out;
      const Status st =
          DecodeChunk(c.enc, c.type, c.rows, c.raw_length, mutated, &out);
      if (st.ok()) {
        EXPECT_EQ(out.size(), c.raw_length);
      } else {
        EXPECT_TRUE(st.IsCorruption()) << st;
      }
    }
  }

  // Targeted: a dictionary index >= dict_count must be caught (the MaxU32
  // validation pass), not read out of bounds.
  {
    std::string e;
    ASSERT_TRUE(DictEncodeChunk(TypeKind::kString, strs.size(), str_plain,
                                &e));
    const uint32_t huge = 0x7FFFFFFF;
    std::memcpy(e.data() + e.size() - 4, &huge, 4);  // last row's index
    std::string out;
    const Status st = DecodeChunk(ChunkEncoding::kDict, TypeKind::kString,
                                  strs.size(), str_plain.size(), e, &out);
    EXPECT_TRUE(st.IsCorruption()) << st;
  }
  // Targeted: dict only applies to string columns.
  {
    std::string out;
    EXPECT_TRUE(DecodeChunk(ChunkEncoding::kDict, TypeKind::kInt64,
                            ints.size(), int_plain.size(), "", &out)
                    .IsCorruption());
  }
  // Targeted: a plain chunk whose raw_length disagrees with its size.
  {
    std::string out;
    EXPECT_TRUE(DecodeChunk(ChunkEncoding::kPlain, TypeKind::kInt64,
                            ints.size(), int_plain.size() + 1, int_plain,
                            &out)
                    .IsCorruption());
  }
}

TEST(CorcEncodingTest, OversizedStringValueIsRejectedUpFront) {
  // The per-row length field is u32; a value one byte past it must be an
  // InvalidArgument from validation (previously the size was silently
  // truncated by a static_cast and the chunk checksummed cleanly). The
  // helper is tested directly — allocating a real 4 GiB string would sink
  // CI — and is the exact check the writer's string path calls per value.
  EXPECT_TRUE(ValidateCorcStringSize(0).ok());
  EXPECT_TRUE(ValidateCorcStringSize(kMaxCorcStringBytes).ok());
  const Status st = ValidateCorcStringSize(kMaxCorcStringBytes + 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
}

TEST(CorcEncodingTest, CrossVersionWriteReadMatrix) {
  // The same rows written as v2 and v3 read back identically; the v3 file
  // is smaller on this repetitive data; the v2 file carries no encoding
  // keys (byte-compatibility with pre-encoding readers).
  TempDir tmp;
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({Value::Int64(i / 40), Value::Double(3.5),
                    Value::String(i % 2 ? "on" : "off"),
                    i % 17 == 0 ? Value::Null() : Value::Bool(true)});
  }
  std::map<uint32_t, std::string> files;
  for (uint32_t version : {kCorcVersion, kCorcVersionV3}) {
    const std::string path =
        tmp.path("v" + std::to_string(version) + ".corc");
    CorcWriterOptions options;
    options.rows_per_group = 16;
    options.format_version = version;
    CorcWriter writer(path, TestSchema(), options);
    ASSERT_TRUE(writer.Open().ok());
    for (const auto& row : rows) ASSERT_TRUE(writer.AppendRow(row).ok());
    ASSERT_TRUE(writer.Close().ok());
    files[version] = path;

    CorcReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    EXPECT_EQ(reader.footer().version, version);
    auto batch = reader.ReadAll(nullptr);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->num_rows(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(batch->GetRow(i)[c], rows[i][c]) << "v" << version;
      }
    }
  }
  const std::string v2 = ReadFileBytes(files[kCorcVersion]);
  const std::string v3 = ReadFileBytes(files[kCorcVersionV3]);
  EXPECT_LT(v3.size(), v2.size());
  EXPECT_EQ(v2.substr(0, 5), "CORC2");
  EXPECT_EQ(v2.substr(v2.size() - 5), "CORC2");
  EXPECT_EQ(v2.find("\"enc\""), std::string::npos);
  EXPECT_EQ(v2.find("\"raw_len\""), std::string::npos);
  EXPECT_EQ(v3.substr(0, 5), "CORC3");
  EXPECT_EQ(v3.substr(v3.size() - 5), "CORC3");
}

TEST(CorcEncodingTest, WriterStatsAccountForEveryChunk) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 32;
  CorcWriter writer(path, TestSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(writer
                    .AppendRow({Value::Int64(7), Value::Double(7),
                                Value::String("seven"), Value::Bool(true)})
                    .ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  const CorcWriteStats& stats = writer.write_stats();
  uint64_t chunks = 0;
  for (int e = 0; e < kNumChunkEncodings; ++e) chunks += stats.chunks[e];
  EXPECT_EQ(chunks, 4u * 4u);  // 4 columns x ceil(128/32) groups
  EXPECT_GT(stats.raw_bytes, 0u);
  EXPECT_LT(stats.encoded_bytes, stats.raw_bytes);  // constant data encodes
  EXPECT_GT(stats.chunks[static_cast<int>(ChunkEncoding::kRle)] +
                stats.chunks[static_cast<int>(ChunkEncoding::kDict)] +
                stats.chunks[static_cast<int>(ChunkEncoding::kBlock)],
            0u);
}

TEST(CorcEncodingTest, WriterRejectsUnknownFormatVersion) {
  TempDir tmp;
  for (uint32_t version : {0u, 1u, 4u}) {
    CorcWriterOptions options;
    options.format_version = version;
    CorcWriter writer(tmp.path("t.corc"), IdSchema(), options);
    const Status st = writer.Open();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << version << ": " << st;
  }
}

TEST(CorcEncodingTest, V3ChecksumsCoverEncodedBytes) {
  // Flip one bit in a v3 encoded chunk: the CRC (computed over the encoded
  // bytes) must catch it before any decoder touches the stream.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 64;
  CorcWriter writer(path, IdSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(writer.AppendRow({Value::Int64(5)}).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  std::string bytes = ReadFileBytes(path);
  bytes[kCorcMagicLen + 2] ^= 0x10;
  WriteFileBytes(path, bytes);
  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  auto batch = reader.ReadAll(nullptr);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsCorruption()) << batch.status();
}

TEST(CorcEncodingTest, HostileV3FooterEncodingFieldsAreRejected) {
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  CorcWriterOptions options;
  options.rows_per_group = 8;
  CorcWriter writer(path, IdSchema(), options);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer.AppendRow({Value::Int64(i * 1000 + 17)}).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  const std::string pristine = ReadFileBytes(path);
  uint32_t footer_len = 0;
  std::memcpy(&footer_len, pristine.data() + pristine.size() - 9, 4);
  const size_t footer_start = pristine.size() - 13 - footer_len;
  const std::string footer = pristine.substr(footer_start, footer_len);

  // Rewrites the footer JSON (fixing up the CRC and length) so directory
  // attacks survive the footer checksum and exercise the field validation.
  const auto rewrite = [&](const std::string& from, const std::string& to) {
    std::string patched = footer;
    const size_t at = patched.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    patched.replace(at, from.size(), to);
    std::string bytes = pristine.substr(0, footer_start) + patched;
    const uint32_t crc = simd::Crc32c(
        reinterpret_cast<const uint8_t*>(patched.data()), patched.size());
    const uint32_t len = static_cast<uint32_t>(patched.size());
    bytes.append(reinterpret_cast<const char*>(&crc), 4);
    bytes.append(reinterpret_cast<const char*>(&len), 4);
    bytes.append(kCorcMagicV3, kCorcMagicLen);
    WriteFileBytes(path, bytes);
  };

  // The winning encoding depends on the data, so locate the keys with
  // their actual rendered digits rather than assuming an id.
  const auto field_text = [&](const std::string& key) {
    const size_t at = footer.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    size_t end = at + key.size();
    while (end < footer.size() &&
           std::isdigit(static_cast<unsigned char>(footer[end]))) {
      ++end;
    }
    return footer.substr(at, end - at);
  };
  const std::string enc_text = field_text("\"enc\":");
  const std::string raw_len_text = field_text("\"raw_len\":");

  {  // Unknown encoding id.
    SCOPED_TRACE("enc id");
    rewrite(enc_text, "\"enc\":9");
    CorcReader reader(path);
    const Status st = reader.Open();
    EXPECT_TRUE(st.IsCorruption()) << st;
  }
  {  // Absurd decoded length (beyond the 1 GiB decode cap).
    SCOPED_TRACE("raw_len");
    rewrite(raw_len_text, "\"raw_len\":999999999999");
    CorcReader reader(path);
    const Status st = reader.Open();
    EXPECT_TRUE(st.IsCorruption()) << st;
  }
  {  // Missing encoding keys in a v3 footer.
    SCOPED_TRACE("missing keys");
    rewrite(enc_text + ",", "");
    CorcReader reader(path);
    const Status st = reader.Open();
    EXPECT_TRUE(st.IsCorruption()) << st;
  }
}

TEST(SargTest, CastLeavesCompareCastBounds) {
  // One group holding 2.9 and 2.95: to_int makes both 2, so `to_int(v) = 2`
  // matches every row although the uncast bounds exclude 2.
  ColumnStats fractions;
  fractions.Update(Value::Double(2.9));
  fractions.Update(Value::Double(2.95));
  SargLeaf to_int_eq{"v", SargOp::kEq, Value::Int64(2), SargCast::kToInt};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(to_int_eq, fractions),
            SargResult::kMaybe);
  SargLeaf uncast_eq{"v", SargOp::kEq, Value::Int64(2)};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(uncast_eq, fractions),
            SargResult::kNo);
  SargLeaf to_int_lt{"v", SargOp::kLt, Value::Double(2.5), SargCast::kToInt};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(to_int_lt, fractions),
            SargResult::kMaybe);
  SargLeaf to_int_gt{"v", SargOp::kGt, Value::Int64(2), SargCast::kToInt};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(to_int_gt, fractions),
            SargResult::kNo);
  SargLeaf to_double_gt{"v", SargOp::kGt, Value::Double(2.92),
                        SargCast::kToDouble};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(to_double_gt, fractions),
            SargResult::kMaybe);

  // Truncation toward zero raises negative values: to_int(-2.3) = -2.
  ColumnStats negative;
  negative.Update(Value::Double(-2.9));
  negative.Update(Value::Double(-2.3));
  SargLeaf neg_gt{"v", SargOp::kGt, Value::Double(-2.2), SargCast::kToInt};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(neg_gt, negative),
            SargResult::kMaybe);

  // Bounds to_int cannot represent bound nothing; string bounds never
  // order a cast; a cast compared with a string literal compares text.
  ColumnStats huge;
  huge.Update(Value::Double(1.0));
  huge.Update(Value::Double(1e30));
  SargLeaf huge_lt{"v", SargOp::kLt, Value::Int64(0), SargCast::kToInt};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(huge_lt, huge), SargResult::kMaybe);
  ColumnStats text;
  text.Update(Value::String("10"));
  text.Update(Value::String("abc"));
  SargLeaf text_gt{"v", SargOp::kGt, Value::Int64(500), SargCast::kToInt};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(text_gt, text), SargResult::kMaybe);
  SargLeaf cast_text{"v", SargOp::kEq, Value::String("zzz"),
                     SargCast::kToInt};
  EXPECT_EQ(SearchArgument::EvaluateLeaf(cast_text, text), SargResult::kMaybe);
}

TEST(ValueTest, CastsAreDefinedForEveryInput) {
  EXPECT_TRUE(CastToInt(Value::Null()).is_null());
  EXPECT_EQ(CastToInt(Value::String("2.95")).int64_value(), 2);
  EXPECT_EQ(CastToInt(Value::String("-2.95")).int64_value(), -2);
  EXPECT_EQ(CastToInt(Value::Int64(INT64_MAX)).int64_value(), INT64_MAX);
  EXPECT_EQ(CastToInt(Value::Bool(true)).int64_value(), 1);
  EXPECT_TRUE(CastToInt(Value::String("nan")).is_null());
  EXPECT_TRUE(CastToInt(Value::String("1e19")).is_null());
  EXPECT_TRUE(CastToInt(Value::Double(-1e19)).is_null());
  EXPECT_EQ(CastToInt(Value::Double(-9223372036854775808.0)).int64_value(),
            INT64_MIN);
  EXPECT_TRUE(CastToDouble(Value::Null()).is_null());
  EXPECT_EQ(CastToDouble(Value::String("1e+03")).double_value(), 1000.0);

  double d = 0.0;
  EXPECT_TRUE(ParseFiniteNumber("-0", &d));
  EXPECT_TRUE(ParseFiniteNumber("1E-7", &d));
  EXPECT_EQ(d, 1e-7);
  for (const char* text : {"", "abc", "12abc", "nan", "inf", "-inf", "1e999",
                           "5 "}) {
    EXPECT_FALSE(ParseFiniteNumber(text, &d)) << '"' << text << '"';
  }
}

// ---- Footer-directory consistency validation (CorcReader::Open) ----

/// Hand-builds a v1 file (no CRCs, so footers can be forged freely) with a
/// 64-byte zero data region for chunk entries to point into.
std::string ForgeV1File(const std::string& footer) {
  std::string bytes = "CORC1";
  bytes.append(64, '\0');
  bytes += footer;
  const uint32_t footer_len = static_cast<uint32_t>(footer.size());
  bytes.append(reinterpret_cast<const char*>(&footer_len), 4);
  bytes += "CORC1";
  return bytes;
}

constexpr char kGroup[] =
    "{\"offset\":5,\"length\":18,\"min\":null,\"max\":null,\"nulls\":2,"
    "\"values\":2}";

TEST(CorcReaderTest, FooterWithExtraColumnIsCorruption) {
  // One schema field but two column entries: before validation the extra
  // directory entry was silently carried along and ReadStripe could index
  // columns the schema does not have.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  const std::string footer = std::string() +
      "{\"fields\":[{\"name\":\"id\",\"type\":1}],\"rows_per_group\":100,"
      "\"num_rows\":2,\"stripes\":[{\"num_rows\":2,\"columns\":["
      "{\"row_groups\":[" + kGroup + "]},{\"row_groups\":[" + kGroup +
      "]}]}]}";
  WriteFileBytes(path, ForgeV1File(footer));
  CorcReader reader(path);
  const Status st = reader.Open();
  ASSERT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("column count"), std::string::npos) << st;
}

TEST(CorcReaderTest, FooterWithMissingColumnIsCorruption) {
  // Two schema fields but a single column entry: a projection of the second
  // field would previously index past the directory.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  const std::string footer = std::string() +
      "{\"fields\":[{\"name\":\"a\",\"type\":1},{\"name\":\"b\",\"type\":1}],"
      "\"rows_per_group\":100,\"num_rows\":2,\"stripes\":[{\"num_rows\":2,"
      "\"columns\":[{\"row_groups\":[" + kGroup + "]}]}]}";
  WriteFileBytes(path, ForgeV1File(footer));
  CorcReader reader(path);
  const Status st = reader.Open();
  ASSERT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("column count"), std::string::npos) << st;
}

TEST(CorcReaderTest, RaggedRowGroupCountsAreCorruption) {
  // Both columns must list one group per rows_per_group slice; a ragged
  // directory previously crashed ReadStripe on the shorter column.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  const std::string footer = std::string() +
      "{\"fields\":[{\"name\":\"a\",\"type\":1},{\"name\":\"b\",\"type\":1}],"
      "\"rows_per_group\":2,\"num_rows\":4,\"stripes\":[{\"num_rows\":4,"
      "\"columns\":[{\"row_groups\":[" + kGroup + "," + kGroup +
      "]},{\"row_groups\":[" + kGroup + "]}]}]}";
  WriteFileBytes(path, ForgeV1File(footer));
  CorcReader reader(path);
  const Status st = reader.Open();
  ASSERT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("row group count"), std::string::npos) << st;
}

TEST(CorcReaderTest, GroupCountDisagreeingWithStripeRowsIsCorruption) {
  // 25 rows at 10 rows/group needs 3 groups; a directory listing 2 would
  // previously drop the tail rows silently. A zero-row stripe listing a
  // group is equally inconsistent.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  for (const char* stripe :
       {"{\"num_rows\":25,\"columns\":[{\"row_groups\":[%G,%G]}]}",
        "{\"num_rows\":0,\"columns\":[{\"row_groups\":[%G]}]}"}) {
    std::string body = stripe;
    for (size_t at = body.find("%G"); at != std::string::npos;
         at = body.find("%G")) {
      body.replace(at, 2, kGroup);
    }
    const std::string footer =
        "{\"fields\":[{\"name\":\"id\",\"type\":1}],\"rows_per_group\":10,"
        "\"num_rows\":25,\"stripes\":[" + body + "]}";
    WriteFileBytes(path, ForgeV1File(footer));
    CorcReader reader(path);
    const Status st = reader.Open();
    ASSERT_TRUE(st.IsCorruption()) << stripe << ": " << st;
    EXPECT_NE(st.message().find("row group count"), std::string::npos) << st;
  }
}

TEST(CorcReaderTest, HugeStringLengthIsCorruptionNotCrash) {
  // A forged per-row string length of 0xFFFFFFFF: the old bounds check
  // computed `p + len` — past-the-end pointer arithmetic (UB) — before
  // comparing; the remaining-length form must reject it cleanly.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  std::string bytes = "CORC1";
  bytes.push_back('\0');                    // 1 row, not null
  bytes.append("\xFF\xFF\xFF\xFF", 4);      // len = UINT32_MAX, no data
  const std::string footer =
      "{\"fields\":[{\"name\":\"s\",\"type\":3}],\"rows_per_group\":100,"
      "\"num_rows\":1,\"stripes\":[{\"num_rows\":1,\"columns\":[{"
      "\"row_groups\":[{\"offset\":5,\"length\":5,\"min\":null,\"max\":null,"
      "\"nulls\":0,\"values\":1}]}]}]}";
  bytes += footer;
  const uint32_t footer_len = static_cast<uint32_t>(footer.size());
  bytes.append(reinterpret_cast<const char*>(&footer_len), 4);
  bytes += "CORC1";
  WriteFileBytes(path, bytes);

  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  auto batch = reader.ReadAll(nullptr);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsCorruption()) << batch.status();
}

// ---- Footer stat type coercion (pruning correctness) ----

TEST(CorcReaderTest, ReloadedDoubleStatsKeepTheirDeclaredType) {
  // An integral double (1234567.0) serializes as "1234567" in the footer
  // JSON and reparses as Int64. Value::Compare's mixed-type fallback is
  // textual, and Int64 renders "1234567" while the Double it stood for
  // renders "1.23457e+06" — so without coercion an Eq sarg against the
  // matching string literal mis-ordered and pruned the group its match
  // lives in. Open must hand back Double-typed stats.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  Schema schema;
  schema.AddField("score", TypeKind::kDouble);
  CorcWriter writer(path, schema, CorcWriterOptions{});
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRow({Value::Double(1234567.0)}).ok());
  ASSERT_TRUE(writer.Close().ok());

  CorcReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ColumnStats& stats =
      reader.footer().stripes[0].columns[0].row_groups[0].stats;
  EXPECT_TRUE(stats.min.is_double()) << stats.min.ToString();
  EXPECT_TRUE(stats.max.is_double()) << stats.max.ToString();

  const Value literal = Value::String(Value::Double(1234567.0).ToString());
  SearchArgument sarg;
  sarg.AddLeaf(SargLeaf{"score", SargOp::kEq, literal});
  auto include = reader.ComputeRowGroupInclusion(0, sarg);
  ASSERT_TRUE(include.ok());
  ASSERT_EQ(include->size(), 1u);
  // The group's single row compares equal to the literal, so pruning must
  // keep it.
  EXPECT_EQ(Value::Double(1234567.0).Compare(literal), 0);
  EXPECT_TRUE((*include)[0]);
}

TEST(CorcReaderTest, MistypedFooterStatsAreCorruption) {
  // A stat whose JSON type cannot represent the column's declared type
  // (string stat on an int column) is a forged or corrupt directory.
  TempDir tmp;
  const std::string path = tmp.path("t.corc");
  const std::string footer =
      "{\"fields\":[{\"name\":\"id\",\"type\":1}],\"rows_per_group\":100,"
      "\"num_rows\":2,\"stripes\":[{\"num_rows\":2,\"columns\":[{"
      "\"row_groups\":[{\"offset\":5,\"length\":18,\"min\":\"abc\","
      "\"max\":\"xyz\",\"nulls\":0,\"values\":2}]}]}]}";
  WriteFileBytes(path, ForgeV1File(footer));
  CorcReader reader(path);
  const Status st = reader.Open();
  ASSERT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("stat type"), std::string::npos) << st;
}

TEST(CorcWriterTest, StringGroupsGetNumericBoundsOnlyWhenEveryValueParses) {
  // Groups of four strings: numeric bounds need every non-null value to
  // parse as a finite number; one value that does not keeps string bounds.
  const std::vector<std::vector<std::optional<std::string>>> groups = {
      {"10", "9", "-3.5", "1e2"},   // numeric: -3.5 .. 100
      {"7", std::nullopt, "-0", std::nullopt},  // numeric: -0 .. 7
      {"1", "2", "abc", "3"},
      {"1", "nan", "2", std::nullopt},
      {"inf", "1", "2", "3"},
      {"", "1", "2", "3"},
      {"12abc", "1", "2", "3"},
      {std::nullopt, std::nullopt, std::nullopt, std::nullopt},
  };
  for (const uint32_t version : {kCorcVersion, kCorcVersionV3}) {
    TempDir tmp;
    const std::string path = tmp.path("t.corc");
    Schema schema;
    schema.AddField("s", TypeKind::kString);
    CorcWriterOptions options;
    options.rows_per_group = 4;
    options.format_version = version;
    CorcWriter writer(path, schema, options);
    ASSERT_TRUE(writer.Open().ok());
    for (const auto& group : groups) {
      for (const std::optional<std::string>& cell : group) {
        ASSERT_TRUE(writer
                        .AppendRow({cell.has_value() ? Value::String(*cell)
                                                     : Value::Null()})
                        .ok());
      }
    }
    ASSERT_TRUE(writer.Close().ok());

    CorcReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    const auto& row_groups = reader.footer().stripes[0].columns[0].row_groups;
    ASSERT_EQ(row_groups.size(), groups.size());
    auto expect_bounds = [&](size_t g, const Value& min, const Value& max) {
      const ColumnStats& stats = row_groups[g].stats;
      EXPECT_EQ(stats.min.is_double(), min.is_double()) << "group " << g;
      EXPECT_EQ(stats.min.is_string(), min.is_string()) << "group " << g;
      EXPECT_EQ(stats.max.is_double(), max.is_double()) << "group " << g;
      EXPECT_EQ(stats.min.Compare(min), 0) << "group " << g;
      EXPECT_EQ(stats.max.Compare(max), 0) << "group " << g;
    };
    expect_bounds(0, Value::Double(-3.5), Value::Double(100));
    expect_bounds(1, Value::Double(0), Value::Double(7));
    expect_bounds(2, Value::String("1"), Value::String("abc"));
    expect_bounds(3, Value::String("1"), Value::String("nan"));
    expect_bounds(4, Value::String("1"), Value::String("inf"));
    expect_bounds(5, Value::String(""), Value::String("3"));
    expect_bounds(6, Value::String("1"), Value::String("3"));
    EXPECT_TRUE(row_groups[7].stats.min.is_null());
    EXPECT_TRUE(row_groups[7].stats.max.is_null());
    EXPECT_EQ(row_groups[1].stats.null_count, 2u);
    EXPECT_EQ(row_groups[1].stats.value_count, 4u);

    // The values themselves stay the written text.
    auto batch = reader.ReadAll(nullptr);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->column(0).GetString(3), "1e2");
    EXPECT_EQ(batch->column(0).GetString(6), "-0");
  }
}

TEST(CorcReaderTest, StringColumnStatPairsAreTwoStringsOrTwoNumbers) {
  auto open_with_bounds = [](const std::string& min, const std::string& max) {
    TempDir tmp;
    const std::string path = tmp.path("t.corc");
    const std::string footer =
        "{\"fields\":[{\"name\":\"s\",\"type\":3}],\"rows_per_group\":100,"
        "\"num_rows\":2,\"stripes\":[{\"num_rows\":2,\"columns\":[{"
        "\"row_groups\":[{\"offset\":5,\"length\":18,\"min\":" +
        min + ",\"max\":" + max + ",\"nulls\":0,\"values\":2}]}]}]}";
    WriteFileBytes(path, ForgeV1File(footer));
    CorcReader reader(path);
    Status st = reader.Open();
    Value reloaded_min;
    if (st.ok()) {
      reloaded_min = reader.footer().stripes[0].columns[0].row_groups[0]
                         .stats.min;
    }
    return std::make_pair(st, reloaded_min);
  };
  auto [numbers, min] = open_with_bounds("1", "2.5");
  ASSERT_TRUE(numbers.ok()) << numbers;
  EXPECT_TRUE(min.is_double());  // an integral bound reparses as Double
  EXPECT_TRUE(open_with_bounds("\"a\"", "\"b\"").first.ok());
  for (const auto& [lo, hi] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"abc\"", "5"}, {"5", "\"abc\""}, {"null", "5"},
           {"true", "false"}}) {
    const Status st = open_with_bounds(lo, hi).first;
    EXPECT_TRUE(st.IsCorruption()) << lo << " " << hi << ": " << st;
  }
}

TEST(CorcPropertyTest, CastPruningNeverDropsAMatchingStringGroup) {
  // String groups with numeric bounds prune `cast(s) op literal` through
  // the cast; a group with any row the residual filter would keep, under
  // CastToInt/CastToDouble and Value::Compare, must survive.
  Rng rng(2718);
  const char* words[] = {"abc", "", "nan", "1e400"};
  for (int iter = 0; iter < 20; ++iter) {
    TempDir tmp;
    const std::string path = tmp.path("t.corc");
    Schema schema;
    schema.AddField("s", TypeKind::kString);
    CorcWriterOptions options;
    options.rows_per_group = 4;
    CorcWriter writer(path, schema, options);
    ASSERT_TRUE(writer.Open().ok());
    std::vector<Value> values;
    const int rows = 20 + static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < rows; ++i) {
      Value v;
      if (rng.NextBool(0.05)) {
        v = Value::String(words[rng.NextBounded(4)]);
      } else if (!rng.NextBool(0.1)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3g",
                      static_cast<double>(rng.NextInt(-400, 400)) / 100.0);
        v = Value::String(buf);
      }
      ASSERT_TRUE(writer.AppendRow({v}).ok());
      values.push_back(std::move(v));
    }
    ASSERT_TRUE(writer.Close().ok());
    CorcReader reader(path);
    ASSERT_TRUE(reader.Open().ok());

    for (int q = 0; q < 12; ++q) {
      const SargOp op = static_cast<SargOp>(rng.NextBounded(6));
      const SargCast cast =
          rng.NextBool(0.5) ? SargCast::kToInt : SargCast::kToDouble;
      const Value literal =
          rng.NextBool(0.5)
              ? Value::Int64(rng.NextInt(-4, 4))
              : Value::Double(static_cast<double>(rng.NextInt(-40, 40)) / 10);
      SearchArgument sarg;
      sarg.AddLeaf(SargLeaf{"s", op, literal, cast});
      auto include = reader.ComputeRowGroupInclusion(0, sarg);
      ASSERT_TRUE(include.ok());
      for (size_t r = 0; r < values.size(); ++r) {
        const Value cast_value = cast == SargCast::kToInt
                                     ? CastToInt(values[r])
                                     : CastToDouble(values[r]);
        if (cast_value.is_null()) continue;
        const int cmp = cast_value.Compare(literal);
        const bool match = op == SargOp::kEq   ? cmp == 0
                           : op == SargOp::kNe ? cmp != 0
                           : op == SargOp::kLt ? cmp < 0
                           : op == SargOp::kLe ? cmp <= 0
                           : op == SargOp::kGt ? cmp > 0
                                               : cmp >= 0;
        if (match) {
          EXPECT_TRUE((*include)[r / 4])
              << "iter " << iter << " row " << r << " value "
              << values[r].ToString() << " op " << static_cast<int>(op)
              << " cast " << static_cast<int>(cast) << " literal "
              << literal.ToString();
        }
      }
    }
  }
}

TEST(CorcPropertyTest, PruningNeverDropsAMatchingRowGroup) {
  // Differential property over randomized data and predicates, for both
  // format versions: any row group containing a row that matches the
  // predicate (by Value::Compare, the same ordering pruning uses) must be
  // included by ComputeRowGroupInclusion. Inclusion may be conservative
  // (kMaybe on non-matching groups) but must never be wrong.
  Rng rng(314159);
  for (int iter = 0; iter < 20; ++iter) {
    TempDir tmp;
    const std::string path = tmp.path("t.corc");
    Schema schema;
    schema.AddField("v", TypeKind::kDouble);
    CorcWriterOptions options;
    options.rows_per_group = 4;
    options.format_version = iter % 2 ? kCorcVersionV3 : kCorcVersion;
    CorcWriter writer(path, schema, options);
    ASSERT_TRUE(writer.Open().ok());
    std::vector<Value> values;
    const int rows = 20 + static_cast<int>(rng.NextBounded(40));
    for (int i = 0; i < rows; ++i) {
      // Mostly integral doubles (the type-drift hazard), some large enough
      // that Int64 and Double renderings diverge, occasional nulls.
      Value v = rng.NextBool(0.1)
                    ? Value::Null()
                    : Value::Double(static_cast<double>(
                          rng.NextInt(-3, 3) * 1234567));
      ASSERT_TRUE(writer.AppendRow({v}).ok());
      values.push_back(std::move(v));
    }
    ASSERT_TRUE(writer.Close().ok());

    CorcReader reader(path);
    ASSERT_TRUE(reader.Open().ok());

    const SargOp ops[] = {SargOp::kEq, SargOp::kNe, SargOp::kLt,
                          SargOp::kLe, SargOp::kGt, SargOp::kGe};
    for (const SargOp op : ops) {
      // Literal drawn from the same distribution, as Double or as its
      // string rendering (the mixed-type comparison path).
      const Value base =
          Value::Double(static_cast<double>(rng.NextInt(-3, 3) * 1234567));
      const Value literal =
          rng.NextBool(0.5) ? base : Value::String(base.ToString());
      SearchArgument sarg;
      sarg.AddLeaf(SargLeaf{"v", op, literal});
      auto include = reader.ComputeRowGroupInclusion(0, sarg);
      ASSERT_TRUE(include.ok());
      for (size_t g = 0; g < include->size(); ++g) {
        bool group_has_match = false;
        for (size_t r = g * 4; r < std::min<size_t>((g + 1) * 4, values.size());
             ++r) {
          const Value& v = values[r];
          if (v.is_null()) continue;
          const int cmp = v.Compare(literal);
          bool match = false;
          switch (op) {
            case SargOp::kEq: match = cmp == 0; break;
            case SargOp::kNe: match = cmp != 0; break;
            case SargOp::kLt: match = cmp < 0; break;
            case SargOp::kLe: match = cmp <= 0; break;
            case SargOp::kGt: match = cmp > 0; break;
            case SargOp::kGe: match = cmp >= 0; break;
            default: break;
          }
          if (match) {
            group_has_match = true;
            break;
          }
        }
        if (group_has_match) {
          EXPECT_TRUE((*include)[g])
              << "iter " << iter << " op " << static_cast<int>(op)
              << " literal " << literal.ToString() << " group " << g;
        }
      }
    }
  }
}

}  // namespace
}  // namespace maxson::storage
