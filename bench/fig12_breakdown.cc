// Fig. 12: runtime breakdown (Read / Parse / Compute) and input size for
// Q2 and Q9, Spark vs Maxson.
//
// Paper shape: Maxson eliminates the Parse step entirely by reading cached
// values, and because Q2/Q9 filter on JSON properties, pushing those
// predicates down into the cache table shrinks the input size well below
// the Spark baseline's.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "common/string_util.h"
#include "core/maxson.h"
#include "workload/query_templates.h"

using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;
using maxson::engine::JsonBackend;
using maxson::workload::BenchmarkQuery;

int main() {
  maxson::bench::PrintHeader(
      "Fig. 12 — Read/Parse/Compute breakdown and input size for Q2 and Q9",
      "Maxson removes the parse phase; JSON-predicate pushdown onto the "
      "cache table shrinks the input size");

  maxson::bench::BenchWorkspace workspace("fig12");
  maxson::catalog::Catalog catalog;
  maxson::workload::BenchmarkSuiteOptions suite;
  suite.bytes_per_table = 6ull << 20;
  suite.max_rows = 30000;
  auto all_queries = maxson::workload::MakeTableIIQueries(suite);

  // Only Q2 and Q9 are needed.
  std::vector<BenchmarkQuery> queries;
  for (auto& q : all_queries) {
    if (q.name == "Q2" || q.name == "Q9") queries.push_back(std::move(q));
  }
  if (auto st = maxson::workload::GenerateBenchmarkTables(
          queries, workspace.dir() + "/warehouse", suite, &catalog);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // The paper's Spark+Jackson engine: uncached paths parse once per call.
  MaxsonConfig config;
  config.cache_root = workspace.dir() + "/cache";
  config.engine.default_database = "bench";
  config.engine.json_backend = JsonBackend::kDomPerCall;
  config.predictor.epochs = 6;
  MaxsonSession session(&catalog, config);
  for (int day = 0; day < 14; ++day) {
    for (const BenchmarkQuery& q : queries) {
      for (int rep = 0; rep < 2; ++rep) {
        maxson::workload::QueryRecord record;
        record.date = day;
        record.paths = q.paths;
        session.RecordQuery(record);
      }
    }
  }
  if (auto st = session.TrainPredictor(8, 13); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto midnight = session.RunMidnightCycle(14);
  if (!midnight.ok()) {
    std::fprintf(stderr, "%s\n", midnight.status().ToString().c_str());
    return 1;
  }

  std::printf("%-6s %-8s %10s %10s %11s %14s %12s\n", "query", "system",
              "read(ms)", "parse(ms)", "compute(ms)", "input size",
              "rows read");
  for (const BenchmarkQuery& q : queries) {
    auto spark = session.ExecuteWithoutCache(q.sql);
    auto maxson_run = session.Execute(q.sql);
    if (!spark.ok() || !maxson_run.ok()) {
      std::fprintf(stderr, "%s failed\n", q.name.c_str());
      return 1;
    }
    const auto& sm = spark->metrics;
    const auto& mm = maxson_run->metrics;
    std::printf("%-6s %-8s %10.1f %10.1f %11.1f %14s %12llu\n",
                q.name.c_str(), "Spark", sm.read_seconds * 1e3,
                sm.parse_seconds * 1e3, sm.compute_seconds * 1e3,
                maxson::FormatBytes(sm.read.bytes_read).c_str(),
                static_cast<unsigned long long>(sm.read.rows_read));
    std::printf("%-6s %-8s %10.1f %10.1f %11.1f %14s %12llu\n",
                q.name.c_str(), "Maxson", mm.read_seconds * 1e3,
                mm.parse_seconds * 1e3, mm.compute_seconds * 1e3,
                maxson::FormatBytes(mm.read.bytes_read).c_str(),
                static_cast<unsigned long long>(mm.read.rows_read));
    std::printf("%-6s pushdown: shared row-group skips = %llu; "
                "input shrink = %.1fx; parse eliminated = %s; results match "
                "= %s\n\n",
                q.name.c_str(),
                static_cast<unsigned long long>(mm.shared_skips),
                mm.read.bytes_read == 0
                    ? 0.0
                    : static_cast<double>(sm.read.bytes_read) /
                          static_cast<double>(mm.read.bytes_read),
                mm.parse.records_parsed == 0 ? "YES" : "NO",
                spark->batch.num_rows() == maxson_run->batch.num_rows()
                    ? "YES"
                    : "NO");
  }
  return 0;
}
