// Instrumentation overhead of the observability layer on a Fig.-12-style
// cached query (Q2): per-operator stats, metric publication, and — when
// enabled — the trace events computed from the operator records all run
// inside Execute(), so their cost must stay in the noise (<5% of query
// time). Executions alternate tracing off and on, and the gate is the
// median of the per-pair on/off ratios: a change in the host's speed moves
// both halves of a pair together, so it does not read as overhead.
//
// Writes BENCH_observability.json with the measured medians and the
// overhead of tracing on vs off.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "common/time_util.h"
#include "core/maxson.h"
#include "workload/query_templates.h"

using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;
using maxson::workload::BenchmarkQuery;

namespace {

/// Wall seconds of one execution of `sql`.
double ExecuteSeconds(MaxsonSession* session, const std::string& sql) {
  maxson::Stopwatch timer;
  auto result = session->Execute(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return timer.ElapsedSeconds();
}

void SetTracing(MaxsonSession* session, bool enabled) {
  maxson::core::SessionUpdate update;
  update.tracing = enabled;
  if (auto st = session->UpdateConfig(update); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(1);
  }
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  maxson::bench::PrintHeader(
      "Observability overhead — instrumented query time, tracing off vs on",
      "per-operator stats, metric publication and trace events must cost "
      "<5% of a Fig.-12-style cached query");

  maxson::bench::BenchWorkspace workspace("obs_overhead");
  maxson::catalog::Catalog catalog;
  maxson::workload::BenchmarkSuiteOptions suite;
  suite.bytes_per_table = 6ull << 20;
  suite.max_rows = 30000;
  auto all_queries = maxson::workload::MakeTableIIQueries(suite);
  std::vector<BenchmarkQuery> queries;
  for (auto& q : all_queries) {
    if (q.name == "Q2") queries.push_back(std::move(q));
  }
  if (auto st = maxson::workload::GenerateBenchmarkTables(
          queries, workspace.dir() + "/warehouse", suite, &catalog);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  maxson::obs::MetricsRegistry registry;
  MaxsonConfig config;
  config.cache_root = workspace.dir() + "/cache";
  config.engine.default_database = "bench";
  config.predictor.epochs = 6;
  config.metrics = &registry;
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
  if (auto report = session.RunMidnightCycle(14); !report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  const std::string& sql = queries[0].sql;
  const int kPairs = 31;
  for (int i = 0; i < 5; ++i) ExecuteSeconds(&session, sql);  // warm up

  // Each pair runs the query once with tracing off and once with it on,
  // in alternating order so neither side always runs second.
  std::vector<double> off, on, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double seconds[2];  // [tracing off, tracing on]
    for (int k = 0; k < 2; ++k) {
      const bool tracing = (pair + k) % 2 == 1;
      SetTracing(&session, tracing);
      seconds[tracing ? 1 : 0] = ExecuteSeconds(&session, sql);
    }
    off.push_back(seconds[0]);
    on.push_back(seconds[1]);
    ratios.push_back(seconds[1] / seconds[0]);
  }
  session.ClearTrace();
  const double off_s = Median(off);
  const double on_s = Median(on);

  const double overhead_pct = (Median(ratios) - 1.0) * 100.0;
  const bool pass = overhead_pct < 5.0;
  std::printf("Q2 cached, %d alternating pairs:\n", kPairs);
  std::printf("  metrics only (tracing off): %8.2f ms median\n", off_s * 1e3);
  std::printf("  metrics + trace events:     %8.2f ms median\n", on_s * 1e3);
  std::printf("  tracing overhead:           %+7.1f%%  median pair ratio "
              "(budget <5%%: %s)\n",
              overhead_pct, pass ? "PASS" : "FAIL");
  std::printf("  counter series published:   %zu\n",
              registry.CounterTotals().size());

  std::ofstream json("BENCH_observability.json", std::ios::trunc);
  json << "{\n  \"bench\": \"observability_overhead\",\n"
       << "  \"query\": \"Q2\",\n"
       << "  \"pairs\": " << kPairs << ",\n"
       << "  \"tracing_off_ms\": " << off_s * 1e3 << ",\n"
       << "  \"tracing_on_ms\": " << on_s * 1e3 << ",\n"
       << "  \"overhead_percent\": " << overhead_pct << ",\n"
       << "  \"budget_percent\": 5.0,\n"
       << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  json.close();
  std::printf("wrote BENCH_observability.json\n");
  return pass ? 0 : 1;
}
