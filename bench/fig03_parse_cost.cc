// Fig. 3: parsing and query processing cost in three common query types.
//
// Q1 is a simple SELECT retrieving two attributes from the JSON data, Q2 a
// COUNT with GROUP BY, Q3 a self-equijoin — run over Nobench-style JSON in
// the mini-engine with the paper's Spark+Jackson baseline (kDomPerCall: one
// full DOM parse per get_json_object call). The paper reports that parsing
// accounts for >= 80% of execution time in all three.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "engine/engine.h"
#include "workload/data_generator.h"

using maxson::engine::EngineConfig;
using maxson::engine::JsonBackend;
using maxson::engine::QueryEngine;
using maxson::engine::QueryResult;

int main() {
  maxson::bench::PrintHeader(
      "Fig. 3 — parsing vs query processing cost (Q1 select / Q2 "
      "group-by count / Q3 self-join)",
      "parsing JSON accounts for the majority (>= 80%) of execution time");

  maxson::bench::BenchWorkspace workspace("fig03");
  maxson::catalog::Catalog catalog;

  // Nobench-flavored table: moderately wide flat JSON records.
  maxson::workload::JsonTableSpec spec;
  spec.database = "nobench";
  spec.table = "data";
  spec.num_properties = 20;
  spec.avg_json_bytes = 800;
  spec.rows = 30000;
  spec.rows_per_file = 10000;
  auto table = maxson::workload::GenerateJsonTable(spec, workspace.dir(), 3,
                                                   &catalog);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  struct NamedQuery {
    const char* name;
    const char* description;
    std::string sql;
  };
  const NamedQuery queries[] = {
      {"Q1", "simple SELECT of two JSON attributes",
       "SELECT get_json_object(payload, '$.f1') AS a, "
       "get_json_object(payload, '$.f2') AS b FROM nobench.data"},
      {"Q2", "COUNT with GROUP BY",
       "SELECT get_json_object(payload, '$.f1') AS k, COUNT(*) AS n "
       "FROM nobench.data GROUP BY get_json_object(payload, '$.f1')"},
      {"Q3", "self-equijoin on a JSON attribute",
       "SELECT a.id FROM nobench.data a JOIN nobench.data b ON "
       "get_json_object(a.payload, '$.f0') = "
       "get_json_object(b.payload, '$.f0') "
       "WHERE to_int(get_json_object(a.payload, '$.f0')) < 3000"},
  };

  EngineConfig config;
  config.json_backend = JsonBackend::kDomPerCall;
  QueryEngine engine(&catalog, config);
  std::printf("%-4s %-40s %10s %10s %10s %8s\n", "", "query", "read(ms)",
              "parse(ms)", "compute(ms)", "parse%");
  bool all_dominated = true;
  for (const NamedQuery& q : queries) {
    auto result = engine.Execute(q.sql);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q.name,
                   result.status().ToString().c_str());
      return 1;
    }
    const auto& m = result->metrics;
    const double total = m.TotalSeconds();
    const double parse_share = total == 0 ? 0 : m.parse_seconds / total;
    std::printf("%-4s %-40s %10.1f %10.1f %10.1f %7.1f%%\n", q.name,
                q.description, m.read_seconds * 1e3, m.parse_seconds * 1e3,
                m.compute_seconds * 1e3, parse_share * 100);
    if (parse_share < 0.5) all_dominated = false;
  }
  std::printf("\nparsing dominates all three queries: %s "
              "(paper threshold: ~80%%)\n",
              all_dominated ? "YES" : "NO");
  return 0;
}
