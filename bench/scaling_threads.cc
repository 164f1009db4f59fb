// Thread-scaling curve of the parallel execution runtime: Q1–Q3 of the
// Table II suite at 1/2/4/8 threads, uncached (raw parsing is the work
// being parallelized), verifying byte-identical results at every degree.
//
// Each (query, threads) point is the median of five timed runs after one
// warm-up, with the runs' min and max alongside: one timing per point
// spread 25–45 ms between runs of one build.
//
// Writes BENCH_scaling.json with the curves. Speedups are only meaningful
// up to the machine's core count (reported in the JSON); on a single-core
// container every degree measures ~1x by construction.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "common/time_util.h"
#include "core/maxson.h"
#include "engine/fingerprint.h"
#include "workload/query_templates.h"

using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;
using maxson::workload::BenchmarkQuery;

int main() {
  maxson::bench::PrintHeader(
      "Thread scaling — Q1-Q3 wall time at 1/2/4/8 execution threads",
      "split- and chunk-parallel execution shortens the read+parse critical "
      "path while keeping results byte-identical");

  maxson::bench::BenchWorkspace workspace("scaling");
  maxson::catalog::Catalog catalog;
  maxson::workload::BenchmarkSuiteOptions suite;
  suite.bytes_per_table = 6ull << 20;
  suite.max_rows = 30000;
  // Several files per table so split parallelism has units to fan out.
  suite.rows_per_file = 5000;
  auto all_queries = maxson::workload::MakeTableIIQueries(suite);
  std::vector<BenchmarkQuery> queries;
  for (auto& q : all_queries) {
    if (q.name == "Q1" || q.name == "Q2" || q.name == "Q3") {
      queries.push_back(std::move(q));
    }
  }
  if (auto st = maxson::workload::GenerateBenchmarkTables(
          queries, workspace.dir() + "/warehouse", suite, &catalog);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  MaxsonConfig config;
  config.cache_root = workspace.dir() + "/cache";
  config.engine.default_database = "bench";
  config.engine.num_threads = 1;
  MaxsonSession session(&catalog, config);

  const unsigned cores = std::thread::hardware_concurrency();
  const std::vector<size_t> degrees = {1, 2, 4, 8};
  constexpr int kReps = 5;

  struct Point {
    size_t threads;
    double seconds;  // median of kReps
    double min_seconds;
    double max_seconds;
  };
  struct Curve {
    std::string name;
    std::vector<Point> points;
  };
  std::vector<Curve> curves;

  std::printf("machine: %u hardware thread(s)\n\n", cores);
  std::printf("%-6s %8s %12s %12s %12s %9s\n", "query", "threads",
              "median(ms)", "min(ms)", "max(ms)", "speedup");
  bool identical = true;
  for (const BenchmarkQuery& q : queries) {
    Curve curve;
    curve.name = q.name;
    std::string baseline_fp;
    double baseline_seconds = 0;
    for (const size_t threads : degrees) {
      maxson::core::SessionUpdate update;
      update.num_threads = threads;
      if (auto st = session.UpdateConfig(update); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      // Warmup (first run pays page-cache and speculation-training costs),
      // then the median of kReps.
      auto warm = session.Execute(q.sql);
      if (!warm.ok()) {
        std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                     warm.status().ToString().c_str());
        return 1;
      }
      // Cell-exact rendering (engine/fingerprint.h), so equal fingerprints
      // mean byte-identical results.
      const std::string fp = maxson::engine::FingerprintBatch(warm->batch);
      if (threads == 1) {
        baseline_fp = fp;
      } else if (fp != baseline_fp) {
        identical = false;
        std::fprintf(stderr, "%s: result diverged at %zu threads!\n",
                     q.name.c_str(), threads);
      }
      std::vector<double> runs;
      for (int rep = 0; rep < kReps; ++rep) {
        maxson::Stopwatch timer;
        auto result = session.Execute(q.sql);
        const double elapsed = timer.ElapsedSeconds();
        if (!result.ok()) {
          std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                       result.status().ToString().c_str());
          return 1;
        }
        runs.push_back(elapsed);
      }
      std::sort(runs.begin(), runs.end());
      const Point point{threads, runs[runs.size() / 2], runs.front(),
                        runs.back()};
      if (threads == 1) baseline_seconds = point.seconds;
      curve.points.push_back(point);
      std::printf("%-6s %8zu %12.2f %12.2f %12.2f %8.2fx\n", q.name.c_str(),
                  threads, point.seconds * 1e3, point.min_seconds * 1e3,
                  point.max_seconds * 1e3, baseline_seconds / point.seconds);
    }
    curves.push_back(std::move(curve));
  }
  std::printf("\nresults byte-identical across degrees: %s\n",
              identical ? "yes" : "NO");

  // Machine-readable curve for CI trend tracking.
  std::ofstream json("BENCH_scaling.json", std::ios::trunc);
  json << "{\n  \"bench\": \"scaling_threads\",\n";
  json << "  \"repetitions\": " << kReps << ",\n";
  json << "  \"hardware_concurrency\": " << cores << ",\n";
  json << "  \"results_identical\": " << (identical ? "true" : "false")
       << ",\n  \"queries\": [\n";
  for (size_t i = 0; i < curves.size(); ++i) {
    json << "    {\"name\": \"" << curves[i].name << "\", \"curve\": [";
    for (size_t p = 0; p < curves[i].points.size(); ++p) {
      const Point& point = curves[i].points[p];
      json << (p ? ", " : "") << "{\"threads\": " << point.threads
           << ", \"seconds\": " << point.seconds
           << ", \"min_seconds\": " << point.min_seconds
           << ", \"max_seconds\": " << point.max_seconds << ", \"speedup\": "
           << curves[i].points[0].seconds / point.seconds << "}";
    }
    json << "]}" << (i + 1 < curves.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote BENCH_scaling.json\n");
  return identical ? 0 : 1;
}
