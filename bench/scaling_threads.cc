// Thread-scaling curve of the parallel execution runtime: Q1–Q3 of the
// Table II suite at 1/2/4/8 threads, uncached (raw parsing is the work
// being parallelized), verifying byte-identical results at every degree.
//
// A second section measures scan sharing: K ∈ {1,2,4,8} clients send the
// same query to one session, first back to back (every request parses
// every split) and then all at once (concurrent scans coalesce into one
// parse pass per split — exec/shared_scan.h), again verifying
// byte-identical results and reporting the pass/coalesce counters that
// prove the sharing happened.
//
// Writes BENCH_scaling.json with both curves. Speedups are only meaningful
// up to the machine's core count (reported in the JSON); on a single-core
// container every degree measures ~1x by construction.

#include <atomic>
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
  constexpr int kReps = 3;

  struct Point {
    size_t threads;
    double seconds;
  };
  struct Curve {
    std::string name;
    std::vector<Point> points;
  };
  std::vector<Curve> curves;

  std::printf("machine: %u hardware thread(s)\n\n", cores);
  std::printf("%-6s %8s %12s %9s\n", "query", "threads", "wall(ms)",
              "speedup");
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
      // then best-of-kReps.
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
      double best = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        maxson::Stopwatch timer;
        auto result = session.Execute(q.sql);
        const double elapsed = timer.ElapsedSeconds();
        if (!result.ok()) {
          std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                       result.status().ToString().c_str());
          return 1;
        }
        if (elapsed < best) best = elapsed;
      }
      if (threads == 1) baseline_seconds = best;
      curve.points.push_back(Point{threads, best});
      std::printf("%-6s %8zu %12.2f %8.2fx\n", q.name.c_str(), threads,
                  best * 1e3, baseline_seconds / best);
    }
    curves.push_back(std::move(curve));
  }
  std::printf("\nresults byte-identical across degrees: %s\n",
              identical ? "yes" : "NO");

  // ---- Scan sharing: K clients, same query, serial vs concurrent ----
  // Serial: the K requests run back to back, so no two scans overlap and
  // every request parses every split. Concurrent: K threads fire at once
  // (spin barrier so they really overlap) and their scans coalesce into
  // one parse pass per split. Engine Execute is concurrency-safe (the
  // serving layer runs many tenants on one engine), so the bench drives
  // the session directly.
  const BenchmarkQuery& shared_query = queries.front();
  {
    maxson::core::SessionUpdate update;
    update.num_threads = 4;  // fixed pool degree; K is the swept variable
    if (auto st = session.UpdateConfig(update); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const std::string shared_fp_baseline = [&] {
    auto warm = session.Execute(shared_query.sql);
    return warm.ok() ? maxson::engine::FingerprintBatch(warm->batch)
                     : std::string();
  }();
  const auto matches_baseline = [&] {
    auto result = session.Execute(shared_query.sql);
    return result.ok() && maxson::engine::FingerprintBatch(result->batch) ==
                              shared_fp_baseline;
  };

  struct SharedPoint {
    size_t clients = 0;
    double serial_seconds = 0;
    double concurrent_seconds = 0;
    uint64_t parse_passes = 0;      // passes the concurrent batch executed
    uint64_t coalesced_parses = 0;  // registrations that joined a pass
  };
  std::vector<SharedPoint> shared_points;

  // Runs K requests back to back; returns the batch wall time.
  const auto run_serial = [&](size_t clients, bool* all_ok) -> double {
    bool ok = true;
    maxson::Stopwatch timer;
    for (size_t i = 0; i < clients; ++i) ok = matches_baseline() && ok;
    const double elapsed = timer.ElapsedSeconds();
    if (!ok) {
      std::fprintf(stderr,
                   "serial batch (%zu requests) failed or diverged from the "
                   "baseline result!\n",
                   clients);
      *all_ok = false;
    }
    return elapsed;
  };

  // Runs K requests at once, one thread each; returns the batch wall time.
  const auto run_concurrent = [&](size_t clients, bool* all_ok) -> double {
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t i = 0; i < clients; ++i) {
      workers.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        if (!matches_baseline()) ok.store(false);
      });
    }
    while (ready.load() < clients) {
    }
    maxson::Stopwatch timer;
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    const double elapsed = timer.ElapsedSeconds();
    if (!ok.load()) {
      std::fprintf(stderr,
                   "concurrent batch (%zu clients) failed or diverged from "
                   "the baseline result!\n",
                   clients);
      *all_ok = false;
    }
    return elapsed;
  };

  std::printf("\nscan sharing — %s, up to %zu clients (pool degree 4)\n",
              shared_query.name.c_str(), size_t{8});
  std::printf("%-8s %12s %14s %9s %8s %10s\n", "clients", "serial(ms)",
              "concurrent(ms)", "speedup", "passes", "coalesced");
  bool shared_ok = !shared_fp_baseline.empty();
  for (const size_t clients : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SharedPoint point;
    point.clients = clients;
    point.serial_seconds = run_serial(clients, &shared_ok);
    const maxson::core::SessionStats before = session.stats();
    point.concurrent_seconds = run_concurrent(clients, &shared_ok);
    const maxson::core::SessionStats after = session.stats();
    point.parse_passes =
        after.sharedscan_parse_passes - before.sharedscan_parse_passes;
    point.coalesced_parses =
        after.sharedscan_coalesced_parses - before.sharedscan_coalesced_parses;
    std::printf("%-8zu %12.2f %14.2f %8.2fx %8llu %10llu\n", clients,
                point.serial_seconds * 1e3, point.concurrent_seconds * 1e3,
                point.serial_seconds / point.concurrent_seconds,
                static_cast<unsigned long long>(point.parse_passes),
                static_cast<unsigned long long>(point.coalesced_parses));
    shared_points.push_back(point);
  }
  identical = identical && shared_ok;

  // Machine-readable curve for CI trend tracking.
  std::ofstream json("BENCH_scaling.json", std::ios::trunc);
  json << "{\n  \"bench\": \"scaling_threads\",\n";
  json << "  \"hardware_concurrency\": " << cores << ",\n";
  json << "  \"results_identical\": " << (identical ? "true" : "false")
       << ",\n  \"queries\": [\n";
  for (size_t i = 0; i < curves.size(); ++i) {
    json << "    {\"name\": \"" << curves[i].name << "\", \"curve\": [";
    for (size_t p = 0; p < curves[i].points.size(); ++p) {
      const Point& point = curves[i].points[p];
      json << (p ? ", " : "") << "{\"threads\": " << point.threads
           << ", \"seconds\": " << point.seconds << ", \"speedup\": "
           << curves[i].points[0].seconds / point.seconds << "}";
    }
    json << "]}" << (i + 1 < curves.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"shared_scan\": {\"query\": \"" << shared_query.name
       << "\", \"pool_threads\": 4, \"curve\": [\n";
  for (size_t p = 0; p < shared_points.size(); ++p) {
    const SharedPoint& point = shared_points[p];
    json << "    {\"clients\": " << point.clients
         << ", \"seconds_serial\": " << point.serial_seconds
         << ", \"seconds_concurrent\": " << point.concurrent_seconds
         << ", \"speedup\": "
         << point.serial_seconds / point.concurrent_seconds
         << ", \"parse_passes\": " << point.parse_passes
         << ", \"coalesced_parses\": " << point.coalesced_parses << "}"
         << (p + 1 < shared_points.size() ? "," : "") << "\n";
  }
  json << "  ]}\n}\n";
  json.close();
  std::printf("wrote BENCH_scaling.json\n");
  return identical ? 0 : 1;
}
