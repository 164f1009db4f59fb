// End-to-end benchmark of the Maxson engine; README.md explains the
// workloads, the metrics and how to read the traced run.
//
//   maxson_perfbench --workload cold_scan|dashboard|daily_cycle --seed N
//       --seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE]
//       [--git-sha SHA] [--scale full|tiny|short_splits]
//       [--corrupt-reference]
//
// Runs one workload through MaxsonSession / MaxsonServer, checks every
// answer against an ExecuteWithoutCache reference, and prints one JSON line
// last: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when an answer is wrong, 2 when the run cannot finish.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "simd/isa.h"

#ifndef MAXSON_PERFBENCH_BUILD_TYPE
#define MAXSON_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using maxson::DateId;

// ---- options and host -------------------------------------------------------

Options ParseArgs(int argc, char** argv) {
  Options opt;
  opt.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Fatal("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload_name = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--scale") {
      if (SizingFor(value) == nullptr) Fatal("--scale full|tiny|short_splits");
      opt.scale = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (opt.workload_name == "cold_scan") {
    opt.workload = Workload::kColdScan;
  } else if (opt.workload_name == "dashboard") {
    opt.workload = Workload::kDashboard;
  } else if (opt.workload_name == "daily_cycle") {
    opt.workload = Workload::kDailyCycle;
  } else {
    Fatal("--workload cold_scan|dashboard|daily_cycle");
  }
  if (!(opt.seconds > 0)) Fatal("--seconds must be positive");
  if (opt.workdir.empty()) {
    opt.workdir = ".bench_work/" + opt.workload_name + "-" +
                  std::to_string(::getpid());
  }
  return opt;
}

std::string FilesystemName(const std::string& dir) {
  struct statfs info;
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0x858458f6UL: return "ramfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlay";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

std::string HostJson(const Options& opt) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"scale\":\"%s\",\"nproc\":%u,\"threads\":%zu,\"isa\":\"%s\","
      "\"build_type\":\"%s\",\"git_sha\":\"%s\",\"workspace_fs\":\"%s\"}",
      opt.workload_name.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.scale.c_str(),
      std::thread::hardware_concurrency(), opt.threads,
      maxson::simd::IsaName(maxson::simd::ActiveIsa()),
      MAXSON_PERFBENCH_BUILD_TYPE, opt.git_sha.c_str(),
      FilesystemName(opt.workdir).c_str());
  return buf;
}

/// Milliseconds of a fixed pointer chase through 8 MiB: a memory-bound
/// probe of the host, printed as a diagnostic only.
double HostProbeMs(int steps_log2) {
  const size_t n = (8u << 20) / sizeof(uint32_t);
  std::vector<uint32_t> next(n);
  for (size_t i = 0; i < n; ++i) next[i] = static_cast<uint32_t>(i);
  maxson::Rng rng(1);
  for (size_t i = n - 1; i > 0; --i) {  // Sattolo: one cycle over all slots
    std::swap(next[i], next[rng.NextBounded(i)]);
  }
  const auto start = Clock::now();
  uint32_t p = 0;
  for (uint64_t s = 0; s < (1ull << steps_log2); ++s) p = next[p];
  const double ms = SecondsSince(start) * 1e3;
  if (p == n) std::printf("unreachable\n");
  return ms;
}

// ---- timed requests -------------------------------------------------------

/// Executes one request on the session, records it, checks the answer.
void ExecuteOnSession(Bench* b, Deployment* dep, const Request& r, bool traced,
                      bool stale, Counts* counts) {
  Tracer* tracer = traced ? &b->tracer : nullptr;
  const int64_t id = b->next_request++;
  ScopedSpan request_span(tracer, "request", id);
  double ms = 0;
  auto result = [&] {
    ScopedSpan span(tracer, "engine.execute", id);
    const auto start = Clock::now();
    auto out = dep->session->Execute(r.sql);
    ms = SecondsSince(start) * 1e3;
    return out;
  }();
  b->rec.samples.push_back(Sample{r.tmpl, ms, false, traced, stale});
  ScopedSpan check_span(tracer, "checker.fingerprint", id);
  const bool ok = b->checker.Check(r.sql, result.status(),
                                   result.ok() ? &result->batch : nullptr);
  if (!ok) return;
  if (counts != nullptr) {
    counts->AddQuery(result->metrics);
    b->rec.counts_by_template[static_cast<size_t>(r.tmpl)].AddQuery(result->metrics);
  }
  if (stale) {
    ++b->rec.stale_requests;
    if (result->metrics.parse.records_parsed > 0) ++b->rec.stale_fallbacks;
  }
}

/// Whole rounds of the distinct requests, one client, until `seconds` pass
/// and at least `min_rounds` ran. In the traced run odd rounds are traced,
/// and round 1 is the count round whose work counts feed the per-layer
/// metrics.
void RunRounds(Bench* b, Deployment* dep, double seconds, int min_rounds) {
  if (b->opt.trace) min_rounds = std::max(min_rounds, 2);
  const auto start = Clock::now();
  for (int round = 0; round < min_rounds || SecondsSince(start) < seconds;
       ++round) {
    const bool traced = b->opt.trace && round % 2 == 1;
    const bool count_round = b->opt.trace && round == 1;
    const maxson::core::SessionStats before = dep->session->stats();
    for (const Request& r : b->distinct) {
      ExecuteOnSession(b, dep, r, traced, false,
                       count_round ? &b->rec.counts : nullptr);
    }
    if (count_round) {
      b->rec.counts.AddSessionDelta(before, dep->session->stats());
    }
  }
  b->rec.stream_seconds += SecondsSince(start);
}

/// daily_cycle: the round right after a load, on a stale cache.
void RunStaleRound(Bench* b, Deployment* dep) {
  const auto start = Clock::now();
  const maxson::core::SessionStats before = dep->session->stats();
  for (const Request& r : b->distinct) {
    ExecuteOnSession(b, dep, r, b->opt.trace, true, &b->rec.counts);
  }
  b->rec.counts.AddSessionDelta(before, dep->session->stats());
  b->rec.stream_seconds += SecondsSince(start);
}

/// dashboard: two closed-loop clients on one server tenant. Request i asks
/// template i % 10 with a Zipf(1) draw over its literal variants, so each
/// variant-0 request is popular and the other variants form the tail. In
/// the traced run blocks of 20 requests alternate untraced and traced.
void RunDashboardStream(Bench* b, Deployment* dep) {
  constexpr int kClients = 2;
  constexpr uint64_t kBlock = 20;
  const size_t templates = b->templates.size();
  const size_t variants = b->templates[0].variants.size();
  std::vector<double> cumulative;
  double total = 0;
  for (size_t v = 0; v < variants; ++v) {
    total += 1.0 / static_cast<double>(v + 1);
    cumulative.push_back(total);
  }
  std::vector<size_t> sequence(1 << 16);
  maxson::Rng rng(b->opt.seed);
  for (size_t i = 0; i < sequence.size(); ++i) {
    const double u = rng.NextDouble() * total;
    size_t v = 0;
    while (v + 1 < variants && u >= cumulative[v]) ++v;
    sequence[i] = (i % templates) * variants + v;
  }

  const maxson::core::SessionStats before = dep->session->stats();
  const auto cache_before = dep->server->result_cache_stats();
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<Counts> counts(kClients);
  std::vector<std::vector<Counts>> by_template(
      kClients, std::vector<Counts>(b->templates.size()));
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(b->opt.seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Tracer::SetLane(c + 1);
      maxson::serve::ClientSession client = dep->server->Connect("dashboard");
      while (true) {
        const uint64_t i = next.fetch_add(1);
        if (Clock::now() >= deadline) break;
        const Request& r = b->distinct[sequence[i % sequence.size()]];
        const bool traced = b->opt.trace && (i / kBlock) % 2 == 1;
        Tracer* tracer = traced ? &b->tracer : nullptr;
        const int64_t id = b->next_request++;
        ScopedSpan request_span(tracer, "request", id);
        double ms = 0;
        auto outcome = [&] {
          ScopedSpan span(tracer, "serve.execute", id);
          const auto t0 = Clock::now();
          auto out = client.Execute(r.sql);
          ms = SecondsSince(t0) * 1e3;
          return out;
        }();
        const bool hit = outcome.ok() && outcome->result_cache_hit;
        samples[static_cast<size_t>(c)].push_back(
            Sample{r.tmpl, ms, hit, traced, false});
        ScopedSpan check_span(tracer, "checker.fingerprint", id);
        const bool ok =
            b->checker.Check(r.sql, outcome.status(),
                             outcome.ok() ? &outcome->result.batch : nullptr);
        if (ok && !hit) {
          counts[static_cast<size_t>(c)].AddQuery(outcome->result.metrics);
          by_template[static_cast<size_t>(c)][static_cast<size_t>(r.tmpl)]
              .AddQuery(outcome->result.metrics);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  b->rec.stream_seconds = SecondsSince(start);
  for (int c = 0; c < kClients; ++c) {
    const auto& s = samples[static_cast<size_t>(c)];
    b->rec.samples.insert(b->rec.samples.end(), s.begin(), s.end());
    b->rec.counts.Add(counts[static_cast<size_t>(c)]);
    for (size_t t = 0; t < b->templates.size(); ++t) {
      b->rec.counts_by_template[t].Add(by_template[static_cast<size_t>(c)][t]);
    }
  }
  b->rec.counts.AddSessionDelta(before, dep->session->stats());
  const auto cache_after = dep->server->result_cache_stats();
  b->rec.result_cache_hits = cache_after.hits - cache_before.hits;
  b->rec.result_cache_misses = cache_after.misses - cache_before.misses;
}

/// One untimed pass over the distinct requests through the workload's
/// own request path; answers are checked, latencies dropped.
void WarmUp(Bench* b, Deployment* dep) {
  ScopedSpan span(b->tracing(), "warmup");
  if (dep->server != nullptr) {
    maxson::serve::ClientSession client = dep->server->Connect("dashboard");
    for (const Request& r : b->distinct) {
      auto outcome = client.Execute(r.sql);
      b->checker.Check(r.sql, outcome.status(),
                       outcome.ok() ? &outcome->result.batch : nullptr);
    }
    return;
  }
  for (const Request& r : b->distinct) {
    auto result = dep->session->Execute(r.sql);
    b->checker.Check(r.sql, result.status(),
                     result.ok() ? &result->batch : nullptr);
  }
}

// ---- workloads --------------------------------------------------------------

void RunColdScan(Bench* b, Deployment* dep) {
  RunRounds(b, dep, b->opt.seconds, b->sizing->min_rounds);
  if (b->opt.trace) {
    ReplayPlans(b, dep);  // on the empty cache the stream saw
    ReplayCanonicalize(b);
  }
  // The night that caches the day's work: train on the history, then run
  // full-budget cycles for the next day.
  for (DateId day = 0; day < kFirstDay; ++day) RecordDay(b, dep, day);
  TrainPredictor(b, dep);
  for (int n = 0; n < b->sizing->nights; ++n) {
    RunNight(b, dep, kFirstDay, /*in_setup=*/false);
  }
  if (b->opt.trace) {
    ReplayPredictScore(b, dep, kFirstDay);
    ReplayParsers(b, dep);
    ReplayDecode(b, dep);
  }
}

void RunDashboard(Bench* b, Deployment* dep) {
  RunDashboardStream(b, dep);
  if (b->opt.trace) {
    ReplayPlans(b, dep);
    ReplayCanonicalize(b);
    ReplayPredictScore(b, dep, kFirstDay);
    ReplayParsers(b, dep);
    ReplayDecode(b, dep);
  }
}

void RunDailyCycle(Bench* b, Deployment* dep) {
  const int days = b->sizing->days;
  for (int d = 0; d < days; ++d) {
    const DateId day = kFirstDay + d;
    RunRounds(b, dep, b->opt.seconds / days, 1);
    // The load stamps the tables past the cache's time, so last night's
    // cache is stale until tonight's cycle.
    AppendDay(b, dep, day + 1);
    ComputeReferences(b, dep);
    RunStaleRound(b, dep);
    RecordDay(b, dep, day);
    RunNight(b, dep, day + 1, /*in_setup=*/false);
  }
  if (b->opt.trace) {
    ReplayPlans(b, dep);
    ReplayCanonicalize(b);
    ReplayPredictScore(b, dep, kFirstDay + days);
    ReplayParsers(b, dep);
    ReplayDecode(b, dep);
  }
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latencies of the samples `keep` accepts, per template.
template <typename Keep>
std::vector<std::vector<double>> ByTemplate(const Bench& b, Keep keep) {
  std::vector<std::vector<double>> by_template(b.templates.size());
  for (const Sample& s : b.rec.samples) {
    if (keep(s)) by_template[static_cast<size_t>(s.tmpl)].push_back(s.ms);
  }
  return by_template;
}

/// Geometric mean over templates of each template's interquartile mean.
/// A mean follows the host's slow tails (a noisy phase raised dashboard's
/// mean up to 2.1x but not its median), and a median flips between the
/// host's speed modes when a run spends about half its time in each.
template <typename Keep>
double QueryGeomean(const Bench& b, Keep keep) {
  std::vector<double> centres;
  for (const auto& v : ByTemplate(b, keep)) {
    if (!v.empty()) centres.push_back(InterquartileMean(v));
  }
  return Geomean(centres);
}

/// Interquartile mean over every timed midnight cycle of the run, the
/// set-ups' included: cycle times jump between the host's speed modes, so
/// a median over daily_cycle's five nightly cycles alone flipped between
/// them from run to run.
double NightSeconds(const Bench& b) {
  std::vector<double> s;
  for (const Night& n : b.rec.nights) s.push_back(n.seconds);
  return InterquartileMean(s);
}

std::vector<Metric> EndToEndMetrics(const Bench& b, double peak_rss_mib) {
  auto all = [](const Sample&) { return true; };
  // p90 is taken per template: over the round-robin mix every decile would
  // sit on the edge between two templates' latency ranges.
  std::vector<double> p90s;
  for (const auto& v : ByTemplate(b, all)) p90s.push_back(Quantile(v, 0.9));
  return {
      {"setup_s", Median(b.rec.setup_s), "s"},
      {"query_geomean_ms", QueryGeomean(b, all), "ms"},
      {"request_p90_ms", Geomean(p90s), "ms"},
      {"throughput_qps",
       Ratio(static_cast<double>(b.rec.samples.size()), b.rec.stream_seconds), "1/s"},
      {"midnight_s", NightSeconds(b), "s"},
      {"cache_mib", b.rec.cache_mib, "MiB"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Bench& b) {
  const Record& rec = b.rec;
  const Replays& rp = rec.replays;
  const Counts& c = rec.counts;
  const double night_s = NightSeconds(b);
  const double replayed_s = rp.predict_ms / 1e3 + rp.score_s;
  std::vector<double> rows_per_s;
  for (const Night& n : rec.nights) {
    rows_per_s.push_back(Ratio(static_cast<double>(n.rows_parsed), n.seconds - replayed_s));
  }
  auto traced = [](const Sample& s) { return s.traced && !s.stale; };
  auto untraced = [](const Sample& s) { return !s.traced && !s.stale; };
  // Execute minus plan, per template, over the traced stream.
  const std::vector<std::vector<double>> traced_ms = ByTemplate(b, traced);
  std::vector<double> exec_ms;
  for (size_t t = 0; t < traced_ms.size(); ++t) {
    const double plan = t < rp.plan_ms_by_template.size() ? rp.plan_ms_by_template[t] : 0;
    exec_ms.push_back(std::max(InterquartileMean(traced_ms[t]) - plan, 1e-6));
  }
  std::vector<double> hit_ms;  // empty, so 0, where no server runs
  for (const Sample& s : rec.samples) {
    if (s.hit && s.traced) hit_ms.push_back(s.ms);
  }
  const auto& caching = rec.last_report.caching;
  return {
      {"workload.generate_s", Median(rec.generate_s) + Median(rec.load_s), "s"},
      {"ml.train_s", Median(rec.train_s), "s"},
      {"core.predict_ms", rp.predict_ms, "ms"},
      {"core.score_s", rp.score_s, "s"},
      {"core.cache_build_s", night_s - replayed_s, "s"},
      {"core.cache_rows_per_s", Median(rows_per_s), "rows/s"},
      {"storage.encoded_per_raw",
       Ratio(static_cast<double>(caching.corc_encoded_bytes), static_cast<double>(caching.corc_raw_bytes)),
       "ratio"},
      {"engine.plan_ms", rp.plan_ms, "ms"},
      {"core.rewrite_ms", rp.rewrite_ms, "ms"},
      {"engine.exec_ms", Geomean(exec_ms), "ms"},
      {"exec.tasks_per_query", Ratio(static_cast<double>(c.pool_tasks), static_cast<double>(c.requests)),
       "tasks/query"},
      {"exec.sharedscan_coalesced_ratio",
       Ratio(static_cast<double>(c.shared_coalesced), static_cast<double>(c.shared_passes + c.shared_coalesced)),
       "ratio"},
      {"json.parse_amplification",
       Ratio(static_cast<double>(c.bytes_parsed), static_cast<double>(c.bytes_read)), "ratio"},
      {"json.records_per_row",
       Ratio(static_cast<double>(c.records_parsed), static_cast<double>(c.rows_read)), "records/row"},
      {"json.dom_ns_per_record", rp.dom_ns, "ns/record"},
      {"json.ondemand_ns_per_record", rp.ondemand_ns, "ns/record"},
      {"json.mison_ns_per_record", rp.mison_ns, "ns/record"},
      {"storage.raw_decode_mib_s", rp.raw_decode_mib_s, "MiB/s"},
      {"storage.cache_decode_mib_s", rp.cache_decode_mib_s, "MiB/s"},
      {"storage.row_groups_skipped_ratio",
       Ratio(static_cast<double>(c.groups_skipped), static_cast<double>(c.groups_read + c.groups_skipped)),
       "ratio"},
      {"core.cache_columns_per_query",
       Ratio(static_cast<double>(c.cache_columns), static_cast<double>(c.requests)), "columns/query"},
      {"core.registry_hit_ratio",
       Ratio(static_cast<double>(c.registry_hits), static_cast<double>(c.registry_lookups)), "ratio"},
      {"core.stale_fallbacks",
       Ratio(static_cast<double>(rec.stale_fallbacks), static_cast<double>(rec.stale_requests)), "ratio"},
      {"serve.hit_ms", Median(hit_ms), "ms"},
      {"serve.canonicalize_us", rp.canonicalize_us, "us"},
      {"serve.result_cache_hit_ratio",
       Ratio(static_cast<double>(rec.result_cache_hits),
             static_cast<double>(rec.result_cache_hits + rec.result_cache_misses)),
       "ratio"},
      {"serve.rejected", static_cast<double>(b.checker.rejected()), "count"},
      {"obs.trace_overhead",
       Ratio(QueryGeomean(b, traced), QueryGeomean(b, untraced)), "ratio"},
  };
}

void PrintDiagnostics(const Bench& b, Deployment* dep) {
  double raw_mib = 0;
  for (size_t t = 0; t < b.templates.size(); ++t) {
    const auto& spec = b.templates[t].query.table_spec;
    raw_mib += static_cast<double>(dep->rows[t]) * spec.avg_json_bytes / (1 << 20);
  }
  std::printf("sizes: raw JSON %.2f MiB over %zu tables, cache %.3f MiB\n",
              raw_mib, b.templates.size(), b.rec.cache_mib);
  for (size_t t = 0; t < b.templates.size(); ++t) {
    const auto& q = b.templates[t].query;
    const Counts& c = b.rec.counts_by_template[t];
    std::vector<double> ms;
    for (const Sample& s : b.rec.samples) {
      if (s.tmpl == static_cast<int>(t)) ms.push_back(s.ms);
    }
    std::printf("  %-4s rows %6llu in %llu files  paths %2zu  requests %6zu"
                "  median %9.3f ms  iq mean %9.3f ms  parse amplification %6.2f\n",
                q.name.c_str(), static_cast<unsigned long long>(dep->rows[t]),
                static_cast<unsigned long long>(dep->next_file[t]),
                q.paths.size(), ms.size(), Median(ms), InterquartileMean(ms),
                Ratio(static_cast<double>(c.bytes_parsed),
                      static_cast<double>(c.bytes_read)));
  }
  std::printf("midnight cycles (s):");
  for (const Night& n : b.rec.nights) {
    std::printf(" %.3f%s", n.seconds, n.in_setup ? "(set-up)" : "");
  }
  std::printf("\n");
  const auto& caching = b.rec.last_report.caching;
  std::printf("last cycle: %zu predicted, %zu selected, %llu paths cached, "
              "%llu rows parsed, %llu bytes written\n",
              b.rec.last_report.predicted_mpjps.size(),
              b.rec.last_report.selected.size(),
              static_cast<unsigned long long>(caching.paths_cached),
              static_cast<unsigned long long>(caching.rows_parsed),
              static_cast<unsigned long long>(caching.bytes_written));
  if (b.opt.trace) {
    std::printf("span self time (traced blocks and replays):\n");
    for (const auto& [name, t] : b.tracer.Totals()) {
      std::printf("  %-28s count %7llu  total %10.2f ms  self %10.2f ms\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
  }
}

void PrintResult(const Bench& b, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += b.checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(b.checker.attempted());
  json += ", \"failed\": " + std::to_string(b.checker.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      Fatal(std::string("metric ") + metrics[i].name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(int argc, char** argv) {
  Bench b;
  b.opt = ParseArgs(argc, argv);
  b.sizing = SizingFor(b.opt.scale);
  b.templates = MakeTemplates(*b.sizing, b.opt.seed, &b.suite);
  b.rec.counts_by_template.resize(b.templates.size());
  for (size_t t = 0; t < b.templates.size(); ++t) {
    const size_t variants =
        b.opt.workload == Workload::kDashboard ? b.templates[t].variants.size() : 1;
    for (size_t v = 0; v < variants; ++v) {
      b.distinct.push_back(
          Request{static_cast<int>(t), b.templates[t].variants[v]});
    }
  }
  std::error_code ec;
  fs::remove_all(b.opt.workdir, ec);
  fs::create_directories(b.opt.workdir, ec);
  if (ec) Fatal("cannot create " + b.opt.workdir);
  struct WorkdirGuard {
    std::string dir;
    ~WorkdirGuard() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } guard{b.opt.workdir};

  const std::string host = HostJson(b.opt);
  std::printf("host %s\n", host.c_str());
  const double probe_before = HostProbeMs(b.sizing->probe_steps_log2);

  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < b.sizing->setups; ++rep) {
    dep.reset();
    dep = SetUp(&b, rep);
  }
  ComputeReferences(&b, dep.get());
  WarmUp(&b, dep.get());
  {
    ScopedSpan stream_span(b.tracing(), "run");
    switch (b.opt.workload) {
      case Workload::kColdScan: RunColdScan(&b, dep.get()); break;
      case Workload::kDashboard: RunDashboard(&b, dep.get()); break;
      case Workload::kDailyCycle: RunDailyCycle(&b, dep.get()); break;
    }
  }
  b.rec.cache_mib = static_cast<double>(DirectoryBytes(dep->session->config().cache_root)) / (1 << 20);
  const double probe_after = HostProbeMs(b.sizing->probe_steps_log2);
  std::printf("host_probe_ms before %.2f after %.2f\n", probe_before, probe_after);

  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  PrintDiagnostics(b, dep.get());
  if (b.opt.trace && !b.opt.trace_out.empty()) {
    if (!b.tracer.WriteChromeTrace(b.opt.trace_out, host)) {
      Fatal("cannot write " + b.opt.trace_out);
    }
    std::printf("trace written to %s\n", b.opt.trace_out.c_str());
  }
  dep.reset();
  std::printf("answers: %llu checked, %llu failed, %llu wrong, %llu rejected\n",
              static_cast<unsigned long long>(b.checker.attempted()),
              static_cast<unsigned long long>(b.checker.failed()),
              static_cast<unsigned long long>(b.checker.mismatches()),
              static_cast<unsigned long long>(b.checker.rejected()));
  PrintResult(b, b.opt.trace ? PerLayerMetrics(b) : EndToEndMetrics(b, peak_rss_mib));
  std::fflush(stdout);
  return b.checker.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
