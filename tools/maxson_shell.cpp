// maxson_shell: interactive driver for a Maxson warehouse.
//
// Usage:
//   maxson_shell --warehouse DIR [--cache DIR] [--registry FILE]
//                [--database NAME] [--mison]
//
// The warehouse directory is expected to contain a `catalog.json` (written
// by Catalog::Save) whose table locations point at CORC part-file
// directories. Lines starting with '.' are shell commands; anything else
// is executed as SQL.
//
//   .help                     command list
//   .tables                   list catalog tables
//   .train FIRST LAST         train the MPJP predictor on target days
//   .midnight DAY             run the predict -> score -> cache cycle
//   .cache                    show current cache registry entries
//   .stats                    session counter snapshot
//   .serve                    serving-layer snapshot (result cache, admission)
//   .metrics                  dump the metrics registry (Prometheus text)
//   .metrics on|off           toggle per-query metric printing
//   .trace FILE               write recorded spans as chrome-trace JSON
//   .quit
//
// Runtime knobs go through `set`, dispatched via one typed OptionRegistry
// (session knobs registered by core::RegisterSessionOptions route through
// UpdateConfig; serving knobs by serve::RegisterServeOptions):
//   set threads N | set trace on|off | set rawfilter on|off | set budget N
//   set isa scalar|sse2|avx2|auto
//   set faultinject fail:N|torn:N|short:N|off
//   set resultcache on|off | set maxinflight N | set maxqueue N
//
// SQL is served through a MaxsonServer (tenant "shell"), so admission
// control and the semantic result cache apply; the result cache starts off
// so interactive timings measure real executions until opted in.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/options.h"
#include "common/string_util.h"
#include "core/maxson.h"
#include "serve/server.h"

namespace {

using maxson::catalog::Catalog;
using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;

struct ShellOptions {
  std::string warehouse;
  std::string cache = "/tmp/maxson_shell_cache";
  std::string registry;
  std::string database = "default";
  bool mison = false;
  size_t threads = 1;  // 0 = hardware concurrency
};

void PrintHelp() {
  std::printf(
      ".help                this message\n"
      ".tables              list catalog tables\n"
      ".train FIRST LAST    train the MPJP predictor on target days\n"
      ".midnight DAY        run the nightly predict/score/cache cycle\n"
      ".cache               show cache registry entries\n"
      ".stats               session counter snapshot (rewrite cache,\n"
      "                     registry, pool, midnight cycles, tracing)\n"
      ".serve               serving-layer snapshot (result cache, admission)\n"
      ".metrics             dump the metrics registry (Prometheus text;\n"
      "                     *_seconds series are summed per-task CPU time,\n"
      "                     not wall time, under parallel execution)\n"
      ".metrics on|off      toggle per-query metrics\n"
      ".trace FILE          write recorded spans as chrome-trace JSON\n"
      ".threads N           resize the execution pool (0 = all cores)\n"
      "set threads N        same, SQL-flavored; also set trace on|off,\n"
      "                     set rawfilter on|off, set budget BYTES,\n"
      "                     set isa scalar|sse2|avx2|auto (SIMD level),\n"
      "                     set faultinject fail:N|torn:N|short:N|off\n"
      "set resultcache on|off  serve repeated SELECTs from the semantic\n"
      "                     result cache (off by default)\n"
      "set maxinflight N    admission: concurrent queries allowed\n"
      "set maxqueue N       admission: bounded wait queue beyond that\n"
      ".quit                exit\n"
      "anything else        executed as SQL (SELECT, EXPLAIN [ANALYZE])\n");
}

void PrintBatch(const maxson::storage::RecordBatch& batch, size_t max_rows) {
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    std::printf("%s%-18s", c ? " " : "", batch.schema().field(c).name.c_str());
  }
  std::printf("\n");
  const size_t n = std::min(batch.num_rows(), max_rows);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      std::printf("%s%-18s", c ? " " : "",
                  batch.column(c).GetValue(r).ToString().c_str());
    }
    std::printf("\n");
  }
  if (batch.num_rows() > n) {
    std::printf("... (%zu rows total)\n", batch.num_rows());
  }
}

int Run(const ShellOptions& options) {
  auto catalog = Catalog::Load(options.warehouse + "/catalog.json");
  if (!catalog.ok()) {
    std::fprintf(stderr, "cannot load catalog: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }
  MaxsonConfig config;
  config.cache_root = options.cache;
  config.registry_path = options.registry;
  config.engine.default_database = options.database;
  config.engine.json_backend = options.mison
                                   ? maxson::engine::JsonBackend::kMison
                                   : maxson::engine::JsonBackend::kDom;
  config.engine.num_threads = options.threads;
  MaxsonSession session(&*catalog, config);
  bool show_metrics = true;

  // SQL is served through the serving layer so its admission and
  // result-cache knobs are exercisable interactively. The result cache
  // starts off: interactive timings should measure real executions unless
  // the user opts in with `set resultcache on`.
  maxson::serve::ServeOptions serve_options;
  serve_options.enable_result_cache = false;
  maxson::serve::MaxsonServer server(&session, &*catalog, serve_options);
  maxson::serve::ClientSession client = server.Connect("shell");
  maxson::serve::TenantLimits shell_limits;

  // Every `set` knob dispatches through one typed registry: session knobs
  // route through UpdateConfig, serving knobs through the server. Parsing
  // and validation live with the registration, not in this loop.
  maxson::OptionRegistry knobs;
  maxson::core::RegisterSessionOptions(&knobs, &session);
  maxson::serve::RegisterServeOptions(&knobs, &server, "shell",
                                      &shell_limits);

  std::printf("maxson shell — %zu database(s); type .help for commands\n",
              catalog->ListDatabases().size());
  std::string line;
  while (true) {
    std::printf("maxson> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed(maxson::StripWhitespace(line));
    if (trimmed.empty()) continue;

    if (trimmed[0] == '.') {
      std::istringstream args(trimmed);
      std::string cmd;
      args >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        PrintHelp();
      } else if (cmd == ".tables") {
        for (const std::string& db : catalog->ListDatabases()) {
          for (const auto* table : catalog->ListTables(db)) {
            std::printf("  %-30s %s\n", table->QualifiedName().c_str(),
                        table->location.c_str());
          }
        }
      } else if (cmd == ".train") {
        int first = 0;
        int last = 0;
        if (!(args >> first >> last)) {
          std::printf("usage: .train FIRST LAST\n");
          continue;
        }
        auto st = session.TrainPredictor(first, last);
        std::printf("%s\n", st.ok() ? "trained" : st.ToString().c_str());
      } else if (cmd == ".midnight") {
        int day = 0;
        if (!(args >> day)) {
          std::printf("usage: .midnight DAY\n");
          continue;
        }
        auto report = session.RunMidnightCycle(day);
        if (!report.ok()) {
          std::printf("%s\n", report.status().ToString().c_str());
          continue;
        }
        std::printf("predicted %zu MPJPs, cached %zu (%.2fs)\n",
                    report->predicted_mpjps.size(), report->selected.size(),
                    report->caching.total_seconds);
      } else if (cmd == ".cache") {
        for (const auto& entry : session.registry().Snapshot()) {
          std::printf("  %-50s %s t=%lld %s\n", entry.location.Key().c_str(),
                      entry.cache_field.c_str(),
                      static_cast<long long>(entry.cache_time),
                      entry.valid ? "valid" : "INVALID");
        }
        if (session.registry().size() == 0) std::printf("  (empty)\n");
      } else if (cmd == ".stats") {
        const maxson::core::SessionStats stats = session.stats();
        std::printf(
            "rewrite cache:  %llu hits, %llu misses, %llu invalidations\n"
            "registry:       %llu entries; %llu lookups, %llu hits\n"
            "pool:           %zu threads, %llu tasks submitted\n"
            "midnight:       %llu cycles\n"
            "tracing:        %s (%llu events)\n"
            "simd:           isa=%s\n"
            "faultinject:    %s\n",
            static_cast<unsigned long long>(stats.rewrite_cache_hits),
            static_cast<unsigned long long>(stats.rewrite_cache_misses),
            static_cast<unsigned long long>(stats.rewrite_invalidations),
            static_cast<unsigned long long>(stats.registry_entries),
            static_cast<unsigned long long>(stats.registry_lookups),
            static_cast<unsigned long long>(stats.registry_lookup_hits),
            stats.num_threads,
            static_cast<unsigned long long>(stats.pool_tasks_submitted),
            static_cast<unsigned long long>(stats.midnight_cycles),
            stats.tracing_enabled ? "on" : "off",
            static_cast<unsigned long long>(stats.trace_events),
            stats.simd_isa.c_str(), stats.fault_injection.c_str());
      } else if (cmd == ".serve") {
        const auto cache_stats = server.result_cache_stats();
        const auto admission = server.admission_snapshot("shell");
        std::printf(
            "result cache:   %s; %llu hits, %llu misses, %llu invalidations, "
            "%llu evictions; %zu entries (%llu bytes)\n"
            "admission:      %zu in flight, %zu queued; %llu admitted, "
            "%llu rejected (limits: %zu in flight, %zu queued)\n",
            server.result_cache_enabled() ? "on" : "off",
            static_cast<unsigned long long>(cache_stats.hits),
            static_cast<unsigned long long>(cache_stats.misses),
            static_cast<unsigned long long>(cache_stats.invalidations),
            static_cast<unsigned long long>(cache_stats.evictions),
            cache_stats.entries,
            static_cast<unsigned long long>(cache_stats.bytes),
            admission.in_flight, admission.queued,
            static_cast<unsigned long long>(admission.admitted),
            static_cast<unsigned long long>(admission.rejected),
            shell_limits.max_in_flight, shell_limits.max_queue);
      } else if (cmd == ".metrics") {
        std::string mode;
        if (args >> mode) {
          show_metrics = mode != "off";
        } else {
          // *_seconds series sum per-task CPU time across workers, so with
          // N threads they exceed wall time; say so to avoid misreading.
          std::printf("# *_seconds = summed per-task CPU time (exceeds wall "
                      "time when threads > 1)\n%s",
                      session.metrics().RenderPrometheus().c_str());
        }
      } else if (cmd == ".trace") {
        std::string path;
        if (!(args >> path)) {
          std::printf("error: .trace expects a file path "
                      "(enable spans with `set trace on`)\n");
          continue;
        }
        std::ofstream out(path);
        if (!out) {
          std::printf("error: cannot open %s\n", path.c_str());
          continue;
        }
        out << session.tracer().ToChromeTraceJson();
        std::printf("wrote %zu span(s) to %s\n", session.tracer().size(),
                    path.c_str());
      } else if (cmd == ".threads") {
        size_t n = 0;
        if (!(args >> n)) {
          std::printf("threads: %zu\n", session.pool().num_threads());
          continue;
        }
        maxson::core::SessionUpdate update;
        update.num_threads = n;
        if (auto st = session.UpdateConfig(update); !st.ok()) {
          std::printf("%s\n", st.ToString().c_str());
          continue;
        }
        std::printf("threads: %zu\n", session.pool().num_threads());
      } else {
        std::printf("unknown command %s; try .help\n", cmd.c_str());
      }
      continue;
    }

    // `set KNOB VALUE` — SQL-flavored runtime configuration, dispatched
    // through the typed registry (typed parse errors, setter validation).
    if (trimmed.rfind("set ", 0) == 0 || trimmed.rfind("SET ", 0) == 0) {
      std::istringstream args(trimmed.substr(4));
      std::string knob;
      std::string value;
      args >> knob >> value;
      for (char& ch : knob) ch = static_cast<char>(std::tolower(ch));
      if (const auto st = knobs.Set(knob, value); !st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        if (knobs.Find(knob) == nullptr) {
          std::printf("usage: %s\n", knobs.Usage().c_str());
        }
      } else if (knob == "threads") {
        std::printf("threads: %zu\n", session.pool().num_threads());
      } else if (knob == "isa") {
        // Echo the dispatched level, which may differ from the request
        // ("auto" resolves to the startup policy's pick).
        std::printf("isa: %s\n", session.stats().simd_isa.c_str());
      } else {
        std::printf("%s = %s\n", knob.c_str(), value.c_str());
      }
      continue;
    }

    auto served = client.Execute(trimmed);
    if (!served.ok()) {
      std::printf("error: %s\n", served.status().ToString().c_str());
      continue;
    }
    PrintBatch(served->result.batch, 40);
    if (served->result_cache_hit) {
      // No execution happened; the per-query metrics below would be zeros.
      std::printf("(result cache hit)\n");
      continue;
    }
    if (show_metrics) {
      // read/parse/compute sum per-task CPU time across workers, so with
      // N threads they exceed wall time; label them cpu to avoid misreading.
      const auto& m = served->result.metrics;
      std::printf("[plan %.2fms | read(cpu) %.1fms | parse(cpu) %.1fms "
                  "(%llu records) | compute(cpu) %.1fms | %llu bytes read | "
                  "%llu shared skips]\n",
                  m.plan_seconds * 1e3, m.read_seconds * 1e3,
                  m.parse_seconds * 1e3,
                  static_cast<unsigned long long>(m.parse.records_parsed),
                  m.compute_seconds * 1e3,
                  static_cast<unsigned long long>(m.read.bytes_read),
                  static_cast<unsigned long long>(m.shared_skips));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ShellOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--warehouse") {
      if (const char* v = next()) options.warehouse = v;
    } else if (arg == "--cache") {
      if (const char* v = next()) options.cache = v;
    } else if (arg == "--registry") {
      if (const char* v = next()) options.registry = v;
    } else if (arg == "--database") {
      if (const char* v = next()) options.database = v;
    } else if (arg == "--mison") {
      options.mison = true;
    } else if (arg == "--threads") {
      if (const char* v = next()) options.threads = std::strtoul(v, nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: maxson_shell --warehouse DIR [--cache DIR] "
                  "[--registry FILE] [--database NAME] [--mison] "
                  "[--threads N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }
  if (options.warehouse.empty()) {
    std::fprintf(stderr,
                 "--warehouse is required (directory with catalog.json)\n");
    return 1;
  }
  return Run(options);
}
