#ifndef MAXSON_CORE_MAXSON_H_
#define MAXSON_CORE_MAXSON_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/options.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/cache_registry.h"
#include "core/cacher.h"
#include "core/collector.h"
#include "core/maxson_parser.h"
#include "core/predictor.h"
#include "core/scoring.h"
#include "engine/engine.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace maxson::core {

/// Top-level configuration of one Maxson deployment.
struct MaxsonConfig {
  std::string cache_root;  // directory holding cache tables
  /// When non-empty, the cache registry is loaded from this file at
  /// construction (if present) and saved after every midnight cycle, so
  /// cache state survives process restarts.
  std::string registry_path;
  uint64_t cache_budget_bytes = 64ull << 20;
  PredictorConfig predictor;
  engine::EngineConfig engine;
  /// Rows sampled per path when measuring B_j / P_j for the scoring
  /// function.
  size_t sample_rows = 200;
  /// When true, MPJPs are chosen randomly within the budget instead of by
  /// score (the Fig. 11 "random" baseline).
  bool random_selection = false;
  uint64_t random_seed = 5;
  /// Start recording trace spans (query stages, midnight cycle) right away;
  /// can also be toggled later through UpdateConfig.
  bool enable_tracing = false;
  /// Registry the session publishes its observability series into. Null
  /// uses the process-wide obs::MetricsRegistry::Global(); tests hand each
  /// session a private registry so runs can be compared in isolation. Not
  /// owned; must outlive the session.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one midnight cache-population cycle.
struct MidnightReport {
  std::vector<std::string> predicted_mpjps;
  std::vector<ScoredMpjp> selected;
  CachingStats caching;
};

/// One validated configuration change applied through
/// MaxsonSession::UpdateConfig. Unset fields keep their current value; the
/// whole update is validated before any field is applied, so a rejected
/// update leaves the session untouched.
struct SessionUpdate {
  /// Parallelism degree of queries and midnight pre-parsing (0 = hardware
  /// concurrency, 1 = inline). Replaces the execution pool.
  std::optional<size_t> num_threads;
  /// Toggles trace-span recording.
  std::optional<bool> tracing;
  /// Toggles the Sparser-style raw-byte prefilter.
  std::optional<bool> raw_filter;
  /// Cache budget (bytes) of the next midnight cycle (0 = cache nothing,
  /// the Fig. 11 zero-budget baseline).
  std::optional<uint64_t> cache_budget_bytes;
  /// SIMD kernel level of the byte-scanning hot paths: "scalar", "sse2",
  /// "avx2", or "auto" (startup policy: MAXSON_FORCE_ISA env override, else
  /// the best supported level). Levels the host CPU cannot run are rejected.
  /// Results are byte-identical at every level — this knob trades speed
  /// only, for debugging and A/B measurement.
  std::optional<std::string> isa;
  /// Arms the process-wide storage fault injector for crash-consistency
  /// testing: "fail:N", "torn:N", "short:N", or "off" (see
  /// storage::FaultInjector). Malformed specs are rejected.
  std::optional<std::string> fault_injection;
};

/// Read-only snapshot of the session's internal counters, for display
/// (the shell's `.stats`) and assertions.
struct SessionStats {
  uint64_t rewrite_cache_hits = 0;
  uint64_t rewrite_cache_misses = 0;
  uint64_t rewrite_invalidations = 0;
  uint64_t registry_entries = 0;
  uint64_t registry_lookups = 0;
  uint64_t registry_lookup_hits = 0;
  size_t num_threads = 0;
  uint64_t pool_tasks_submitted = 0;
  uint64_t midnight_cycles = 0;
  uint64_t trace_events = 0;
  bool tracing_enabled = false;
  /// Name of the SIMD kernel level currently dispatched ("scalar", "sse2",
  /// "avx2").
  std::string simd_isa;
  /// Canonical armed fault-injection spec, or "off".
  std::string fault_injection;
  /// Shared-scan lifetime totals (see exec/shared_scan.h): scheduling
  /// counters, not deterministic query outcomes.
  uint64_t sharedscan_subscribers = 0;
  uint64_t sharedscan_parse_passes = 0;
  uint64_t sharedscan_coalesced_parses = 0;
  uint64_t sharedscan_saved_bytes = 0;
};

/// The public facade tying Maxson's components together: a query engine
/// with the MaxsonParser installed, the collector feeding the predictor,
/// and the nightly predict -> score -> cache cycle of Fig. 5.
///
/// The surface is intent-named: callers record workload history
/// (RecordQuery/RecordTrace), run the nightly cycle, execute SQL, and
/// reconfigure through one validated UpdateConfig entry point. Component
/// access (collector(), registry(), parser(), predictor(), engine()) is
/// strictly read-only — every mutation of session state goes through a
/// session method, so invariants (shared pool, installed rewriter,
/// metrics publication) cannot be bypassed.
///
/// Typical use:
///   MaxsonSession session(&catalog, config);
///   session.RecordTrace(history);
///   session.TrainPredictor(first_day, last_day);
///   session.RunMidnightCycle(tomorrow);
///   auto result = session.Execute(sql);   // plans hit the cache
class MaxsonSession {
 public:
  MaxsonSession(const catalog::Catalog* catalog, MaxsonConfig config);

  // ---- Workload history (feeds the predictor and scoring) ----

  /// Records one executed query in the collector's statistics table.
  void RecordQuery(const workload::QueryRecord& query) {
    collector_.Record(query);
  }

  /// Records a whole trace of queries.
  void RecordTrace(const workload::Trace& trace) {
    collector_.RecordTrace(trace);
  }

  /// Trains the predictor on samples whose target days span
  /// [first_target_day, last_target_day].
  Status TrainPredictor(DateId first_target_day, DateId last_target_day);

  /// Predicts the MPJP keys of `target_day` from the recorded history.
  std::vector<std::string> PredictMpjps(DateId target_day) const {
    return predictor_->PredictMpjps(collector_, target_day);
  }

  /// Builds the scored candidate list for `target_day` from a given MPJP
  /// key set without caching (exposed for benchmarks and ablations).
  Result<std::vector<ScoredMpjp>> ScoreCandidates(
      const std::vector<std::string>& mpjp_keys, DateId target_day);

  // ---- Cache lifecycle ----

  /// The nightly cycle for `target_day`: predict the MPJPs the coming day
  /// will access, score them (Eq. 1-3) with sampled B_j/P_j, select within
  /// the budget, and pre-parse the winners into cache tables. Publishes
  /// maxson_midnight_* metrics to the session's registry.
  Result<MidnightReport> RunMidnightCycle(DateId target_day);

  /// Pre-parses an externally chosen selection into cache tables (the
  /// Fig. 11 sweep drives this directly, bypassing prediction), emptying
  /// the registry first like a midnight cycle does.
  Result<CachingStats> CacheSelected(const std::vector<ScoredMpjp>& selected,
                                     DateId cache_time);

  /// Installs externally built cache entries (tables already on disk) into
  /// the registry — the Fig. 15 bench shares one pre-parsed cache table
  /// across per-backend sessions this way.
  void ImportCacheEntries(const std::vector<CacheEntry>& entries) {
    for (const CacheEntry& entry : entries) registry_.Put(entry);
  }

  /// Marks one cached path invalid (raw table changed); the next rewrite
  /// seeing it falls back to raw parsing.
  void InvalidateCache(const workload::JsonPathLocation& location) {
    registry_.Invalidate(location);
  }

  // ---- Execution ----

  /// Executes SQL through the Maxson-rewriting engine. Accepts SELECT and
  /// EXPLAIN [ANALYZE] SELECT.
  Result<engine::QueryResult> Execute(const std::string& sql) {
    return engine_->Execute(sql);
  }

  /// Executes SQL with plan rewriting disabled (the plain-Spark baseline on
  /// the same engine), regardless of cache state.
  Result<engine::QueryResult> ExecuteWithoutCache(const std::string& sql);

  /// Plans without executing, with the Maxson rewrite applied.
  Result<engine::PhysicalPlan> Plan(const std::string& sql) {
    return engine_->Plan(sql);
  }

  /// Plans without executing and without the Maxson rewrite (the Fig. 13
  /// plan-time comparison baseline).
  Result<engine::PhysicalPlan> PlanWithoutCache(const std::string& sql);

  // ---- Configuration ----

  /// Applies a validated configuration change. The whole update is checked
  /// first (invalid values reject the entire update with no effect), then
  /// applied atomically from the caller's perspective. Not thread-safe
  /// against in-flight queries or midnight cycles.
  Status UpdateConfig(const SessionUpdate& update);

  const MaxsonConfig& config() const { return config_; }

  // ---- Read-only component views ----

  const JsonPathCollector& collector() const { return collector_; }
  const CacheRegistry& registry() const { return registry_; }
  const engine::QueryEngine& engine() const { return *engine_; }
  const MaxsonParser& parser() const { return *parser_; }
  const JsonPathPredictor& predictor() const { return *predictor_; }

  /// The shared execution pool (query scans, operators, and midnight
  /// pre-parsing all fan out on it).
  const exec::ThreadPool& pool() const { return *engine_->pool(); }

  /// The metrics registry this session publishes into (config.metrics, or
  /// the process-wide Global()). Mutable on purpose: the registry is an
  /// external sink, not session state.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// The session's trace recorder; dump with ToChromeTraceJson(). Enable
  /// recording through UpdateConfig{.tracing = true}.
  const obs::TraceRecorder& tracer() const { return trace_recorder_; }

  /// Drops all recorded trace events (recording stays on/off as is).
  void ClearTrace() { trace_recorder_.Clear(); }

  /// Snapshot of the session's internal counters.
  SessionStats stats() const;

 private:
  /// Flattened registry view for the plan validator, served from
  /// binding_cache_ and rebuilt only when the registry's version moved.
  /// Acquires CacheRegistry::mutex_ (via registry_.Snapshot) while holding
  /// binding_cache_mutex_ — the declared core-layer lock order.
  std::shared_ptr<const std::vector<engine::CacheBinding>>
  CacheBindingSnapshot() const MAXSON_EXCLUDES(binding_cache_mutex_);

  /// Publishes the dispatched SIMD level to the metrics registry: the
  /// maxson_simd_isa_level gauge (numeric level) and one
  /// maxson_simd_isa_info{isa=...} gauge per level (1 = active, 0 = not).
  void PublishIsaMetrics();

  const catalog::Catalog* catalog_;
  MaxsonConfig config_;
  obs::MetricsRegistry* metrics_;  // never null after construction
  obs::TraceRecorder trace_recorder_;
  JsonPathCollector collector_;
  CacheRegistry registry_;
  std::unique_ptr<JsonPathPredictor> predictor_;
  std::unique_ptr<MaxsonParser> parser_;
  std::unique_ptr<engine::QueryEngine> engine_;
  std::unique_ptr<JsonPathCacher> cacher_;
  uint64_t midnight_cycles_ = 0;
  /// Cached flattening of registry_ for the plan validator's binding
  /// checks, rebuilt only when registry_.version() moves past
  /// binding_cache_version_. Shared const so in-flight validations keep a
  /// consistent snapshot while a midnight cycle swaps in a fresh one.
  mutable Mutex binding_cache_mutex_;
  mutable std::shared_ptr<const std::vector<engine::CacheBinding>>
      binding_cache_ MAXSON_GUARDED_BY(binding_cache_mutex_);
  mutable uint64_t binding_cache_version_
      MAXSON_GUARDED_BY(binding_cache_mutex_) = ~0ull;
};

/// Registers the session's runtime knobs ("set KNOB VALUE") on `registry`:
/// threads, trace, rawfilter, budget, isa, faultinject. Every
/// setter routes through the one validated UpdateConfig entry point, so
/// registry-driven frontends (the shell) and programmatic callers share
/// identical validation. `session` must outlive the registry.
void RegisterSessionOptions(OptionRegistry* registry, MaxsonSession* session);

}  // namespace maxson::core

#endif  // MAXSON_CORE_MAXSON_H_
