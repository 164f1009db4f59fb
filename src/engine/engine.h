#ifndef MAXSON_ENGINE_ENGINE_H_
#define MAXSON_ENGINE_ENGINE_H_

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "engine/exec_context.h"
#include "engine/plan.h"
#include "engine/plan_validator.h"
#include "exec/thread_pool.h"
#include "json/json_path.h"
#include "xml/xml_path.h"

namespace maxson::exec {
class SharedScanManager;
}  // namespace maxson::exec

namespace maxson::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace maxson::obs

namespace maxson::engine {

/// Which JSON parser backs get_json_object, mirroring the paper's Fig. 15
/// configurations:
///   kDom        full DOM deserialization, once per record: the calls one
///               operator makes on one record share a single parse
///               (json::DocumentExtractor). The default.
///   kDomPerCall Spark+Jackson, the paper's baseline: one full DOM parse
///               per call, however many calls share a record.
///   kMison      Spark+Mison: structural-index projection, per path.
/// All three return byte-identical rows.
enum class JsonBackend { kDom, kDomPerCall, kMison };

struct EngineConfig {
  JsonBackend json_backend = JsonBackend::kDom;
  std::string default_database = "default";
  /// Sparser-style raw-byte prefiltering: equality predicates over
  /// get_json_object reject records by substring search before any parsing
  /// happens. Sound for standard-encoded JSON (see json/raw_filter.h);
  /// opt-in because exotic escape-encoded data could defeat the needle.
  bool enable_raw_filter = false;
  /// Parallelism degree of query execution (the paper's splits-across-
  /// executors model, in process): splits are scanned and row chunks are
  /// evaluated on this many threads. 0 = hardware concurrency; 1 runs
  /// everything inline on the calling thread (the pre-parallel behaviour).
  /// Results are byte-identical at every setting; see exec/thread_pool.h.
  size_t num_threads = 0;
  /// SIMD kernel level for the byte-scanning hot paths (structural index,
  /// DOM string scans, raw filter, CORC decode): "scalar", "sse2", "avx2",
  /// or ""/"auto" for the startup policy (MAXSON_FORCE_ISA env override,
  /// else the best level the CPU supports). Results are byte-identical at
  /// every level; see src/simd/kernels.h. Applied best-effort at engine
  /// construction — unknown names log a warning and keep the current level.
  std::string force_isa = "";
};

/// The mini analytical engine: SparkSQL's role in the paper. Parses SQL,
/// plans (optionally letting a PlanRewriter — Maxson — modify the plan),
/// and executes scan → [join] → filter → project/aggregate → sort → limit
/// over CORC tables registered in the catalog. Scans fan their splits and
/// the row-oriented operators fan fixed-size row chunks across the engine's
/// thread pool; per-chunk buffers are merged in chunk order so query
/// results do not depend on the thread count.
class QueryEngine {
 public:
  QueryEngine(const catalog::Catalog* catalog, EngineConfig config);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Installs Maxson's plan modifier; pass nullptr to remove. Not owned.
  void set_plan_rewriter(PlanRewriter* rewriter) { rewriter_ = rewriter; }

  /// Registry receiving this engine's per-query observability series
  /// (maxson_query_* counters and time histograms), published once per
  /// query after the merge barrier so counter totals are independent of the
  /// thread count — and the cross-query maxson_sharedscan_* counters the
  /// shared-scan manager publishes per scheduling event. Pass nullptr to
  /// disable. Not owned.
  void set_metrics_registry(obs::MetricsRegistry* registry);

  /// Installs the source of live cache bindings the PlanValidator checks
  /// CacheColumnRequests against (MaxsonSession wires this to its
  /// CacheRegistry snapshot). Pass an empty function to remove; without a
  /// source the binding-existence check is skipped.
  void set_cache_binding_source(CacheBindingSource source) {
    cache_binding_source_ = std::move(source);
  }

  /// Recorder receiving each execution's trace events: one per operator
  /// record (Scan, Filter, Aggregate, …) inside an "execute" event, all
  /// computed from the records when the execution ends. Pass nullptr to
  /// disable. Not owned.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }
  obs::TraceRecorder* tracer() const { return tracer_; }

  const catalog::Catalog* catalog() const { return catalog_; }
  const EngineConfig& config() const { return config_; }

  /// The pool executing this engine's parallel operators; shared with the
  /// midnight cacher through MaxsonSession so queries and cache population
  /// draw from one set of workers.
  const std::shared_ptr<exec::ThreadPool>& pool() const { return pool_; }

  /// Replaces the thread pool with one of degree `num_threads` (0 =
  /// hardware concurrency). Must not be called while a query is executing;
  /// holders of the previous pool (shared_ptr) keep it alive and usable.
  void set_num_threads(size_t num_threads);

  /// Toggles the Sparser-style raw-byte prefilter; consulted per query, so
  /// the change applies from the next Execute on. Same thread-safety
  /// contract as set_num_threads.
  void set_raw_filter(bool enabled) { config_.enable_raw_filter = enabled; }

  /// The shared-scan manager every scan of this engine subscribes to, so
  /// concurrent queries over one table coalesce into one parse pass per
  /// split (see exec/shared_scan.h). Exposed for stats and tests.
  exec::SharedScanManager* shared_scan_manager() const {
    return shared_scan_.get();
  }

  /// Installs the source of the cache-state stamp keying shared-scan
  /// groups (MaxsonSession wires this to CacheRegistry::version), so
  /// queries planned across an invalidation never coalesce. Pass an empty
  /// function to remove; without a source every query shares stamp 0 —
  /// only safe when nothing invalidates mid-flight.
  void set_scan_validity_source(std::function<uint64_t()> source) {
    scan_validity_source_ = std::move(source);
  }

  /// Parses and plans `sql` without executing (used by the Fig. 13 bench to
  /// time plan generation with and without Maxson).
  Result<PhysicalPlan> Plan(const std::string& sql);

  /// Plans then executes. Accepts SELECT and EXPLAIN [ANALYZE] SELECT; the
  /// EXPLAIN forms return the rendered plan tree as a one-column batch of
  /// text rows (ANALYZE executes the query first and annotates the tree
  /// with per-operator statistics, carrying the execution's metrics in the
  /// result).
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes an already-built plan under `ctx` (see exec_context.h for
  /// the fields; Execute() assembles the context from the engine's
  /// configuration). A default-constructed context runs the plan
  /// sequentially; its scans still subscribe to the engine's manager. The
  /// result's metrics carry the operator records and the read/parse/
  /// compute split computed from them, and the trace, when enabled, gets
  /// the execution's events; Execute() then stamps the plan time and
  /// publishes the metrics.
  Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                  const ExecContext& ctx);

 private:
  friend const ScalarFunction* LookupEngineFunction(const std::string& name,
                                                    void* hook);

  void RegisterBuiltinFunctions();

  /// Runs the PlanValidator over a freshly planned (possibly rewritten)
  /// plan, after Maxson's rewrite and before any execution; a violation
  /// bumps maxson_plan_validation_failures and fails the query with
  /// kInternal. `sql` keys the Release-build verdict cache (see
  /// validation_cache_); Debug builds re-validate every plan.
  Status ValidatePlanned(const PhysicalPlan& plan, const std::string& sql);

  /// Publishes one executed query's deterministic counters and measured
  /// time distributions to `metrics_registry_` (no-op when unset). Runs on
  /// the coordinating thread after all accumulators merged.
  void PublishMetrics(const QueryMetrics& metrics);

  /// Returns the parsed JSONPath for `text` from the shared cache,
  /// parsing and inserting on first sight; nullptr when the text is not a
  /// valid path. Thread-safe; the returned pointer stays valid for the
  /// engine's lifetime (unordered_map element references are stable).
  const json::JsonPath* CachedJsonPath(const std::string& text)
      MAXSON_EXCLUDES(path_cache_mutex_);
  const xml::XmlPath* CachedXmlPath(const std::string& text)
      MAXSON_EXCLUDES(path_cache_mutex_);

  const catalog::Catalog* catalog_;
  EngineConfig config_;
  PlanRewriter* rewriter_ = nullptr;
  CacheBindingSource cache_binding_source_;
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  std::shared_ptr<exec::ThreadPool> pool_;
  /// Coalesces concurrent scans into shared parse passes (see
  /// exec/shared_scan.h).
  std::unique_ptr<exec::SharedScanManager> shared_scan_;
  /// Cache-state stamp source for shared-scan group keys; see
  /// set_scan_validity_source.
  std::function<uint64_t()> scan_validity_source_;
  std::unordered_map<std::string, ScalarFunction> functions_;
  /// Caches of parsed path objects keyed by text, to keep path parsing out
  /// of the measured parse time. Shared across worker threads: lookups
  /// take the mutex shared, first-sight inserts take it exclusive — after
  /// the first few rows every access is a shared-lock read, so the hot
  /// extraction path sees no exclusive-lock contention.
  SharedMutex path_cache_mutex_;
  std::unordered_map<std::string, json::JsonPath> path_cache_
      MAXSON_GUARDED_BY(path_cache_mutex_);
  std::unordered_map<std::string, xml::XmlPath> xml_path_cache_
      MAXSON_GUARDED_BY(path_cache_mutex_);

  /// One remembered clean verdict: the rewriter and binding snapshot the
  /// validation ran under. Planning is deterministic given the SQL text,
  /// the catalog, the installed rewriter, and the registry state (the same
  /// assumption the Maxson rewrite cache rests on), so a query that
  /// validated clean stays clean until one of those inputs changes. The
  /// rewriter is compared by identity; the binding snapshot by pointer
  /// identity — the session rebuilds it only when the registry's version
  /// counter moves, and the shared_ptr held here keeps the old snapshot's
  /// address from being reused. Failures are never cached: a violation is
  /// re-proven (and re-counted) on every occurrence. Release builds only —
  /// Debug builds run the full validator on every plan.
  struct ValidationVerdict {
    const PlanRewriter* rewriter = nullptr;
    std::shared_ptr<const std::vector<CacheBinding>> bindings;
  };
  /// Hashes the length plus at most the first and last 32 bytes of the SQL
  /// text: the key is hashed on every Plan() call, and a full-string hash
  /// of a many-projection SELECT costs more than the verdict lookup it
  /// amortizes. Equality stays exact, so a collision costs one extra
  /// compare, never a wrong verdict.
  struct SqlKeyHash {
    size_t operator()(const std::string& sql) const {
      const size_t n = sql.size();
      const size_t span = std::min<size_t>(n, 32);
      const std::hash<std::string_view> hasher;
      const size_t head = hasher(std::string_view(sql.data(), span));
      const size_t tail =
          hasher(std::string_view(sql.data() + (n - span), span));
      return (head * 1315423911u) ^ tail ^ n;
    }
  };
  Mutex validation_cache_mutex_;
  std::unordered_map<std::string, ValidationVerdict, SqlKeyHash>
      validation_cache_ MAXSON_GUARDED_BY(validation_cache_mutex_);
};

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_ENGINE_H_
