#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/time_util.h"
#include "engine/explain.h"
#include "engine/operator_timer.h"
#include "engine/planner.h"
#include "engine/sql_parser.h"
#include "engine/table_scan.h"
#include "exec/shared_scan.h"
#include "json/dom_parser.h"
#include "json/json_path.h"
#include "json/mison_parser.h"
#include "json/raw_filter.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "simd/isa.h"
#include "xml/xml_path.h"

namespace maxson::engine {

using storage::RecordBatch;
using storage::Schema;
using storage::TypeKind;
using storage::Value;

const ScalarFunction* LookupEngineFunction(const std::string& name,
                                           void* hook) {
  auto* engine = static_cast<QueryEngine*>(hook);
  auto it = engine->functions_.find(name);
  return it == engine->functions_.end() ? nullptr : &it->second;
}

QueryEngine::QueryEngine(const catalog::Catalog* catalog, EngineConfig config)
    : catalog_(catalog),
      config_(std::move(config)),
      pool_(std::make_shared<exec::ThreadPool>(config_.num_threads)),
      shared_scan_(std::make_unique<exec::SharedScanManager>()) {
  RegisterBuiltinFunctions();
  if (!config_.force_isa.empty() && config_.force_isa != "auto") {
    simd::Isa want;
    if (simd::ParseIsa(config_.force_isa, &want)) {
      simd::ForceIsa(want);
    } else {
      MAXSON_LOG(Warning) << "EngineConfig::force_isa ignores unknown level '"
                          << config_.force_isa << "'";
    }
  } else if (config_.force_isa == "auto") {
    simd::ResetIsa();
  }
}

QueryEngine::~QueryEngine() = default;

void QueryEngine::set_metrics_registry(obs::MetricsRegistry* registry) {
  metrics_registry_ = registry;
  // The shared-scan manager publishes its cross-query scheduling counters
  // to the same registry as the per-query series.
  shared_scan_->set_metrics_registry(registry);
}

void QueryEngine::set_num_threads(size_t num_threads) {
  config_.num_threads = num_threads;
  pool_ = std::make_shared<exec::ThreadPool>(num_threads);
}

const json::JsonPath* QueryEngine::CachedJsonPath(const std::string& text) {
  {
    SharedMutexLock lock(path_cache_mutex_);
    auto it = path_cache_.find(text);
    if (it != path_cache_.end()) return &it->second;
  }
  auto parsed = json::JsonPath::Parse(text);
  if (!parsed.ok()) return nullptr;
  WriterMutexLock lock(path_cache_mutex_);
  // Another worker may have inserted meanwhile; emplace keeps the first.
  return &path_cache_.emplace(text, std::move(*parsed)).first->second;
}

const xml::XmlPath* QueryEngine::CachedXmlPath(const std::string& text) {
  {
    SharedMutexLock lock(path_cache_mutex_);
    auto it = xml_path_cache_.find(text);
    if (it != xml_path_cache_.end()) return &it->second;
  }
  auto parsed = xml::XmlPath::Parse(text);
  if (!parsed.ok()) return nullptr;
  WriterMutexLock lock(path_cache_mutex_);
  return &xml_path_cache_.emplace(text, std::move(*parsed)).first->second;
}

void QueryEngine::RegisterBuiltinFunctions() {
  // get_json_object(json_string, json_path): the workhorse of the paper's
  // workload. Its wall time is attributed to the Parse phase, into the
  // calling worker's metrics accumulator, which also counts each document
  // parsed: once per record under kDom, once per call otherwise.
  functions_["get_json_object"] = [this](const std::vector<Value>& args,
                                         const EvalContext& ctx) -> Value {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Value::Null();
    }
    const std::string& text = args[0].is_string() ? args[0].string_value()
                                                  : args[0].ToString();
    const json::JsonPath* path = CachedJsonPath(args[1].string_value());
    if (path == nullptr) return Value::Null();

    Stopwatch timer;
    bool parsed = true;
    Result<std::string> extracted = [&]() -> Result<std::string> {
      if (config_.json_backend == JsonBackend::kMison) {
        if (ctx.mison != nullptr) return ctx.mison->Extract(text, *path);
        json::MisonParser mison;
        return mison.Extract(text, *path);
      }
      if (config_.json_backend == JsonBackend::kDom && ctx.dom != nullptr) {
        Result<std::string> value = ctx.dom->Extract(text, *path);
        parsed = ctx.dom->parsed();
        return value;
      }
      return json::GetJsonObject(text, *path);
    }();
    if (ctx.metrics != nullptr) {
      ctx.metrics->parse_seconds += timer.ElapsedSeconds();
      if (parsed) {
        ++ctx.metrics->parse.records_parsed;
        ctx.metrics->parse.bytes_parsed += text.size();
      }
    }
    if (!extracted.ok()) return Value::Null();
    return Value::String(std::move(*extracted));
  };

  // get_xml_object(xml_string, xpath): the XML counterpart the paper names
  // as future work; same contract as get_json_object (NULL on missing).
  functions_["get_xml_object"] = [this](const std::vector<Value>& args,
                                        const EvalContext& ctx) -> Value {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Value::Null();
    }
    const std::string& text = args[0].is_string() ? args[0].string_value()
                                                  : args[0].ToString();
    const xml::XmlPath* xpath = CachedXmlPath(args[1].string_value());
    if (xpath == nullptr) return Value::Null();
    Stopwatch timer;
    Result<std::string> extracted = xml::GetXmlObject(text, *xpath);
    if (ctx.metrics != nullptr) {
      ctx.metrics->parse_seconds += timer.ElapsedSeconds();
      ++ctx.metrics->parse.records_parsed;
      ctx.metrics->parse.bytes_parsed += text.size();
    }
    if (!extracted.ok()) return Value::Null();
    return Value::String(std::move(*extracted));
  };

  functions_["length"] = [](const std::vector<Value>& args,
                            const EvalContext&) -> Value {
    if (args.size() != 1 || args[0].is_null()) return Value::Null();
    return Value::Int64(static_cast<int64_t>(args[0].ToString().size()));
  };
  functions_["lower"] = [](const std::vector<Value>& args,
                           const EvalContext&) -> Value {
    if (args.size() != 1 || args[0].is_null()) return Value::Null();
    return Value::String(ToLower(args[0].ToString()));
  };
  functions_["concat"] = [](const std::vector<Value>& args,
                            const EvalContext&) -> Value {
    std::string out;
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      out += v.ToString();
    }
    return Value::String(std::move(out));
  };
  functions_["coalesce"] = [](const std::vector<Value>& args,
                              const EvalContext&) -> Value {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  };
  // SQL LIKE with % (any run) and _ (any char) wildcards.
  functions_["like"] = [](const std::vector<Value>& args,
                          const EvalContext&) -> Value {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Value::Null();
    }
    const std::string subject = args[0].ToString();
    const std::string& pattern = args[1].ToString();
    // Iterative glob match with backtracking on the last '%'.
    size_t s = 0;
    size_t p = 0;
    size_t star_p = std::string::npos;
    size_t star_s = 0;
    while (s < subject.size()) {
      if (p < pattern.size() &&
          (pattern[p] == '_' || pattern[p] == subject[s])) {
        ++s;
        ++p;
      } else if (p < pattern.size() && pattern[p] == '%') {
        star_p = p++;
        star_s = s;
      } else if (star_p != std::string::npos) {
        p = star_p + 1;
        s = ++star_s;
      } else {
        return Value::Bool(false);
      }
    }
    while (p < pattern.size() && pattern[p] == '%') ++p;
    return Value::Bool(p == pattern.size());
  };
  // Membership test backing the SQL IN list: args[0] IN args[1..].
  functions_["in"] = [](const std::vector<Value>& args,
                        const EvalContext&) -> Value {
    if (args.empty() || args[0].is_null()) return Value::Null();
    for (size_t i = 1; i < args.size(); ++i) {
      if (!args[i].is_null() && args[0].Compare(args[i]) == 0) {
        return Value::Bool(true);
      }
    }
    return Value::Bool(false);
  };
  // cast helpers used by benches to force numeric comparisons.
  // SARG evaluation applies the same casts to row-group bounds.
  functions_["to_double"] = [](const std::vector<Value>& args,
                               const EvalContext&) -> Value {
    return args.size() == 1 ? storage::CastToDouble(args[0]) : Value::Null();
  };
  functions_["to_int"] = [](const std::vector<Value>& args,
                            const EvalContext&) -> Value {
    return args.size() == 1 ? storage::CastToInt(args[0]) : Value::Null();
  };
}

Status QueryEngine::ValidatePlanned(const PhysicalPlan& plan,
                                    [[maybe_unused]] const std::string& sql) {
  std::shared_ptr<const std::vector<CacheBinding>> bindings;
  if (cache_binding_source_) bindings = cache_binding_source_();
#ifdef NDEBUG
  // Clean verdicts are remembered per SQL text so steady-state planning
  // (the fig13 plan-time loop, dashboards re-issuing the same query) pays
  // the full walk once per (rewriter, registry snapshot) state, not per
  // plan. See ValidationVerdict for the determinism argument.
  {
    MutexLock lock(validation_cache_mutex_);
    auto it = validation_cache_.find(sql);
    if (it != validation_cache_.end() && it->second.rewriter == rewriter_ &&
        it->second.bindings == bindings) {
      return Status::Ok();
    }
  }
#endif
  Status status = ValidatePlan(plan, bindings.get());
  if (!status.ok()) {
    if (metrics_registry_ != nullptr) {
      metrics_registry_->GetCounter(obs::kPlanValidationFailures)
          ->Increment();
    }
    return status;
  }
#ifdef NDEBUG
  MutexLock lock(validation_cache_mutex_);
  // Unbounded growth guard; a full reset is fine — verdicts re-prove in
  // one validation each.
  if (validation_cache_.size() >= 1024) validation_cache_.clear();
  validation_cache_[sql] = ValidationVerdict{rewriter_, std::move(bindings)};
#endif
  return status;
}

Result<PhysicalPlan> QueryEngine::Plan(const std::string& sql) {
  MAXSON_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  Planner planner(catalog_, config_.default_database);
  MAXSON_ASSIGN_OR_RETURN(PhysicalPlan plan, planner.Plan(stmt, rewriter_));
  MAXSON_RETURN_NOT_OK(ValidatePlanned(plan, sql));
  return plan;
}

namespace {

/// Wraps rendered plan lines as a one-column batch so EXPLAIN output flows
/// through the same display path as query results.
RecordBatch PlanTextBatch(const std::vector<std::string>& lines) {
  Schema schema;
  schema.AddField("plan", TypeKind::kString);
  RecordBatch batch(schema);
  for (const std::string& line : lines) {
    batch.AppendRow({Value::String(line)});
  }
  return batch;
}

}  // namespace

Result<QueryResult> QueryEngine::Execute(const std::string& sql) {
  MAXSON_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  Stopwatch plan_timer;
  Planner planner(catalog_, config_.default_database);
  MAXSON_ASSIGN_OR_RETURN(PhysicalPlan plan,
                          planner.Plan(stmt.select, rewriter_));
  MAXSON_RETURN_NOT_OK(ValidatePlanned(plan, sql));
  const double plan_seconds = plan_timer.ElapsedSeconds();

  if (stmt.kind == StatementKind::kExplain) {
    QueryResult result;
    result.metrics.plan_seconds = plan_seconds;
    result.metrics.plan_cache_hits = plan.rewrite_cache_hits;
    result.metrics.plan_cache_misses = plan.rewrite_cache_misses;
    result.metrics.plan_cache_fallbacks = plan.rewrite_cache_fallbacks;
    result.batch = PlanTextBatch(RenderPlanTree(plan, nullptr));
    return result;
  }

  // Gather the engine-level execution state into one context (satellites
  // of the engine config land here instead of new ExecutePlan parameters).
  ExecContext exec_ctx;
  exec_ctx.pool = pool_.get();
  exec_ctx.scan_validity = scan_validity_source_ ? scan_validity_source_() : 0;
  MAXSON_ASSIGN_OR_RETURN(QueryResult executed, ExecutePlan(plan, exec_ctx));
  executed.metrics.plan_seconds = plan_seconds;
  PublishMetrics(executed.metrics);
  if (stmt.kind == StatementKind::kExplainAnalyze) {
    QueryResult result;
    result.metrics = executed.metrics;
    result.batch = PlanTextBatch(RenderPlanTree(plan, &executed.metrics));
    return result;
  }
  return executed;
}

void QueryEngine::PublishMetrics(const QueryMetrics& metrics) {
  if (metrics_registry_ == nullptr) return;
  obs::MetricsRegistry& reg = *metrics_registry_;
  reg.GetCounter(obs::kQueriesTotal)->Increment();
  reg.GetCounter(obs::kQueryRowsRead)
      ->Increment(metrics.read.rows_read);
  reg.GetCounter(obs::kQueryBytesRead)
      ->Increment(metrics.read.bytes_read);
  reg.GetCounter(obs::kQueryRowGroupsRead)
      ->Increment(metrics.read.row_groups_read);
  reg.GetCounter(obs::kQueryRowGroupsSkipped)
      ->Increment(metrics.read.row_groups_skipped);
  reg.GetCounter(obs::kQuerySharedSkips)
      ->Increment(metrics.shared_skips);
  reg.GetCounter(obs::kQueryRecordsParsed)
      ->Increment(metrics.parse.records_parsed);
  reg.GetCounter(obs::kQueryBytesParsed)
      ->Increment(metrics.parse.bytes_parsed);
  reg.GetCounter(obs::kQueryCacheColumnsRead)
      ->Increment(metrics.cache_columns_read);
  reg.GetCounter(obs::kQueryRawFilteredRows)
      ->Increment(metrics.raw_filtered_rows);
  reg.GetCounter(obs::kCacheCorruption)
      ->Increment(metrics.cache_corruption_fallbacks);
  reg.GetCounter(obs::kPlanCacheHits)
      ->Increment(metrics.plan_cache_hits);
  reg.GetCounter(obs::kPlanCacheMisses)
      ->Increment(metrics.plan_cache_misses);
  reg.GetCounter(obs::kPlanCacheFallbacks)
      ->Increment(metrics.plan_cache_fallbacks);
  // Time distributions: measured, so histograms — excluded from the
  // determinism comparison (CounterTotals reports counters only).
  const std::vector<double> bounds = obs::Histogram::DefaultSecondsBounds();
  reg.GetHistogram(obs::kQueryPlanSeconds, bounds)
      ->Observe(metrics.plan_seconds);
  reg.GetHistogram(obs::kQueryReadSeconds, bounds)
      ->Observe(metrics.read_seconds);
  reg.GetHistogram(obs::kQueryParseSeconds, bounds)
      ->Observe(metrics.parse_seconds);
  reg.GetHistogram(obs::kQueryComputeSeconds, bounds)
      ->Observe(metrics.compute_seconds);
}

namespace {

/// Serialized grouping key: values rendered with a type tag and separator so
/// distinct tuples never collide. Numbers key exactly: a double equal to an
/// int64 keys as that integer (2 and 2.0 group together, and so do -0.0 and
/// 0), any other double by its round-trip %.17g rendering.
std::string GroupKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    if (v.is_null()) {
      key += "\x01N";
    } else if (v.is_string()) {
      key += "\x01S" + v.string_value();
    } else if (v.is_double()) {
      const double d = v.double_value();
      if (std::trunc(d) == d && d >= -0x1p63 && d < 0x1p63) {
        key += "\x01V" + std::to_string(static_cast<int64_t>(d));
      } else {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", d);
        key += "\x01V";
        key += buffer;
      }
    } else {
      key += "\x01V" + v.ToString();
    }
    key += '\x02';
  }
  return key;
}

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  Value min;
  Value max;
  bool has_value = false;

  void Update(const Value& v) {
    if (v.is_null()) return;
    ++count;
    sum += v.AsDouble();
    if (!has_value || v.Compare(min) < 0) min = v;
    if (!has_value || v.Compare(max) > 0) max = v;
    has_value = true;
  }

  /// Folds a chunk-partial state into this one (parallel aggregation);
  /// merge order is fixed by chunk index, so SUM/AVG stay deterministic.
  void Merge(const AggState& other) {
    count += other.count;
    sum += other.sum;
    if (!other.has_value) return;
    if (!has_value) {
      min = other.min;
      max = other.max;
      has_value = true;
      return;
    }
    // COUNT(*) states carry null min/max (Update never ran); guard them.
    if (!other.min.is_null() &&
        (min.is_null() || other.min.Compare(min) < 0)) {
      min = other.min;
    }
    if (!other.max.is_null() &&
        (max.is_null() || other.max.Compare(max) > 0)) {
      max = other.max;
    }
  }

  Value Finish(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount:
        return Value::Int64(count);
      case AggKind::kSum:
        return has_value ? Value::Double(sum) : Value::Null();
      case AggKind::kAvg:
        return has_value ? Value::Double(sum / static_cast<double>(count))
                         : Value::Null();
      case AggKind::kMin:
        return has_value ? min : Value::Null();
      case AggKind::kMax:
        return has_value ? max : Value::Null();
    }
    return Value::Null();
  }
};

/// Records one execution's trace, computed from its operator records: an
/// event per record, with the record's name, start and wall time, inside an
/// "execute" event that ends with the last operator.
void RecordTrace(obs::TraceRecorder* tracer, MonotonicTime start,
                 const QueryMetrics& metrics) {
  if (tracer == nullptr || !tracer->enabled()) return;
  auto micros = [](double seconds) {
    return static_cast<uint64_t>(std::llround(seconds * 1e6));
  };
  const uint64_t start_us = tracer->MicrosAt(start);
  double end_seconds = 0;
  for (const OperatorStats& op : metrics.operators) {
    tracer->Record({.name = op.name,
                    .category = "query",
                    .start_us = start_us + micros(op.start_seconds),
                    .duration_us = micros(op.wall_seconds)});
    end_seconds = std::max(end_seconds, op.start_seconds + op.wall_seconds);
  }
  tracer->Record({.name = "execute",
                  .category = "query",
                  .start_us = start_us,
                  .duration_us = micros(end_seconds)});
}

}  // namespace

Result<QueryResult> QueryEngine::ExecutePlan(const PhysicalPlan& plan,
                                             const ExecContext& exec_ctx) {
  const MonotonicTime start = MonotonicNow();
  QueryResult result;
  QueryMetrics& metrics = result.metrics;
  // Plan-time cache accounting rides into the runtime metrics so EXPLAIN
  // ANALYZE and the registry see it alongside the execution counters.
  metrics.plan_cache_hits = plan.rewrite_cache_hits;
  metrics.plan_cache_misses = plan.rewrite_cache_misses;
  metrics.plan_cache_fallbacks = plan.rewrite_cache_fallbacks;
  exec::ThreadPool* pool = exec_ctx.pool;

  // Context of the sequential sections (join build/probe, group
  // finalization); chunk fan-outs give each chunk a private copy (see
  // OperatorTimer::ForEachChunk). The parsers are query-local so
  // concurrent Execute calls (the serving layer runs many sessions on one
  // engine) never share mutable parser state.
  json::MisonParser query_mison;
  json::DocumentExtractor query_dom;
  EvalContext ctx;
  ctx.lookup_function = &LookupEngineFunction;
  ctx.lookup_hook = this;
  ctx.metrics = &metrics;
  ctx.mison = &query_mison;
  ctx.dom = &query_dom;

  // ---- Scan (and join) ----
  OperatorTimer scan_timer("Scan", &metrics, start);
  MAXSON_ASSIGN_OR_RETURN(
      RecordBatch left,
      ExecuteScan(plan.scan, &scan_timer, exec_ctx, *shared_scan_));
  scan_timer.Finish(0, left.num_rows());
  if (exec_ctx.cancelled()) return Status::Cancelled("query cancelled");

  RecordBatch input;
  if (plan.join_scan.has_value()) {
    OperatorTimer join_scan_timer("Scan", &metrics, start);
    MAXSON_ASSIGN_OR_RETURN(
        RecordBatch right,
        ExecuteScan(*plan.join_scan, &join_scan_timer, exec_ctx,
                    *shared_scan_));
    join_scan_timer.Finish(0, right.num_rows());
    if (exec_ctx.cancelled()) return Status::Cancelled("query cancelled");
    OperatorTimer join_timer("HashJoin", &metrics, start);
    // Hash join: build on the right side; build and probe run inline.
    std::multimap<std::string, size_t> build;
    for (size_t r = 0; r < right.num_rows(); ++r) {
      ctx.batch = &right;
      ctx.row = r;
      std::vector<Value> keys;
      bool any_null = false;
      for (const ExprPtr& e : plan.join_keys_right) {
        MAXSON_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, ctx));
        if (v.is_null()) any_null = true;
        keys.push_back(std::move(v));
      }
      if (any_null) continue;  // NULL keys never join
      build.emplace(GroupKey(keys), r);
    }

    Schema joined_schema = left.schema();
    for (const storage::Field& f : right.schema().fields()) {
      joined_schema.AddField(f.name, f.type);
    }
    RecordBatch joined(joined_schema);
    for (size_t l = 0; l < left.num_rows(); ++l) {
      ctx.batch = &left;
      ctx.row = l;
      std::vector<Value> keys;
      bool any_null = false;
      for (const ExprPtr& e : plan.join_keys_left) {
        MAXSON_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, ctx));
        if (v.is_null()) any_null = true;
        keys.push_back(std::move(v));
      }
      if (any_null) continue;
      auto [lo, hi] = build.equal_range(GroupKey(keys));
      for (auto it = lo; it != hi; ++it) {
        std::vector<Value> row = left.GetRow(l);
        std::vector<Value> right_row = right.GetRow(it->second);
        row.insert(row.end(), right_row.begin(), right_row.end());
        joined.AppendRow(row);
      }
    }
    join_timer.Finish(left.num_rows() + right.num_rows(), joined.num_rows());
    input = std::move(joined);
  } else {
    input = std::move(left);
  }

  // ---- Filter ----
  RecordBatch filtered(input.schema());
  if (plan.where != nullptr) {
    OperatorTimer filter_timer("Filter", &metrics, start);
    // Sparser-style prefilters: for top-level conjuncts of the form
    // get_json_object(col, path) = 'literal', a record lacking the
    // literal's bytes cannot match, so it is dropped before any parsing
    // happens.
    struct RowPrefilter {
      int column_index;
      json::RawFilter filter;
    };
    std::vector<RowPrefilter> prefilters;
    if (config_.enable_raw_filter) {
      std::vector<const Expr*> stack = {plan.where.get()};
      while (!stack.empty()) {
        const Expr* e = stack.back();
        stack.pop_back();
        if (e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kAnd) {
          stack.push_back(e->children[0].get());
          stack.push_back(e->children[1].get());
          continue;
        }
        if (e->kind != ExprKind::kBinary || e->bin_op != BinaryOp::kEq) {
          continue;
        }
        const Expr* call = e->children[0].get();
        const Expr* literal = e->children[1].get();
        if (call->kind == ExprKind::kLiteral) std::swap(call, literal);
        if (call->kind != ExprKind::kFunction ||
            call->func_name != "get_json_object" ||
            call->children.size() != 2 ||
            call->children[0]->kind != ExprKind::kColumnRef ||
            call->children[0]->column_index < 0 ||
            literal->kind != ExprKind::kLiteral ||
            !literal->literal.is_string() ||
            !json::IsRawFilterableLiteral(literal->literal.string_value())) {
          continue;
        }
        prefilters.push_back(RowPrefilter{
            call->children[0]->column_index,
            json::RawFilter(literal->literal.string_value())});
      }
    }

    // Row chunks are filtered in parallel, each into a private list of
    // surviving row indexes; lists are concatenated in chunk order, so the
    // surviving-row order matches sequential execution.
    std::vector<std::vector<size_t>> kept(NumChunks(input.num_rows()));
    ctx.batch = &input;
    MAXSON_RETURN_NOT_OK(filter_timer.ForEachChunk(
        pool, input.num_rows(), ctx,
        [&](size_t c, exec::ChunkRange range, EvalContext& wctx) -> Status {
          for (size_t r = range.begin; r < range.end; ++r) {
            bool rejected = false;
            for (const RowPrefilter& pf : prefilters) {
              const storage::ColumnVector& col =
                  input.column(static_cast<size_t>(pf.column_index));
              if (col.IsNull(r) || !pf.filter.MightMatch(col.GetString(r))) {
                rejected = true;
                break;
              }
            }
            if (rejected) {
              ++wctx.metrics->raw_filtered_rows;
              continue;
            }
            wctx.row = r;
            MAXSON_ASSIGN_OR_RETURN(Value keep,
                                    EvaluateExpr(*plan.where, wctx));
            if (IsTruthy(keep)) kept[c].push_back(r);
          }
          return Status::Ok();
        }));
    for (const std::vector<size_t>& rows : kept) {
      for (size_t r : rows) filtered.AppendRow(input.GetRow(r));
    }
    filter_timer.Finish(input.num_rows(), filtered.num_rows());
  } else {
    filtered = std::move(input);
  }
  if (exec_ctx.cancelled()) return Status::Cancelled("query cancelled");

  // ---- Project / Aggregate ----
  // Output rows hold each projection's natural Value; the output batch's
  // column types are derived from every row at the end.
  std::vector<std::vector<Value>> out_rows;
  ctx.batch = &filtered;

  if (plan.has_aggregates || !plan.group_by.empty()) {
    OperatorTimer agg_timer("Aggregate", &metrics, start);
    // Group rows.
    struct Group {
      std::vector<Value> key_values;
      std::vector<AggState> states;
      size_t first_row;
    };
    // Collect aggregate nodes per projection (top-level or nested); the
    // HAVING clause rides along as a pseudo-projection at the end.
    const size_t having_slot = plan.projections.size();
    std::vector<std::vector<const Expr*>> agg_nodes(having_slot + 1);
    std::vector<const Expr*> all_aggs;
    for (size_t p = 0; p < plan.projections.size(); ++p) {
      plan.projections[p]->Visit([&](const Expr* node) {
        if (node->kind == ExprKind::kAggregate) {
          agg_nodes[p].push_back(node);
          all_aggs.push_back(node);
        }
      });
    }
    if (plan.having != nullptr) {
      plan.having->Visit([&](const Expr* node) {
        if (node->kind == ExprKind::kAggregate) {
          agg_nodes[having_slot].push_back(node);
          all_aggs.push_back(node);
        }
      });
    }

    // Chunk-parallel partial aggregation: each chunk groups its rows into a
    // private ordered map; partials merge below in chunk order, so the
    // exemplar row of every group (its first occurrence) and the aggregate
    // accumulation order are the same at every thread count.
    std::vector<std::map<std::string, Group>> partials(
        NumChunks(filtered.num_rows()));
    MAXSON_RETURN_NOT_OK(agg_timer.ForEachChunk(
        pool, filtered.num_rows(), ctx,
        [&](size_t c, exec::ChunkRange range, EvalContext& wctx) -> Status {
          std::map<std::string, Group>& local = partials[c];
          for (size_t r = range.begin; r < range.end; ++r) {
            wctx.row = r;
            std::vector<Value> key_values;
            for (const ExprPtr& g : plan.group_by) {
              MAXSON_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*g, wctx));
              key_values.push_back(std::move(v));
            }
            const std::string key = GroupKey(key_values);
            auto [it, inserted] = local.try_emplace(key);
            Group& group = it->second;
            if (inserted) {
              group.key_values = key_values;
              group.states.resize(all_aggs.size());
              group.first_row = r;
            }
            for (size_t a = 0; a < all_aggs.size(); ++a) {
              const Expr* agg = all_aggs[a];
              if (agg->children.empty()) {
                // COUNT(*): count the row unconditionally.
                ++group.states[a].count;
                group.states[a].has_value = true;
              } else {
                MAXSON_ASSIGN_OR_RETURN(
                    Value v, EvaluateExpr(*agg->children[0], wctx));
                group.states[a].Update(v);
              }
            }
          }
          return Status::Ok();
        }));
    std::map<std::string, Group> groups;
    for (std::map<std::string, Group>& partial : partials) {
      for (auto& [key, group] : partial) {
        auto it = groups.find(key);
        if (it == groups.end()) {
          groups.emplace(key, std::move(group));
        } else {
          for (size_t a = 0; a < it->second.states.size(); ++a) {
            it->second.states[a].Merge(group.states[a]);
          }
        }
      }
    }
    // A global aggregate (no GROUP BY) over zero rows still yields one
    // output row: COUNT(*)=0, other aggregates NULL.
    if (groups.empty() && plan.group_by.empty()) {
      Group& empty_group = groups[std::string()];
      empty_group.states.resize(all_aggs.size());
      empty_group.first_row = 0;
    }

    // Finalize each group: evaluate projections (and HAVING) with aggregate
    // nodes replaced by their finished values.
    for (auto& [key, group] : groups) {
      ctx.row = group.first_row;
      // Evaluates `source` (the p-th pseudo-projection) for this group.
      auto evaluate_for_group = [&](const Expr& source,
                                    size_t p) -> Result<Value> {
        if (agg_nodes[p].empty()) {
          // Pure grouping expression: evaluate on the group's exemplar row.
          // The synthetic empty-input group has no exemplar; non-aggregate
          // projections over zero rows are NULL.
          if (filtered.num_rows() == 0) return Value::Null();
          return EvaluateExpr(source, ctx);
        }
        // Substitute aggregate results into a clone, then evaluate. The
        // clone's aggregate nodes appear in the same visit order as
        // agg_nodes[p]; map each to its global state slot in all_aggs.
        ExprPtr clone = source.Clone();
        size_t next = 0;
        std::vector<size_t> indices;
        for (const Expr* node : agg_nodes[p]) {
          for (size_t a = 0; a < all_aggs.size(); ++a) {
            if (node == all_aggs[a]) {
              indices.push_back(a);
              break;
            }
          }
        }
        clone->Visit([&](Expr* node) {
          if (node->kind != ExprKind::kAggregate) return;
          const size_t state_index = indices[next++];
          node->kind = ExprKind::kLiteral;
          node->literal = group.states[state_index].Finish(node->agg);
          node->children.clear();
        });
        return EvaluateExpr(*clone, ctx);
      };

      if (plan.having != nullptr) {
        MAXSON_ASSIGN_OR_RETURN(Value keep,
                                evaluate_for_group(*plan.having, having_slot));
        if (!IsTruthy(keep)) continue;
      }
      std::vector<Value> row;
      for (size_t p = 0; p < plan.projections.size(); ++p) {
        MAXSON_ASSIGN_OR_RETURN(Value v,
                                evaluate_for_group(*plan.projections[p], p));
        row.push_back(std::move(v));
      }
      out_rows.push_back(std::move(row));
    }
    agg_timer.Finish(filtered.num_rows(), out_rows.size());
    // ORDER BY over aggregated output operates on projection aliases: each
    // order key is matched against the projection names.
    if (!plan.order_by.empty()) {
      OperatorTimer sort_timer("Sort", &metrics, start);
      std::vector<size_t> order(out_rows.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      // Resolve each order key to a projection index by textual match.
      std::vector<std::pair<int, bool>> keys;
      for (const auto& [expr, desc] : plan.order_by) {
        int proj = -1;
        for (size_t p = 0; p < plan.projections.size(); ++p) {
          if (plan.projection_names[p] == expr->ToString() ||
              plan.projections[p]->ToString() == expr->ToString()) {
            proj = static_cast<int>(p);
            break;
          }
        }
        if (proj < 0 && expr->kind == ExprKind::kColumnRef) {
          for (size_t p = 0; p < plan.projection_names.size(); ++p) {
            if (plan.projection_names[p] == expr->column) {
              proj = static_cast<int>(p);
              break;
            }
          }
        }
        if (proj < 0) {
          return Status::Unimplemented(
              "ORDER BY over aggregates must reference a projection: " +
              expr->ToString());
        }
        keys.emplace_back(proj, desc);
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         for (const auto& [p, desc] : keys) {
                           const int cmp = out_rows[a][p].Compare(
                               out_rows[b][p]);
                           if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
                         }
                         return false;
                       });
      std::vector<std::vector<Value>> sorted;
      sorted.reserve(out_rows.size());
      for (size_t i : order) sorted.push_back(std::move(out_rows[i]));
      out_rows = std::move(sorted);
      sort_timer.Finish(out_rows.size(), out_rows.size());
    }
  } else {
    // Plain projection; ORDER BY keys are evaluated against input rows.
    std::vector<size_t> order(filtered.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (!plan.order_by.empty()) {
      OperatorTimer sort_timer("Sort", &metrics, start);
      // Precompute sort keys, chunk-parallel: every row owns its slot in
      // `sort_keys`, and the stable sort below sees the same key array
      // regardless of which worker filled which slot.
      std::vector<std::vector<Value>> sort_keys(filtered.num_rows());
      MAXSON_RETURN_NOT_OK(sort_timer.ForEachChunk(
          pool, filtered.num_rows(), ctx,
          [&](size_t, exec::ChunkRange range, EvalContext& wctx) -> Status {
            for (size_t r = range.begin; r < range.end; ++r) {
              wctx.row = r;
              for (const auto& [expr, desc] : plan.order_by) {
                MAXSON_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*expr, wctx));
                sort_keys[r].push_back(std::move(v));
              }
            }
            return Status::Ok();
          }));
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < plan.order_by.size(); ++k) {
          const int cmp = sort_keys[a][k].Compare(sort_keys[b][k]);
          if (cmp != 0) return plan.order_by[k].second ? cmp > 0 : cmp < 0;
        }
        return false;
      });
      sort_timer.Finish(filtered.num_rows(), filtered.num_rows());
    }
    // DISTINCT must see every row before the limit truncates.
    const size_t take =
        (plan.limit >= 0 && !plan.distinct)
            ? std::min<size_t>(order.size(), static_cast<size_t>(plan.limit))
            : order.size();
    // Chunk-parallel projection into preassigned output slots.
    OperatorTimer project_timer("Project", &metrics, start);
    out_rows.resize(take);
    MAXSON_RETURN_NOT_OK(project_timer.ForEachChunk(
        pool, take, ctx,
        [&](size_t, exec::ChunkRange range, EvalContext& wctx) -> Status {
          for (size_t i = range.begin; i < range.end; ++i) {
            wctx.row = order[i];
            std::vector<Value> row;
            row.reserve(plan.projections.size());
            for (const ExprPtr& p : plan.projections) {
              MAXSON_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*p, wctx));
              row.push_back(std::move(v));
            }
            out_rows[i] = std::move(row);
          }
          return Status::Ok();
        }));
    project_timer.Finish(filtered.num_rows(), take);
  }

  // DISTINCT: drop duplicate output rows, keeping first occurrences (order
  // is already established, so this preserves ORDER BY semantics).
  if (plan.distinct) {
    OperatorTimer distinct_timer("Distinct", &metrics, start);
    const uint64_t distinct_rows_in = out_rows.size();
    std::set<std::string> seen;
    std::vector<std::vector<Value>> unique;
    unique.reserve(out_rows.size());
    for (std::vector<Value>& row : out_rows) {
      if (seen.insert(GroupKey(row)).second) {
        unique.push_back(std::move(row));
      }
    }
    out_rows = std::move(unique);
    distinct_timer.Finish(distinct_rows_in, out_rows.size());
  }

  // LIMIT for the aggregate and DISTINCT paths (the plain projection path
  // applied it during evaluation).
  if (plan.limit >= 0) {
    OperatorTimer limit_timer("Limit", &metrics, start);
    const uint64_t limit_rows_in = out_rows.size();
    if (out_rows.size() > static_cast<size_t>(plan.limit)) {
      out_rows.resize(static_cast<size_t>(plan.limit));
    }
    limit_timer.Finish(limit_rows_in, out_rows.size());
  }

  // Materialize the output batch. A column's type is the widest TypeKind
  // among all its values (string when all are NULL), whatever the row order.
  Schema final_schema;
  for (size_t p = 0; p < plan.projections.size(); ++p) {
    std::optional<TypeKind> type;
    for (const std::vector<Value>& row : out_rows) {
      const Value& v = row[p];
      if (v.is_null()) continue;
      const TypeKind kind = v.is_bool()     ? TypeKind::kBool
                            : v.is_int64()  ? TypeKind::kInt64
                            : v.is_double() ? TypeKind::kDouble
                                            : TypeKind::kString;
      type = std::max(type.value_or(kind), kind);
      if (*type == TypeKind::kString) break;
    }
    final_schema.AddField(plan.projection_names[p],
                          type.value_or(TypeKind::kString));
  }
  RecordBatch out(final_schema);
  for (const std::vector<Value>& row : out_rows) out.AppendRow(row);
  result.batch = std::move(out);

  SplitQueryTime(&metrics);
  RecordTrace(tracer_, start, metrics);
  return result;
}

}  // namespace maxson::engine
