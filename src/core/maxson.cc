#include "core/maxson.h"

#include <algorithm>

#include "common/logging.h"
#include "common/time_util.h"
#include "obs/metric_names.h"
#include "simd/isa.h"
#include "storage/file_system.h"

namespace maxson::core {

namespace {

/// Publishes one caching run's CORC encoding accounting. The raw/encoded
/// byte totals always move together; per-encoding chunk counters only
/// publish for encodings that actually won a chunk, so the label space
/// stays limited to encodings in use.
void PublishCorcEncodingMetrics(obs::MetricsRegistry* metrics,
                                const CachingStats& stats) {
  metrics->GetCounter(obs::kCorcRawBytes)->Increment(stats.corc_raw_bytes);
  metrics->GetCounter(obs::kCorcEncodedBytes)
      ->Increment(stats.corc_encoded_bytes);
  for (int e = 0; e < storage::kNumChunkEncodings; ++e) {
    if (stats.corc_chunks[e] == 0) continue;
    metrics
        ->GetCounter(obs::kCorcChunks,
                     {{"encoding", storage::ChunkEncodingName(
                                       static_cast<storage::ChunkEncoding>(e))}})
        ->Increment(stats.corc_chunks[e]);
  }
}

}  // namespace

MaxsonSession::MaxsonSession(const catalog::Catalog* catalog,
                             MaxsonConfig config)
    : catalog_(catalog), config_(std::move(config)) {
  metrics_ = config_.metrics != nullptr ? config_.metrics
                                        : &obs::MetricsRegistry::Global();
  trace_recorder_.set_enabled(config_.enable_tracing);
  predictor_ = std::make_unique<JsonPathPredictor>(config_.predictor);
  parser_ = std::make_unique<MaxsonParser>(catalog_, &registry_);
  parser_->set_metrics_registry(metrics_);
  engine_ = std::make_unique<engine::QueryEngine>(catalog_, config_.engine);
  engine_->set_plan_rewriter(parser_.get());
  engine_->set_metrics_registry(metrics_);
  engine_->set_tracer(&trace_recorder_);
  // The PlanValidator checks every rewritten plan's cache placeholders
  // against the live registry; invalid entries stay listed (their files
  // remain on disk until the next midnight cycle deletes them), so only a
  // request for an entry the registry dropped entirely is dangling.
  engine_->set_cache_binding_source(
      [this] { return CacheBindingSnapshot(); });
  cacher_ = std::make_unique<JsonPathCacher>(catalog_, config_.cache_root,
                                             config_.engine.json_backend);
  // Queries and midnight pre-parsing share one pool, so a deployment's
  // worker count is a single knob and the two workloads interleave instead
  // of oversubscribing.
  cacher_->set_pool(engine_->pool());
  if (!config_.registry_path.empty()) {
    auto loaded = CacheRegistry::Load(config_.registry_path);
    if (loaded.ok()) {
      registry_ = std::move(*loaded);
      MAXSON_LOG(Info) << "restored " << registry_.size()
                       << " cache entries from " << config_.registry_path;
    }
  }
  // The engine constructor applied config_.engine.force_isa; reflect the
  // level that actually dispatched (it may have been clamped to the host's
  // best) in this session's metrics.
  PublishIsaMetrics();
}

void MaxsonSession::PublishIsaMetrics() {
  const simd::Isa active = simd::ActiveIsa();
  metrics_->GetGauge(obs::kSimdIsaLevel)
      ->Set(static_cast<double>(static_cast<int>(active)));
  for (simd::Isa level : {simd::Isa::kScalar, simd::Isa::kSse2,
                          simd::Isa::kAvx2}) {
    metrics_->GetGauge(obs::kSimdIsaInfo, {{"isa", simd::IsaName(level)}})
        ->Set(level == active ? 1.0 : 0.0);
  }
}

std::shared_ptr<const std::vector<engine::CacheBinding>>
MaxsonSession::CacheBindingSnapshot() const {
  MutexLock lock(binding_cache_mutex_);
  // Read the version before Snapshot(): a mutation landing between the two
  // reads makes the cached copy stale-stamped, so the next call rebuilds.
  const uint64_t version = registry_.version();
  if (binding_cache_ == nullptr || version != binding_cache_version_) {
    auto bindings = std::make_shared<std::vector<engine::CacheBinding>>();
    const std::vector<CacheEntry> entries = registry_.Snapshot();
    bindings->reserve(entries.size());
    for (const CacheEntry& entry : entries) {
      bindings->push_back(
          engine::CacheBinding{entry.cache_table_dir, entry.cache_field});
    }
    binding_cache_ = std::move(bindings);
    binding_cache_version_ = version;
  }
  return binding_cache_;
}

Status MaxsonSession::TrainPredictor(DateId first_target_day,
                                     DateId last_target_day) {
  const std::vector<ml::Sample> samples =
      predictor_->BuildDataset(collector_, first_target_day, last_target_day);
  return predictor_->Train(samples);
}

Result<std::vector<ScoredMpjp>> MaxsonSession::ScoreCandidates(
    const std::vector<std::string>& mpjp_keys, DateId target_day) {
  // The scoring function uses the same queries as the predictor: the most
  // recent observed day's query set.
  const DateId reference_day = std::min(collector_.max_date(), target_day - 1);
  const std::vector<std::vector<std::string>>& queries =
      collector_.QueriesOn(reference_day);
  const std::set<std::string> mpjp_set(mpjp_keys.begin(), mpjp_keys.end());

  std::vector<MpjpCandidate> candidates;
  for (const std::string& key : mpjp_keys) {
    const workload::JsonPathLocation* location = collector_.Location(key);
    if (location == nullptr) continue;
    auto table = catalog_->GetTable(location->database, location->table);
    if (!table.ok()) continue;  // path over a table this deployment lacks
    auto sampled =
        SampleTableStats(**table, location->column, location->path,
                         config_.sample_rows, config_.engine.json_backend);
    if (!sampled.ok()) continue;
    MpjpCandidate candidate;
    candidate.location = *location;
    candidate.avg_value_bytes = sampled->avg_value_bytes;
    candidate.avg_parse_seconds = sampled->avg_parse_seconds;
    candidate.estimated_cache_bytes = static_cast<uint64_t>(
        sampled->avg_value_bytes * static_cast<double>(sampled->table_rows));
    candidates.push_back(std::move(candidate));
  }
  return ScoreMpjps(candidates, queries, mpjp_set);
}

Result<MidnightReport> MaxsonSession::RunMidnightCycle(DateId target_day) {
  obs::TraceSpan cycle_span(&trace_recorder_, "midnight", "midnight");
  Stopwatch cycle_timer;
  MidnightReport report;
  {
    obs::TraceSpan span(&trace_recorder_, "midnight.predict", "midnight");
    report.predicted_mpjps = predictor_->PredictMpjps(collector_, target_day);
  }
  std::vector<ScoredMpjp> scored;
  {
    obs::TraceSpan span(&trace_recorder_, "midnight.score", "midnight");
    MAXSON_ASSIGN_OR_RETURN(
        scored, ScoreCandidates(report.predicted_mpjps, target_day));
  }
  report.selected =
      config_.random_selection
          ? SelectRandomWithinBudget(std::move(scored),
                                     config_.cache_budget_bytes,
                                     config_.random_seed)
          : SelectWithinBudget(std::move(scored), config_.cache_budget_bytes);
  {
    obs::TraceSpan span(&trace_recorder_, "midnight.cache", "midnight");
    MAXSON_ASSIGN_OR_RETURN(
        report.caching,
        cacher_->RepopulateCache(report.selected,
                                 static_cast<int64_t>(target_day),
                                 &registry_));
  }
  if (!config_.registry_path.empty()) {
    MAXSON_RETURN_NOT_OK(registry_.Save(config_.registry_path));
  }

  // Midnight outcome metrics. Counters carry only deterministic outcomes
  // (path and row counts, bytes written — merged in split order by the
  // cacher); the measured times go to gauges.
  ++midnight_cycles_;
  metrics_->GetCounter(obs::kMidnightCycles)->Increment();
  metrics_->GetCounter(obs::kMidnightPathsPredicted)
      ->Increment(report.predicted_mpjps.size());
  metrics_->GetCounter(obs::kMidnightPathsSelected)
      ->Increment(report.selected.size());
  metrics_->GetCounter(obs::kMidnightPathsCached)
      ->Increment(report.caching.paths_cached);
  metrics_->GetCounter(obs::kMidnightRowsParsed)
      ->Increment(report.caching.rows_parsed);
  metrics_->GetCounter(obs::kMidnightBytesWritten)
      ->Increment(report.caching.bytes_written);
  PublishCorcEncodingMetrics(metrics_, report.caching);
  metrics_->GetGauge(obs::kMidnightLastParseSeconds)
      ->Set(report.caching.parse_seconds);
  metrics_->GetGauge(obs::kMidnightLastTotalSeconds)
      ->Set(cycle_timer.ElapsedSeconds());
  metrics_->GetGauge(obs::kCacheEntries)
      ->Set(static_cast<double>(registry_.size()));
  return report;
}

Result<CachingStats> MaxsonSession::CacheSelected(
    const std::vector<ScoredMpjp>& selected, DateId cache_time) {
  obs::TraceSpan span(&trace_recorder_, "midnight.cache", "midnight");
  MAXSON_ASSIGN_OR_RETURN(
      CachingStats stats,
      cacher_->RepopulateCache(selected, static_cast<int64_t>(cache_time),
                               &registry_));
  metrics_->GetCounter(obs::kMidnightPathsCached)
      ->Increment(stats.paths_cached);
  metrics_->GetCounter(obs::kMidnightRowsParsed)
      ->Increment(stats.rows_parsed);
  metrics_->GetCounter(obs::kMidnightBytesWritten)
      ->Increment(stats.bytes_written);
  PublishCorcEncodingMetrics(metrics_, stats);
  metrics_->GetGauge(obs::kCacheEntries)
      ->Set(static_cast<double>(registry_.size()));
  return stats;
}

Result<engine::QueryResult> MaxsonSession::ExecuteWithoutCache(
    const std::string& sql) {
  engine_->set_plan_rewriter(nullptr);
  Result<engine::QueryResult> result = engine_->Execute(sql);
  engine_->set_plan_rewriter(parser_.get());
  return result;
}

Result<engine::PhysicalPlan> MaxsonSession::PlanWithoutCache(
    const std::string& sql) {
  engine_->set_plan_rewriter(nullptr);
  Result<engine::PhysicalPlan> plan = engine_->Plan(sql);
  engine_->set_plan_rewriter(parser_.get());
  return plan;
}

Status MaxsonSession::UpdateConfig(const SessionUpdate& update) {
  // Validate the whole update first so a rejection leaves no partial state.
  if (update.num_threads.has_value() && *update.num_threads > 1024) {
    return Status::InvalidArgument(
        "num_threads must be <= 1024 (0 = hardware concurrency), got " +
        std::to_string(*update.num_threads));
  }
  simd::Isa wanted_isa = simd::Isa::kScalar;
  if (update.isa.has_value() && *update.isa != "auto") {
    if (!simd::ParseIsa(*update.isa, &wanted_isa)) {
      return Status::InvalidArgument(
          "isa must be scalar|sse2|avx2|auto, got '" + *update.isa + "'");
    }
    if (wanted_isa > simd::BestSupportedIsa()) {
      return Status::InvalidArgument(
          "isa '" + *update.isa + "' not supported on this host (best: " +
          simd::IsaName(simd::BestSupportedIsa()) + ")");
    }
  }
  if (update.fault_injection.has_value()) {
    MAXSON_RETURN_NOT_OK(
        storage::FaultInjector::ValidateSpec(*update.fault_injection));
  }
  if (update.num_threads.has_value()) {
    engine_->set_num_threads(*update.num_threads);
    cacher_->set_pool(engine_->pool());
    config_.engine.num_threads = *update.num_threads;
  }
  if (update.tracing.has_value()) {
    trace_recorder_.set_enabled(*update.tracing);
    config_.enable_tracing = *update.tracing;
  }
  if (update.raw_filter.has_value()) {
    config_.engine.enable_raw_filter = *update.raw_filter;
    engine_->set_raw_filter(*update.raw_filter);
  }
  if (update.cache_budget_bytes.has_value()) {
    config_.cache_budget_bytes = *update.cache_budget_bytes;
  }
  if (update.isa.has_value()) {
    if (*update.isa == "auto") {
      simd::ResetIsa();
    } else {
      simd::ForceIsa(wanted_isa);
    }
    config_.engine.force_isa = *update.isa;
    PublishIsaMetrics();
  }
  if (update.fault_injection.has_value()) {
    // Pre-validated above, so Configure cannot fail here.
    MAXSON_RETURN_NOT_OK(
        storage::FaultInjector::Instance().Configure(*update.fault_injection));
  }
  return Status::Ok();
}

SessionStats MaxsonSession::stats() const {
  SessionStats stats;
  stats.rewrite_cache_hits = parser_->cache_hits();
  stats.rewrite_cache_misses = parser_->cache_misses();
  stats.rewrite_invalidations = parser_->invalidations();
  stats.registry_entries = registry_.size();
  stats.registry_lookups = registry_.lookups();
  stats.registry_lookup_hits = registry_.lookup_hits();
  stats.num_threads = engine_->pool()->num_threads();
  stats.pool_tasks_submitted = engine_->pool()->tasks_submitted();
  stats.midnight_cycles = midnight_cycles_;
  stats.trace_events = trace_recorder_.size();
  stats.tracing_enabled = trace_recorder_.enabled();
  stats.simd_isa = simd::IsaName(simd::ActiveIsa());
  stats.fault_injection = storage::FaultInjector::Instance().spec();
  return stats;
}

void RegisterSessionOptions(OptionRegistry* registry, MaxsonSession* session) {
  registry->RegisterUint64("threads", "N", [session](uint64_t n) {
    SessionUpdate update;
    update.num_threads = static_cast<size_t>(n);
    return session->UpdateConfig(update);
  });
  registry->RegisterBool("trace", "on|off", [session](bool on) {
    SessionUpdate update;
    update.tracing = on;
    return session->UpdateConfig(update);
  });
  registry->RegisterBool("rawfilter", "on|off", [session](bool on) {
    SessionUpdate update;
    update.raw_filter = on;
    return session->UpdateConfig(update);
  });
  registry->RegisterUint64("budget", "BYTES", [session](uint64_t bytes) {
    SessionUpdate update;
    update.cache_budget_bytes = bytes;
    return session->UpdateConfig(update);
  });
  registry->RegisterString("isa", "scalar|sse2|avx2|auto",
                           [session](const std::string& level) {
                             SessionUpdate update;
                             update.isa = level;
                             return session->UpdateConfig(update);
                           });
  registry->RegisterString("faultinject", "fail:N|torn:N|short:N|off",
                           [session](const std::string& spec) {
                             SessionUpdate update;
                             update.fault_injection = spec;
                             return session->UpdateConfig(update);
                           });
}

}  // namespace maxson::core
