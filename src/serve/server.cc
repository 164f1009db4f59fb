#include "serve/server.h"

#include <optional>

#include "obs/metric_names.h"
#include "obs/metrics_registry.h"

namespace maxson::serve {

Result<ClientSession::Outcome> ClientSession::Execute(const std::string& sql) {
  return server_->ExecuteForTenant(tenant_, sql);
}

MaxsonServer::MaxsonServer(core::MaxsonSession* session,
                           const catalog::Catalog* catalog,
                           ServeOptions options)
    : session_(session),
      catalog_(catalog),
      options_(options),
      admission_(options.default_limits),
      result_cache_(options.result_cache),
      result_cache_enabled_(options.enable_result_cache) {}

ClientSession MaxsonServer::Connect(const std::string& tenant) {
  return ClientSession(this, tenant);
}

void MaxsonServer::SetTenantLimits(const std::string& tenant,
                                   TenantLimits limits) {
  admission_.SetTenantLimits(tenant, limits);
}

void MaxsonServer::EnableResultCache(bool enabled) {
  MutexLock lock(options_mutex_);
  if (result_cache_enabled_ && !enabled) result_cache_.Clear();
  result_cache_enabled_ = enabled;
}

bool MaxsonServer::result_cache_enabled() const {
  MutexLock lock(options_mutex_);
  return result_cache_enabled_;
}

void MaxsonServer::InvalidateResultCache() { result_cache_.Clear(); }

void MaxsonServer::Shutdown() { admission_.Shutdown(); }

ResultValidity MaxsonServer::CurrentValidity(
    const CanonicalQuery& query) const {
  ResultValidity validity;
  validity.registry_version = session_->registry().version();
  validity.table_clocks.reserve(query.tables.size());
  for (const auto& [database, table] : query.tables) {
    const std::string& db = database.empty()
                                ? session_->config().engine.default_database
                                : database;
    int64_t clock = -1;  // missing table: stays -1 until it appears
    if (catalog_ != nullptr) {
      Result<const catalog::TableInfo*> info = catalog_->GetTable(db, table);
      if (info.ok()) clock = (*info)->last_modified;
    }
    validity.table_clocks.push_back(clock);
  }
  return validity;
}

void MaxsonServer::PublishAdmissionGauges(const std::string& tenant) {
  obs::MetricsRegistry& metrics = session_->metrics();
  const AdmissionController::TenantSnapshot snap =
      admission_.Snapshot(tenant);
  metrics.GetGauge(obs::kServeQueueDepth, {{"tenant", tenant}})
      ->Set(static_cast<double>(snap.queued));
  metrics.GetGauge(obs::kServeInFlight, {{"tenant", tenant}})
      ->Set(static_cast<double>(snap.in_flight));
}

Result<ClientSession::Outcome> MaxsonServer::ExecuteForTenant(
    const std::string& tenant, const std::string& sql) {
  obs::MetricsRegistry& metrics = session_->metrics();
  metrics.GetCounter(obs::kServeQueries, {{"tenant", tenant}})
      ->Increment();

  Result<AdmissionTicket> ticket = admission_.Admit(tenant);
  PublishAdmissionGauges(tenant);
  if (!ticket.ok()) {
    metrics.GetCounter(obs::kServeRejected, {{"tenant", tenant}})
        ->Increment();
    return ticket.status();
  }

  ClientSession::Outcome outcome;

  // Only plain SELECTs participate in the result cache: EXPLAIN variants
  // and anything the canonicalizer cannot render exactly pass through.
  std::optional<CanonicalQuery> canonical;
  if (result_cache_enabled()) {
    Result<CanonicalQuery> c = Canonicalize(sql);
    if (c.ok()) canonical = std::move(*c);
  }

  if (canonical.has_value()) {
    std::optional<storage::RecordBatch> hit =
        result_cache_.Lookup(*canonical, CurrentValidity(*canonical));
    if (hit.has_value()) {
      metrics.GetCounter(obs::kServeResultCacheHits)->Increment();
      outcome.result.batch = std::move(*hit);
      outcome.result_cache_hit = true;
      PublishAdmissionGauges(tenant);
      return outcome;
    }
    metrics.GetCounter(obs::kServeResultCacheMisses)->Increment();
  }

  // Snapshot validity BEFORE executing: if a midnight recache lands while
  // the query runs, the stored stamp no longer matches the post-recache
  // snapshot and the entry self-invalidates on its next lookup.
  ResultValidity validity;
  if (canonical.has_value()) validity = CurrentValidity(*canonical);

  Result<engine::QueryResult> result = session_->Execute(sql);
  while (!result.ok() && result.status().code() == StatusCode::kIoError &&
         outcome.io_retries < options_.max_io_error_retries) {
    // A registry swap can unlink cache files between plan and read;
    // re-executing re-plans against the new registry state.
    ++outcome.io_retries;
    metrics.GetCounter(obs::kServeIoRetries)->Increment();
    if (canonical.has_value()) validity = CurrentValidity(*canonical);
    result = session_->Execute(sql);
  }
  PublishAdmissionGauges(tenant);
  if (!result.ok()) return result.status();

  if (canonical.has_value()) {
    result_cache_.Insert(*canonical, result->batch, validity);
  }
  outcome.result = std::move(*result);
  return outcome;
}

void RegisterServeOptions(OptionRegistry* registry, MaxsonServer* server,
                          const std::string& tenant, TenantLimits* limits) {
  registry->RegisterBool("resultcache", "on|off", [server](bool on) {
    server->EnableResultCache(on);
    return Status::Ok();
  });
  registry->RegisterUint64(
      "maxinflight", "N", [server, tenant, limits](uint64_t n) {
        limits->max_in_flight = static_cast<size_t>(n);
        server->SetTenantLimits(tenant, *limits);
        return Status::Ok();
      });
  registry->RegisterUint64(
      "maxqueue", "N", [server, tenant, limits](uint64_t n) {
        limits->max_queue = static_cast<size_t>(n);
        server->SetTenantLimits(tenant, *limits);
        return Status::Ok();
      });
}

}  // namespace maxson::serve
