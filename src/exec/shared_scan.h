#ifndef MAXSON_EXEC_SHARED_SCAN_H_
#define MAXSON_EXEC_SHARED_SCAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/morsel.h"
#include "exec/thread_pool.h"
#include "storage/record_batch.h"

namespace maxson::obs {
class MetricsRegistry;
}  // namespace maxson::obs

namespace maxson::exec {

/// A query-side scan's declaration of interest: which table (at which
/// cache-validity stamp), which morsels, which columns, and which pruning
/// predicates. Columns are ColumnKeys the scheduler only unions and
/// compares, so two queries naming the same physical column share it
/// regardless of how their plans spell it.
struct ScanInterest {
  /// Identity of the scanned table (e.g. its directory). Subscriptions
  /// share passes only within one (table_key, validity) group.
  std::string table_key;
  /// Cache-state stamp (the session's CacheRegistry version): a mid-run
  /// invalidation moves new queries to a fresh group, so passes executed
  /// against the old cache state are never fanned out across the change.
  uint64_t validity = 0;
  std::vector<ColumnKey> columns;  // this subscriber's columns, output order
  ScanPredicate predicate;
  std::vector<Morsel> morsels;  // assembly order of the subscriber's output
};

/// Executes one parse pass: decodes `morsel` with the task's union columns,
/// pruning row groups with the predicate disjunction. `ordinal` is the
/// position of the morsel in the *executing subscriber's* interest, so the
/// callback can attribute pass metrics to a per-morsel slot. The batch must
/// carry one column per `union_columns` entry, in that order: subscribers
/// map their columns by position.
///
/// The callback is supplied per subscription and only ever invoked for
/// tasks that subscription claimed, on its calling thread or its pool
/// helpers, strictly within Collect(); capturing query-local state by
/// reference is safe.
using SharedScanPassFn = std::function<Result<SharedPassOutput>(
    const Morsel& morsel, size_t ordinal,
    const std::vector<ColumnKey>& union_columns,
    const std::vector<ScanPredicate>& predicates)>;

/// Monitoring totals of a SharedScanManager (also published to the obs
/// registry under the maxson_sharedscan_* names, see obs/metric_names.h).
struct SharedScanStats {
  uint64_t subscribers = 0;        // subscriptions opened
  uint64_t parse_passes = 0;       // passes actually executed
  uint64_t coalesced_parses = 0;   // morsel registrations that joined a pass
  uint64_t saved_bytes = 0;        // input bytes not re-processed
  uint64_t groups_opened = 0;      // (table, validity) groups created
};

class SharedScanManager;

/// One query's handle on a shared scan: created by
/// SharedScanManager::Subscribe, driven by Collect, taken morsel by
/// morsel, closed by destruction. See DESIGN.md ("Morsel-driven shared
/// scans") for the lifecycle.
class ScanSubscription {
 public:
  ~ScanSubscription();
  ScanSubscription(const ScanSubscription&) = delete;
  ScanSubscription& operator=(const ScanSubscription&) = delete;

  /// Runs until every registered morsel has a result: claims pending
  /// passes (fanning claim loops across `pool`), then waits for morsels
  /// other subscriptions are executing. Returns the first failed morsel's
  /// status in morsel order, or Cancelled when Cancel()/`cancel` fired.
  /// Cancellation is cooperative — it is honoured between morsels, never
  /// mid-pass, so a claimed pass always publishes for its co-subscribers.
  Status Collect(ThreadPool* pool, const std::atomic<bool>* cancel = nullptr);

  /// Requests cancellation of a Collect in flight (thread-safe).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  size_t num_morsels() const { return tasks_.size(); }

  /// This subscription's columns of morsel `ordinal`, in interest order;
  /// call at most once per morsel, after a successful Collect. Consumes
  /// the morsel: the last registered consumer of a pass moves the decoded
  /// columns out, earlier ones copy theirs.
  std::vector<storage::ColumnVector> Take(size_t ordinal);

  /// True when this subscription executed the pass itself (its pass
  /// callback ran, so its per-morsel metrics slot is populated).
  bool executed_by_self(size_t ordinal) const {
    return self_executed_[ordinal] != 0;
  }

 private:
  friend class SharedScanManager;
  ScanSubscription() = default;

  /// Claims and executes this subscription's pending passes until none
  /// remain or cancellation fires. Never blocks waiting for work — safe on
  /// pool workers.
  Status RunClaims(const std::atomic<bool>* cancel);
  bool ShouldStop(const std::atomic<bool>* cancel) const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (cancel != nullptr && cancel->load(std::memory_order_relaxed));
  }

  SharedScanManager* manager_ = nullptr;
  std::shared_ptr<MorselScheduler> scheduler_;
  std::pair<std::string, uint64_t> group_key_;
  std::vector<ColumnKey> columns_;
  SharedScanPassFn pass_fn_;
  std::vector<std::shared_ptr<MorselTask>> tasks_;  // morsel order
  std::vector<char> self_executed_;  // char, not bool: set concurrently
  std::vector<char> consumed_;
  std::atomic<bool> cancelled_{false};
};

/// Coalesces concurrent scans of one table into shared parse passes. Owned
/// by the QueryEngine (one per engine, like the thread pool); thread-safe.
/// Scan groups are keyed by (table_key, validity) and live exactly as long
/// as a subscription holds them — results are fanned out across in-flight
/// queries, never cached beyond the last open subscription, so the result
/// cache in src/serve/ remains the only cross-time cache.
class SharedScanManager {
 public:
  SharedScanManager() = default;
  SharedScanManager(const SharedScanManager&) = delete;
  SharedScanManager& operator=(const SharedScanManager&) = delete;

  /// Registry receiving the maxson_sharedscan_* counters; pass nullptr to
  /// disable. Not owned.
  void set_metrics_registry(obs::MetricsRegistry* registry)
      MAXSON_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    metrics_registry_ = registry;
  }

  /// Opens a subscription covering `interest.morsels`, merging into the
  /// group's existing passes where possible. The returned subscription must
  /// not outlive the manager; `pass_fn` must stay callable until Collect
  /// returns.
  std::unique_ptr<ScanSubscription> Subscribe(const ScanInterest& interest,
                                              SharedScanPassFn pass_fn)
      MAXSON_EXCLUDES(mutex_);

  SharedScanStats stats() const MAXSON_EXCLUDES(mutex_);

 private:
  friend class ScanSubscription;

  struct Group {
    std::shared_ptr<MorselScheduler> scheduler;
    size_t refs = 0;
  };

  void Unsubscribe(const std::pair<std::string, uint64_t>& key)
      MAXSON_EXCLUDES(mutex_);
  /// Counter publication points (shared_scan.cc is on lint's counter-write
  /// allowlist: these are cross-query scheduling counters with no per-query
  /// merge barrier to publish behind). Both release mutex_ before touching
  /// the registry, so the manager lock never nests over registry locks.
  void RecordPass(uint64_t saved_bytes) MAXSON_EXCLUDES(mutex_);
  void RecordAttach(uint64_t coalesced, uint64_t saved_bytes)
      MAXSON_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::map<std::pair<std::string, uint64_t>, Group> groups_
      MAXSON_GUARDED_BY(mutex_);
  SharedScanStats stats_ MAXSON_GUARDED_BY(mutex_);
  obs::MetricsRegistry* metrics_registry_ MAXSON_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace maxson::exec

#endif  // MAXSON_EXEC_SHARED_SCAN_H_
