#include "exec/shared_scan.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics_registry.h"

namespace maxson::exec {

ScanSubscription::~ScanSubscription() {
  // Abandoned or partially consumed morsels still count as consumed so a
  // completed shared pass is not pinned by a subscriber that will never
  // read it (cancellation, an error on an earlier morsel).
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (consumed_[i] == 0) (void)scheduler_->Consume(tasks_[i]);
  }
  manager_->Unsubscribe(group_key_);
}

Status ScanSubscription::RunClaims(const std::atomic<bool>* cancel) {
  while (!ShouldStop(cancel)) {
    MorselScheduler::Claim claim = scheduler_->ClaimPending(tasks_);
    if (claim.task == nullptr) break;
    // A claimed pass always runs to completion and publishes, even when
    // cancellation fires meanwhile: co-subscribers are waiting on it, and
    // a pass that could vanish after claim would strand them.
    Result<SharedPassOutput> result = pass_fn_(
        claim.task->morsel, claim.ordinal, claim.union_columns,
        claim.predicates);
    self_executed_[claim.ordinal] = 1;
    const uint64_t saved =
        result.ok()
            ? scheduler_->Publish(claim.task, Status::Ok(),
                                  std::move(*result))
            : scheduler_->Publish(claim.task, result.status(),
                                  SharedPassOutput{});
    manager_->RecordPass(saved);
  }
  // Pass failures land in their task (first failure in morsel order is
  // surfaced by Collect), mirroring TaskGroup's deterministic-error
  // contract: a failed morsel never cancels its siblings.
  return Status::Ok();
}

Status ScanSubscription::Collect(ThreadPool* pool,
                                 const std::atomic<bool>* cancel) {
  // Fan claim loops across the pool, the calling thread included. Loops
  // claim until drained and exit — they never wait — so pool workers
  // cannot deadlock even when every worker is inside some subscription's
  // claim loop.
  const size_t loops =
      pool == nullptr ? 1 : std::min(pool->num_threads(), tasks_.size());
  MAXSON_RETURN_NOT_OK(ParallelFor(
      pool, loops, [this, cancel](size_t) { return RunClaims(cancel); }));
  // Morsels claimed by other subscriptions finish on their threads; only
  // this (calling) thread parks for them.
  scheduler_->WaitDone(tasks_, [this, cancel] { return ShouldStop(cancel); });
  if (ShouldStop(cancel)) {
    return Status::Cancelled("shared scan subscription cancelled");
  }
  for (const std::shared_ptr<MorselTask>& task : tasks_) {
    if (!task->status.ok()) return task->status;
  }
  return Status::Ok();
}

std::vector<storage::ColumnVector> ScanSubscription::Take(size_t ordinal) {
  // Until this subscription consumes the morsel no other consumer can be
  // the last one, so copying from the shared batch races with no move.
  std::optional<SharedPassOutput> owned =
      scheduler_->Consume(tasks_[ordinal], /*only_if_last=*/true);
  consumed_[ordinal] = 1;
  storage::RecordBatch& batch =
      owned.has_value() ? owned->batch : tasks_[ordinal]->output.batch;
  // The union is frozen once the pass was claimed, so positions are stable.
  const std::vector<ColumnKey>& union_columns = tasks_[ordinal]->union_columns;
  std::vector<storage::ColumnVector> columns;
  for (auto key = columns_.begin(); key != columns_.end(); ++key) {
    storage::ColumnVector& column = batch.column(static_cast<size_t>(
        std::find(union_columns.begin(), union_columns.end(), *key) -
        union_columns.begin()));
    // The owner moves each column at its last request and copies before.
    if (owned.has_value() &&
        std::find(key + 1, columns_.end(), *key) == columns_.end()) {
      columns.push_back(std::move(column));
    } else {
      columns.push_back(column);
    }
  }
  if (!owned.has_value()) (void)scheduler_->Consume(tasks_[ordinal]);
  return columns;
}

std::unique_ptr<ScanSubscription> SharedScanManager::Subscribe(
    const ScanInterest& interest, SharedScanPassFn pass_fn) {
  std::unique_ptr<ScanSubscription> sub(new ScanSubscription());
  sub->manager_ = this;
  sub->group_key_ = {interest.table_key, interest.validity};
  sub->columns_ = interest.columns;
  sub->pass_fn_ = std::move(pass_fn);
  {
    MutexLock lock(mutex_);
    Group& group = groups_[sub->group_key_];
    if (group.scheduler == nullptr) {
      group.scheduler = std::make_shared<MorselScheduler>();
      ++stats_.groups_opened;
    }
    ++group.refs;
    sub->scheduler_ = group.scheduler;
  }
  // Morsel registration takes the scheduler's lock, not the manager's, so
  // subscriptions to different tables never contend here.
  uint64_t coalesced = 0;
  uint64_t saved = 0;
  for (const Morsel& morsel : interest.morsels) {
    MorselScheduler::Registration reg =
        sub->scheduler_->Register(morsel, interest.columns,
                                  interest.predicate);
    sub->tasks_.push_back(std::move(reg.task));
    if (reg.shared) {
      ++coalesced;
      saved += reg.saved_bytes;
    }
  }
  sub->self_executed_.assign(sub->tasks_.size(), 0);
  sub->consumed_.assign(sub->tasks_.size(), 0);
  RecordAttach(coalesced, saved);
  return sub;
}

void SharedScanManager::Unsubscribe(
    const std::pair<std::string, uint64_t>& key) {
  MutexLock lock(mutex_);
  const auto it = groups_.find(key);
  if (it == groups_.end()) return;
  if (--it->second.refs == 0) groups_.erase(it);
}

void SharedScanManager::RecordPass(uint64_t saved_bytes) {
  obs::MetricsRegistry* registry;
  {
    MutexLock lock(mutex_);
    ++stats_.parse_passes;
    stats_.saved_bytes += saved_bytes;
    registry = metrics_registry_;
  }
  if (registry == nullptr) return;
  registry->GetCounter(obs::kSharedScanParsePasses)->Increment();
  if (saved_bytes > 0) {
    registry->GetCounter(obs::kSharedScanSavedBytes)->Increment(saved_bytes);
  }
}

void SharedScanManager::RecordAttach(uint64_t coalesced,
                                     uint64_t saved_bytes) {
  obs::MetricsRegistry* registry;
  {
    MutexLock lock(mutex_);
    ++stats_.subscribers;
    stats_.coalesced_parses += coalesced;
    stats_.saved_bytes += saved_bytes;
    registry = metrics_registry_;
  }
  if (registry == nullptr) return;
  registry->GetCounter(obs::kSharedScanSubscribers)->Increment();
  if (coalesced > 0) {
    registry->GetCounter(obs::kSharedScanCoalescedParses)
        ->Increment(coalesced);
  }
  if (saved_bytes > 0) {
    registry->GetCounter(obs::kSharedScanSavedBytes)->Increment(saved_bytes);
  }
}

SharedScanStats SharedScanManager::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace maxson::exec
