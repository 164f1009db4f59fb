#include "exec/morsel.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace maxson::exec {

using storage::SargLeaf;
using storage::SearchArgument;
using storage::Value;

namespace {

/// Unit-separator framing: SARG columns and literals are free-form text, so
/// the serialization uses control characters that cannot appear in SQL
/// identifiers or typed literal renderings.
constexpr char kFieldSep = '\x1f';
constexpr char kLeafSep = '\x1e';
constexpr char kSargSep = '\x1d';

char TypeTag(const Value& v) {
  if (v.is_null()) return 'n';
  if (v.is_bool()) return 'b';
  if (v.is_int64()) return 'i';
  if (v.is_double()) return 'd';
  return 's';
}

void AppendSarg(const SearchArgument& sarg, std::string* out) {
  for (const SargLeaf& leaf : sarg.leaves()) {
    out->push_back(kLeafSep);
    out->append(leaf.column);
    out->push_back(kFieldSep);
    out->append(std::to_string(static_cast<int>(leaf.op)));
    out->push_back(kFieldSep);
    out->push_back(TypeTag(leaf.literal));
    out->append(leaf.literal.ToString());
  }
}

}  // namespace

std::string ScanPredicate::KeyFor(const SearchArgument& raw,
                                  const SearchArgument& cache) {
  if (raw.empty() && cache.empty()) return std::string();
  std::string key;
  AppendSarg(raw, &key);
  key.push_back(kSargSep);
  AppendSarg(cache, &key);
  return key;
}

MorselScheduler::Registration MorselScheduler::Register(
    const Morsel& morsel, const std::vector<ColumnKey>& columns,
    const ScanPredicate& predicate) {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<MorselTask>>& list = tasks_[morsel.index];
  for (const std::shared_ptr<MorselTask>& task : list) {
    if (task->state == MorselTask::State::kPending) {
      // Unclaimed: merge freely. Column union keeps first-seen order;
      // predicates dedupe by key and widen the pruning disjunction.
      for (const ColumnKey& col : columns) {
        if (std::find(task->union_columns.begin(), task->union_columns.end(),
                      col) == task->union_columns.end()) {
          task->union_columns.push_back(col);
        }
      }
      const bool known_key = std::any_of(
          task->predicates.begin(), task->predicates.end(),
          [&](const ScanPredicate& p) { return p.key == predicate.key; });
      if (!known_key) task->predicates.push_back(predicate);
      task->reads_all_groups |= predicate.unconstrained();
      ++task->registered;
      return Registration{task, /*shared=*/true, /*saved_bytes=*/0};
    }
    // Claimed (running or done): inputs are frozen, so join only when the
    // pass already covers this subscriber's columns and pruning.
    if (task->retired) continue;
    if (task->state == MorselTask::State::kDone && !task->status.ok()) {
      continue;  // do not ride a failed pass; a fresh one surfaces its own
    }
    const bool columns_covered = std::all_of(
        columns.begin(), columns.end(), [&](const ColumnKey& col) {
          return std::find(task->union_columns.begin(),
                           task->union_columns.end(),
                           col) != task->union_columns.end();
        });
    const bool pruning_covered =
        task->reads_all_groups ||
        std::any_of(task->predicates.begin(), task->predicates.end(),
                    [&](const ScanPredicate& p) {
                      return p.key == predicate.key;
                    });
    if (!columns_covered || !pruning_covered) continue;
    ++task->registered;
    const uint64_t saved = task->state == MorselTask::State::kDone
                               ? task->output.input_bytes
                               : 0;
    return Registration{task, /*shared=*/true, saved};
  }
  auto task = std::make_shared<MorselTask>(morsel);
  task->union_columns = columns;
  task->predicates = {predicate};
  task->reads_all_groups = predicate.unconstrained();
  list.push_back(task);
  return Registration{std::move(task), /*shared=*/false, /*saved_bytes=*/0};
}

MorselScheduler::Claim MorselScheduler::ClaimPending(
    const std::vector<std::shared_ptr<MorselTask>>& tasks) {
  MutexLock lock(mutex_);
  for (size_t i = 0; i < tasks.size(); ++i) {
    MorselTask& task = *tasks[i];
    if (task.state != MorselTask::State::kPending) continue;
    task.state = MorselTask::State::kRunning;
    Claim claim;
    claim.task = tasks[i];
    claim.ordinal = i;
    claim.union_columns = task.union_columns;
    claim.predicates = task.predicates;
    return claim;
  }
  return Claim{};
}

uint64_t MorselScheduler::Publish(const std::shared_ptr<MorselTask>& task,
                                  Status status, SharedPassOutput output) {
  uint64_t saved = 0;
  {
    MutexLock lock(mutex_);
    task->status = std::move(status);
    task->output = std::move(output);
    task->state = MorselTask::State::kDone;
    if (task->status.ok() && task->registered > 1) {
      saved = task->output.input_bytes *
              static_cast<uint64_t>(task->registered - 1);
    }
  }
  cv_.notify_all();
  return saved;
}

void MorselScheduler::WaitDone(
    const std::vector<std::shared_ptr<MorselTask>>& tasks,
    const std::function<bool()>& give_up) {
  MutexLock lock(mutex_);
  const auto all_done = [&tasks] {
    return std::all_of(tasks.begin(), tasks.end(),
                       [](const std::shared_ptr<MorselTask>& t) {
                         return t->state == MorselTask::State::kDone;
                       });
  };
  // Timed waits poll the give-up flag: cancellation may come from a plain
  // atomic nobody pairs with this condition variable.
  while (!all_done() && !(give_up && give_up())) {
    cv_.wait_for(lock.native(), std::chrono::milliseconds(2));
  }
}

std::optional<SharedPassOutput> MorselScheduler::Consume(
    const std::shared_ptr<MorselTask>& task, bool only_if_last) {
  MutexLock lock(mutex_);
  const bool last = task->state == MorselTask::State::kDone &&
                    !task->retired && task->consumed + 1 >= task->registered;
  if (only_if_last && !last) return std::nullopt;
  ++task->consumed;
  if (!last) return std::nullopt;
  task->retired = true;
  return std::exchange(task->output, SharedPassOutput{});
}

}  // namespace maxson::exec
