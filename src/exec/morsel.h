#ifndef MAXSON_EXEC_MORSEL_H_
#define MAXSON_EXEC_MORSEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/file_system.h"
#include "storage/record_batch.h"
#include "storage/sarg.h"

namespace maxson::exec {

/// The scheduler's unit of scan work: one split (the paper's one file =
/// one split), an opaque claimable unit keyed by its index.
using Morsel = storage::Split;

/// Identity of one decodable column, compared field by field: a raw column
/// by its name; a cache column by its cache directory, field, and the
/// source column and path a pass re-derives it from on cache corruption.
/// Output names are per-subscriber and excluded, so plans spelling one
/// physical column differently share its decode.
struct ColumnKey {
  std::string name;       // raw column name, or the cache field
  std::string cache_dir;  // empty for a raw column
  std::string source_column;
  std::string source_path;

  bool is_cache() const { return !cache_dir.empty(); }
  bool operator==(const ColumnKey&) const = default;
};

/// One subscriber's pushed-down pruning predicates for a morsel, plus a
/// canonical serialization used for predicate-identity checks. Sharing a
/// pass merges predicates as a *disjunction* for row-group pruning — a
/// group survives if any subscriber's SARG keeps it — which is sound
/// because pruning is advisory: every subscriber's residual WHERE filter
/// re-checks the surviving rows (see DESIGN.md, "SARG-merge soundness").
struct ScanPredicate {
  storage::SearchArgument raw_sarg;
  storage::SearchArgument cache_sarg;
  /// Canonical serialization of both SARGs; equal keys mean identical
  /// pruning behaviour. Empty-empty serializes to "" (reads every group).
  std::string key;

  bool unconstrained() const {
    return raw_sarg.empty() && cache_sarg.empty();
  }
  static std::string KeyFor(const storage::SearchArgument& raw,
                            const storage::SearchArgument& cache);
};

/// What one executed parse pass produced: the decoded rows of the morsel,
/// one column per `MorselTask::union_columns` entry in that order, plus
/// the input bytes consumed to produce them (CORC bytes read + raw bytes
/// parsed) — the work a coalesced subscriber avoided repeating.
struct SharedPassOutput {
  storage::RecordBatch batch;
  uint64_t input_bytes = 0;
};

/// Shared state of one coalesced parse pass. All fields except `morsel` are
/// guarded by the owning MorselScheduler's mutex; subscribers hold
/// shared_ptrs and read results only after WaitDone establishes the
/// happens-before edge.
struct MorselTask {
  enum class State { kPending, kRunning, kDone };

  explicit MorselTask(Morsel m) : morsel(std::move(m)) {}

  const Morsel morsel;
  State state = State::kPending;
  /// Union of every registered subscriber's columns, first-seen order,
  /// deduplicated. Frozen once the task is claimed.
  std::vector<ColumnKey> union_columns;
  /// Deduplicated (by key) predicates of the registered subscribers; the
  /// pass prunes row groups with their disjunction.
  std::vector<ScanPredicate> predicates;
  /// True when any registered predicate is unconstrained: the pass reads
  /// every row group, so any same-columns subscriber may attach safely.
  bool reads_all_groups = false;
  size_t registered = 1;  // subscriptions riding this pass
  size_t consumed = 0;    // subscriptions that took their columns
  /// Output released (every registered subscriber consumed it); late
  /// arrivals start a fresh pass instead of attaching.
  bool retired = false;
  Status status = Status::Ok();
  SharedPassOutput output;  // valid when state==kDone && status.ok()
};

/// Work-stealing morsel scheduler for one scan group (one table at one
/// cache-validity stamp): the task table every ScanSubscription of the
/// group registers into, claims pending passes from, and publishes results
/// to. "Stealing" is by-claim rather than by-deque: a pending pass is run
/// by whichever subscriber thread (caller or pool helper) reaches it first,
/// and every other subscriber registered on it rides the result.
///
/// Blocking contract (deadlock safety on a shared pool): only WaitDone
/// blocks, and it is called exclusively from a subscription's *calling*
/// thread. Claim loops running on pool workers use ClaimPending, which
/// never waits — when nothing is pending they exit, so pool workers are
/// never parked waiting for work another parked worker would have to do.
class MorselScheduler {
 public:
  MorselScheduler() = default;
  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  struct Registration {
    std::shared_ptr<MorselTask> task;
    /// True when an existing pass was joined (merged into a pending task or
    /// attached to a running/completed one) — one parse pass coalesced.
    bool shared = false;
    /// Input bytes of an already-completed pass joined at registration;
    /// savings for passes still in flight are reported by Publish instead.
    uint64_t saved_bytes = 0;
  };

  /// Registers interest in `morsel` under `columns` and `predicate`.
  /// Pending tasks merge freely (column union + predicate disjunction). A
  /// running or completed task is joined only when it already covers the
  /// subscriber — every requested column in its union AND its pruning no
  /// narrower (identical predicate key, or the pass reads all groups) —
  /// because a claimed task's inputs are frozen. Otherwise a fresh task is
  /// created.
  Registration Register(const Morsel& morsel,
                        const std::vector<ColumnKey>& columns,
                        const ScanPredicate& predicate)
      MAXSON_EXCLUDES(mutex_);

  struct Claim {
    std::shared_ptr<MorselTask> task;  // null when nothing was pending
    size_t ordinal = 0;                // index into the claimant's `tasks`
    /// Inputs frozen at claim time, copied out so the pass runs without
    /// the scheduler lock.
    std::vector<ColumnKey> union_columns;
    std::vector<ScanPredicate> predicates;
  };

  /// Claims the first still-pending task of `tasks` (the claimant's
  /// registration list, in its morsel order) and marks it running. Returns
  /// a null task when none are pending — it never waits.
  Claim ClaimPending(const std::vector<std::shared_ptr<MorselTask>>& tasks)
      MAXSON_EXCLUDES(mutex_);

  /// Publishes a claimed task's result and wakes waiters. Returns the
  /// input bytes saved by coalescing: output.input_bytes for every
  /// registered subscriber beyond the executing one.
  uint64_t Publish(const std::shared_ptr<MorselTask>& task, Status status,
                   SharedPassOutput output) MAXSON_EXCLUDES(mutex_);

  /// Blocks until every task in `tasks` is done or `give_up()` returns
  /// true (checked a few hundred times per second; cancellation is
  /// cooperative). Calling-thread only — see the blocking contract above.
  void WaitDone(const std::vector<std::shared_ptr<MorselTask>>& tasks,
                const std::function<bool()>& give_up) MAXSON_EXCLUDES(mutex_);

  /// Records that one registered subscriber consumed `task`'s output; the
  /// last consumer of a completed task retires it and receives the output.
  /// With `only_if_last`, a caller that is not the last changes nothing and
  /// gets nullopt (it copies what it needs, then consumes).
  std::optional<SharedPassOutput> Consume(
      const std::shared_ptr<MorselTask>& task, bool only_if_last = false)
      MAXSON_EXCLUDES(mutex_);

 private:
  Mutex mutex_;
  std::condition_variable cv_;
  /// Tasks by split index in creation order: front-most compatible task
  /// wins a registration, so concurrent identical subscribers converge on
  /// one pass instead of fanning out over stale retired entries. The
  /// MorselTask objects the lists point to are guarded by mutex_ too (see
  /// the MorselTask comment) — pt_guarded_by cannot reach through the
  /// nested containers, so that half of the contract stays prose.
  std::map<size_t, std::vector<std::shared_ptr<MorselTask>>> tasks_
      MAXSON_GUARDED_BY(mutex_);
};

}  // namespace maxson::exec

#endif  // MAXSON_EXEC_MORSEL_H_
