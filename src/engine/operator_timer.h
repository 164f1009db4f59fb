#ifndef MAXSON_ENGINE_OPERATOR_TIMER_H_
#define MAXSON_ENGINE_OPERATOR_TIMER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"
#include "engine/expr.h"
#include "engine/plan.h"
#include "exec/thread_pool.h"
#include "json/json_path.h"
#include "json/mison_parser.h"

namespace maxson::engine {

/// Rows per chunk of the row-oriented operators' fan-out. Fixed — never
/// derived from the thread count — so the chunk decomposition, and with it
/// every chunk-merged accumulation (including the floating-point partial
/// sums of aggregates), is byte-identical at every parallelism degree.
constexpr size_t kRowsPerChunk = 1024;

/// Number of chunks ForEachChunk splits `n` rows into.
constexpr size_t NumChunks(size_t n) {
  return (n + kRowsPerChunk - 1) / kRowsPerChunk;
}

/// Times one operator and appends its OperatorStats record, the engine's
/// only record of query time. Every operator of an execution runs through
/// one: Scan, HashJoin, Filter, Aggregate, Sort, Project, Distinct, Limit.
/// The record's times, in seconds:
///
///   wall   the operator's interval on the coordinating thread.
///   cpu    wall, minus the operator's parallel sections, plus the summed
///          time of the tasks those sections ran. Equals wall when nothing
///          fans out.
///   parse  the part of cpu spent inside get_json_object/get_xml_object or
///          the raw re-derive path: the QueryMetrics::parse_seconds that
///          reach the query's metrics while the operator runs.
///   start  the operator's start, as an offset from the start of
///          execution; the trace places the operator's event with it.
///
/// The query's split is computed from the records (SplitQueryTime):
/// read = Σ over scans of (cpu − parse), compute = Σ over the other
/// operators of (cpu − parse), parse = Σ parse. So read + parse + compute
/// = Σ cpu, and parse ≤ cpu holds because extraction runs inside the task
/// or the inline section that times it.
class OperatorTimer {
 public:
  OperatorTimer(std::string name, QueryMetrics* metrics,
                MonotonicTime query_start)
      : metrics_(metrics),
        query_start_(query_start),
        start_(MonotonicNow()),
        parse_before_(metrics->parse_seconds) {
    stats_.name = std::move(name);
  }

  /// The record under construction; callers fill in its counts.
  OperatorStats& stats() { return stats_; }
  QueryMetrics* metrics() const { return metrics_; }

  /// Runs one parallel section: `section` fans `tasks` tasks out, running
  /// each through Task(). The section's interval leaves cpu; the tasks'
  /// times, summed in task order, enter it. Sections do not nest.
  template <typename Section>
  Status Parallel(size_t tasks, Section&& section) {
    task_seconds_.assign(tasks, 0.0);
    const MonotonicTime begin = MonotonicNow();
    Status status = section();
    fanout_seconds_ -= SecondsBetween(begin, MonotonicNow());
    for (double s : task_seconds_) fanout_seconds_ += s;
    return status;
  }

  /// Runs task `index` (< the section's `tasks`) of the current parallel
  /// section and times it; callable from any worker, once per index.
  template <typename Fn>
  auto Task(size_t index, Fn&& fn) {
    const MonotonicTime begin = MonotonicNow();
    auto result = fn();
    task_seconds_[index] = SecondsBetween(begin, MonotonicNow());
    return result;
  }

  /// The row-chunk fan-out: runs body(c, range, ctx) for the c-th of the
  /// NumChunks(n) chunks of [0, n) on `pool`. Each chunk evaluates with a
  /// copy of `ctx` carrying its own metrics and parsers (their state
  /// mutates per record), and the chunk metrics fold into the query's in
  /// chunk order, so counter totals do not depend on the thread count.
  template <typename Body>
  Status ForEachChunk(exec::ThreadPool* pool, size_t n, const EvalContext& ctx,
                      Body&& body) {
    const std::vector<exec::ChunkRange> chunks =
        exec::MakeChunks(n, kRowsPerChunk);
    std::vector<QueryMetrics> chunk_metrics(chunks.size());
    stats_.units += chunks.size();
    MAXSON_RETURN_NOT_OK(Parallel(chunks.size(), [&] {
      return exec::ParallelFor(pool, chunks.size(), [&](size_t c) {
        return Task(c, [&]() -> Status {
          json::MisonParser mison;
          json::DocumentExtractor dom;
          EvalContext wctx = ctx;
          wctx.metrics = &chunk_metrics[c];
          wctx.mison = &mison;
          wctx.dom = &dom;
          return body(c, chunks[c], wctx);
        });
      });
    }));
    for (const QueryMetrics& m : chunk_metrics) metrics_->Accumulate(m);
    return Status::Ok();
  }

  /// Takes the second clock reading and appends the record.
  void Finish(uint64_t rows_in, uint64_t rows_out) {
    stats_.rows_in = rows_in;
    stats_.rows_out = rows_out;
    stats_.start_seconds = SecondsBetween(query_start_, start_);
    stats_.wall_seconds = SecondsBetween(start_, MonotonicNow());
    stats_.cpu_seconds = stats_.wall_seconds + fanout_seconds_;
    stats_.parse_seconds = metrics_->parse_seconds - parse_before_;
    metrics_->operators.push_back(std::move(stats_));
  }

 private:
  QueryMetrics* metrics_;
  const MonotonicTime query_start_;
  const MonotonicTime start_;
  const double parse_before_;
  /// Σ task times − Σ parallel-section intervals.
  double fanout_seconds_ = 0;
  std::vector<double> task_seconds_;  // of the current parallel section
  OperatorStats stats_;
};

/// Sets the query's read/parse/compute split from its operator records.
inline void SplitQueryTime(QueryMetrics* metrics) {
  metrics->read_seconds = 0;
  metrics->parse_seconds = 0;
  metrics->compute_seconds = 0;
  for (const OperatorStats& op : metrics->operators) {
    double& layer =
        op.name == "Scan" ? metrics->read_seconds : metrics->compute_seconds;
    layer += op.cpu_seconds - op.parse_seconds;
    metrics->parse_seconds += op.parse_seconds;
  }
}

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_OPERATOR_TIMER_H_
