#ifndef MAXSON_CORE_CACHER_H_
#define MAXSON_CORE_CACHER_H_

#include <string>
#include <vector>

#include <memory>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/cache_registry.h"
#include "core/scoring.h"
#include "engine/engine.h"
#include "exec/thread_pool.h"
#include "storage/corc_format.h"
#include "workload/trace.h"

namespace maxson::core {

/// Sampled per-path statistics used by the scoring function: B_j from a
/// sample of splits, P_j measured with the same parsing algorithm the
/// engine uses (Section IV-B).
struct SampledPathStats {
  double avg_value_bytes = 1.0;
  double avg_parse_seconds = 0.0;
  uint64_t table_rows = 0;
};

/// Reads up to `sample_rows` records from the first split of the table and
/// measures the average parsed-value size and parse time of `path`.
Result<SampledPathStats> SampleTableStats(
    const catalog::TableInfo& table, const std::string& column,
    const std::string& path, size_t sample_rows,
    engine::JsonBackend backend);

/// Accounting of one caching run (pre-parsing cost appears in Fig. 11's
/// "cache overhead" discussion).
struct CachingStats {
  uint64_t paths_cached = 0;
  uint64_t rows_parsed = 0;
  uint64_t bytes_written = 0;
  double parse_seconds = 0.0;
  double total_seconds = 0.0;
  /// CORC encoding accounting across every cache file written this run
  /// (plain bytes in, encoded bytes out, chunks by winning encoding) —
  /// the source of the maxson_corc_*_total metric series.
  uint64_t corc_raw_bytes = 0;
  uint64_t corc_encoded_bytes = 0;
  uint64_t corc_chunks[storage::kNumChunkEncodings] = {0, 0, 0, 0};

  /// Folds a per-split partial into this total (splits pre-parse in
  /// parallel into private stats, merged in split order). parse_seconds
  /// then sums CPU time across workers and may exceed wall time.
  void Add(const CachingStats& other) {
    paths_cached += other.paths_cached;
    rows_parsed += other.rows_parsed;
    bytes_written += other.bytes_written;
    parse_seconds += other.parse_seconds;
    total_seconds += other.total_seconds;
    corc_raw_bytes += other.corc_raw_bytes;
    corc_encoded_bytes += other.corc_encoded_bytes;
    for (int e = 0; e < storage::kNumChunkEncodings; ++e) {
      corc_chunks[e] += other.corc_chunks[e];
    }
  }
};

/// The JSONPath Cacher of Section IV-C: at cache-population time (midnight)
/// it parses the values of the selected MPJPs out of each raw table and
/// writes them into a cache table with one cache file per raw part file —
/// same row counts, same row-group size — so the engine's dual readers can
/// align rows by split index and share row-group skips. All MPJPs of one
/// raw table land in one cache table; fields are named after the column
/// and JSONPath; the registry is updated with cache_time = `cache_time`.
///
/// Splits pre-parse in parallel on the session's shared pool (set_pool);
/// each split task owns its reader, writer, speculative parser, and stats,
/// so tasks share nothing but the immutable path work list. Without a pool
/// splits run sequentially, matching the single-threaded cacher exactly.
class JsonPathCacher {
 public:
  JsonPathCacher(const catalog::Catalog* catalog, std::string cache_root,
                 engine::JsonBackend backend = engine::JsonBackend::kDom)
      : catalog_(catalog),
        cache_root_(std::move(cache_root)),
        backend_(backend) {}

  /// Installs the thread pool split pre-parsing fans out on (shared with
  /// the query engine; null reverts to sequential caching).
  void set_pool(std::shared_ptr<exec::ThreadPool> pool) {
    pool_ = std::move(pool);
  }

  /// Empties the registry and deletes existing cache tables (the nightly
  /// "emptied and re-populated" step), then caches `selected` in order.
  Result<CachingStats> RepopulateCache(const std::vector<ScoredMpjp>& selected,
                                       int64_t cache_time,
                                       CacheRegistry* registry);

 private:
  Status CacheTablePaths(const std::string& database, const std::string& table,
                         const std::vector<workload::JsonPathLocation>& paths,
                         int64_t cache_time, CacheRegistry* registry,
                         CachingStats* stats);

  const catalog::Catalog* catalog_;
  std::string cache_root_;
  engine::JsonBackend backend_;
  std::shared_ptr<exec::ThreadPool> pool_;
};

}  // namespace maxson::core

#endif  // MAXSON_CORE_CACHER_H_
