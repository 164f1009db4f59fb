#ifndef MAXSON_ENGINE_TABLE_SCAN_H_
#define MAXSON_ENGINE_TABLE_SCAN_H_

#include "common/result.h"
#include "engine/operator_timer.h"
#include "engine/plan.h"
#include "exec/thread_pool.h"
#include "storage/record_batch.h"

namespace maxson::engine {

/// Executes one ScanNode: enumerates the table's splits (one file = one
/// split), and for each split runs the value combiner of Algorithm 2 —
/// a PrimaryReader over the raw part file and, when cache columns are
/// requested, a synchronized CacheReader over the cache part file with the
/// same index. When a cache SARG is present and the two files' row groups
/// align (same group size, single stripe — the paper's Section IV-F
/// condition), the CacheReader's row-group exclusions are shared with the
/// PrimaryReader so both skip the same groups (Algorithm 3).
///
/// Each query reads its own splits: one task per split fans across `pool`
/// (null pool = sequential), and the splits' rows and metrics are merged
/// in split order, so the output and the counters are byte-identical at
/// every parallelism degree and do not depend on other queries.
///
/// Returns the concatenated scan output (raw columns, qualified when the
/// scan has a qualifier, followed by cache columns). The splits run as
/// `timer`'s parallel section, one task per split; bytes, rows and
/// shared-skip counts accumulate into `timer->metrics()`, and the Scan
/// record's detail, split count and cache-column count into
/// `timer->stats()`. The caller finishes the timer.
Result<storage::RecordBatch> ExecuteScan(const ScanNode& scan,
                                         OperatorTimer* timer,
                                         exec::ThreadPool* pool);

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_TABLE_SCAN_H_
