#ifndef MAXSON_ENGINE_TABLE_SCAN_H_
#define MAXSON_ENGINE_TABLE_SCAN_H_

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/operator_timer.h"
#include "engine/plan.h"
#include "storage/record_batch.h"

namespace maxson::exec {
class SharedScanManager;
}  // namespace maxson::exec

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
/// Every scan is a subscription to `manager` with one morsel per split:
/// the scan declares its (table, columns, SARGs) interest, and each split
/// is parsed once per group of concurrent subscribers — see
/// exec/shared_scan.h and DESIGN.md ("Morsel-driven shared scans"). The
/// passes fan across ctx.pool (null pool = sequential) and rows are
/// assembled in split order, so the output is byte-identical at every
/// parallelism degree and with any number of co-subscribers. A scan
/// running alone executes every pass itself and counts exactly what a
/// sequential scan would; under concurrency a pass's metrics go to
/// whichever query executed it.
///
/// Returns the concatenated scan output (raw columns, qualified when the
/// scan has a qualifier, followed by cache columns). The passes run as
/// `timer`'s parallel section, one task per split; bytes, rows and
/// shared-skip counts accumulate into `timer->metrics()`, and the Scan
/// record's detail, split count and cache-column count into
/// `timer->stats()`. The caller finishes the timer.
Result<storage::RecordBatch> ExecuteScan(const ScanNode& scan,
                                         OperatorTimer* timer,
                                         const ExecContext& ctx,
                                         exec::SharedScanManager& manager);

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_TABLE_SCAN_H_
