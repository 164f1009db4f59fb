#ifndef MAXSON_OBS_METRIC_NAMES_H_
#define MAXSON_OBS_METRIC_NAMES_H_

namespace maxson::obs {

/// Canonical names of every metric series the system publishes. This header
/// is the single registry of metric names: lint's `metric-name` rule fails
/// any `"maxson_*"` string literal in src/ that is not declared here, so a
/// dashboard can treat this file as the complete, greppable metric
/// inventory and a typo'd name cannot silently create a parallel series.
///
/// Determinism taxonomy (enforced by obs_test): the maxson_query_* /
/// maxson_queries_total / plan-cache / rewrite counters carry only
/// deterministic per-query quantities published once per query after the
/// merge barrier, so their totals are byte-identical at every parallelism
/// degree. Scheduling counters (maxson_serve_*) count cross-query overlap
/// events and are monitoring/bench signals only.

// --- Query execution (engine.cc, published once per query) ---
inline constexpr char kQueriesTotal[] = "maxson_queries_total";
inline constexpr char kQueryRowsRead[] = "maxson_query_rows_read_total";
inline constexpr char kQueryBytesRead[] = "maxson_query_bytes_read_total";
inline constexpr char kQueryRowGroupsRead[] =
    "maxson_query_row_groups_read_total";
inline constexpr char kQueryRowGroupsSkipped[] =
    "maxson_query_row_groups_skipped_total";
inline constexpr char kQuerySharedSkips[] = "maxson_query_shared_skips_total";
inline constexpr char kQueryRecordsParsed[] =
    "maxson_query_records_parsed_total";
inline constexpr char kQueryBytesParsed[] = "maxson_query_bytes_parsed_total";
inline constexpr char kQueryCacheColumnsRead[] =
    "maxson_query_cache_columns_read_total";
inline constexpr char kQueryRawFilteredRows[] =
    "maxson_query_raw_filtered_rows_total";
// Per-phase latency histograms (seconds).
inline constexpr char kQueryPlanSeconds[] = "maxson_query_plan_seconds";
inline constexpr char kQueryReadSeconds[] = "maxson_query_read_seconds";
inline constexpr char kQueryParseSeconds[] = "maxson_query_parse_seconds";
inline constexpr char kQueryComputeSeconds[] = "maxson_query_compute_seconds";

// --- Planning and validation (engine.cc) ---
inline constexpr char kPlanValidationFailures[] =
    "maxson_plan_validation_failures";
inline constexpr char kPlanCacheHits[] = "maxson_plan_cache_hits_total";
inline constexpr char kPlanCacheMisses[] = "maxson_plan_cache_misses_total";
inline constexpr char kPlanCacheFallbacks[] =
    "maxson_plan_cache_fallbacks_total";

// --- Plan rewriting against the cache registry (maxson_parser.cc) ---
inline constexpr char kRewriteHits[] = "maxson_rewrite_hits_total";
inline constexpr char kRewriteMisses[] = "maxson_rewrite_misses_total";
inline constexpr char kRewriteFallbacks[] = "maxson_rewrite_fallbacks_total";

// --- Cache state (engine.cc, maxson.cc) ---
inline constexpr char kCacheCorruption[] = "maxson_cache_corruption_total";
inline constexpr char kCacheEntries[] = "maxson_cache_entries";

// --- Midnight caching cycle (maxson.cc) ---
inline constexpr char kMidnightCycles[] = "maxson_midnight_cycles_total";
inline constexpr char kMidnightPathsPredicted[] =
    "maxson_midnight_paths_predicted_total";
inline constexpr char kMidnightPathsSelected[] =
    "maxson_midnight_paths_selected_total";
inline constexpr char kMidnightPathsCached[] =
    "maxson_midnight_paths_cached_total";
inline constexpr char kMidnightRowsParsed[] =
    "maxson_midnight_rows_parsed_total";
inline constexpr char kMidnightBytesWritten[] =
    "maxson_midnight_bytes_written_total";
inline constexpr char kMidnightLastParseSeconds[] =
    "maxson_midnight_last_parse_seconds";
inline constexpr char kMidnightLastTotalSeconds[] =
    "maxson_midnight_last_total_seconds";

// --- CORC chunk encodings (maxson.cc, fed by CorcWriteStats) ---
/// Plain (decoded) chunk bytes that entered the encoder.
inline constexpr char kCorcRawBytes[] = "maxson_corc_raw_bytes_total";
/// Chunk bytes as written to disk after adaptive encoding; the ratio
/// encoded/raw is the cache's storage amplification (1.0 with encodings
/// off or incompressible data — plain is the adaptive floor).
inline constexpr char kCorcEncodedBytes[] = "maxson_corc_encoded_bytes_total";
/// Chunks written, labelled by winning encoding ({encoding="plain"|"rle"|
/// "dict"|"block"}).
inline constexpr char kCorcChunks[] = "maxson_corc_chunks_total";

// --- SIMD dispatch (maxson.cc) ---
inline constexpr char kSimdIsaLevel[] = "maxson_simd_isa_level";
inline constexpr char kSimdIsaInfo[] = "maxson_simd_isa_info";

// --- Serving layer (server.cc; per-tenant labels) ---
inline constexpr char kServeQueries[] = "maxson_serve_queries_total";
inline constexpr char kServeRejected[] = "maxson_serve_rejected_total";
inline constexpr char kServeResultCacheHits[] =
    "maxson_serve_result_cache_hits_total";
inline constexpr char kServeResultCacheMisses[] =
    "maxson_serve_result_cache_misses_total";
inline constexpr char kServeIoRetries[] = "maxson_serve_io_retries_total";
inline constexpr char kServeQueueDepth[] = "maxson_serve_queue_depth";
inline constexpr char kServeInFlight[] = "maxson_serve_in_flight";

}  // namespace maxson::obs

#endif  // MAXSON_OBS_METRIC_NAMES_H_
