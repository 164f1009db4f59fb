#include "engine/table_scan.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/time_util.h"
#include "engine/planner.h"
#include "exec/shared_scan.h"
#include "json/json_path.h"
#include "storage/corc_reader.h"
#include "storage/file_system.h"
#include "xml/xml_path.h"

namespace maxson::engine {

using storage::CorcReader;
using storage::FileSystem;
using storage::RecordBatch;
using storage::Schema;
using storage::Split;

namespace {

using storage::SearchArgument;
using storage::TypeKind;

/// Corruption unless column `idx` of the file at `path` has the scan's
/// output type: a file this build did not write (say, a typed cache column
/// from an older build), which ScanSplit re-derives from raw.
Status CheckColumnType(const Schema& file, int idx, TypeKind scan_type,
                       const std::string& path) {
  const storage::Field& field = file.field(static_cast<size_t>(idx));
  if (field.type == scan_type) return Status::Ok();
  return Status::Corruption("column " + field.name + " is " +
                            storage::TypeKindName(field.type) + " in " +
                            path + ", the scan reads " +
                            storage::TypeKindName(scan_type));
}

/// Reads one split, combining raw and cached columns — the cache half of
/// Algorithm 2's value combiner; on cache corruption the caller retries
/// with ScanSplitRawFallback. `out` has one column per entry of `columns`,
/// in that order. Row groups are pruned with the *disjunction* of the
/// subscribers' `predicates`: a group is read when any subscriber's pair
/// of SARGs keeps it. Sound because pruning is advisory — every
/// subscriber's residual WHERE filter re-checks the surviving rows — and a
/// non-empty SARG implies the plan carries that residual filter.
Status ScanSplitCached(const std::vector<exec::ColumnKey>& columns,
                       const std::vector<exec::ScanPredicate>& predicates,
                       const std::string& path, size_t split_index,
                       RecordBatch* out, QueryMetrics* metrics) {
  CorcReader primary(path);
  MAXSON_RETURN_NOT_OK(primary.Open());

  // Resolve each column in its file's schema, remembering its output slot.
  std::vector<int> raw_indexes;
  std::vector<size_t> raw_slots;
  std::vector<const exec::ColumnKey*> cache_keys;
  std::vector<size_t> cache_slots;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].is_cache()) {
      cache_keys.push_back(&columns[i]);
      cache_slots.push_back(i);
      continue;
    }
    const int idx = primary.schema().FindField(columns[i].name);
    if (idx < 0) {
      return Status::NotFound("column " + columns[i].name + " missing in " +
                              path);
    }
    MAXSON_RETURN_NOT_OK(
        CheckColumnType(primary.schema(), idx, out->column(i).type(), path));
    raw_indexes.push_back(idx);
    raw_slots.push_back(i);
  }

  // Open the synchronized cache reader when cache columns are requested.
  std::unique_ptr<CorcReader> cache;
  std::vector<int> cache_indexes;
  if (!cache_keys.empty()) {
    const std::string cache_path = cache_keys[0]->cache_dir + "/" +
                                   FileSystem::PartFileName(split_index);
    cache = std::make_unique<CorcReader>(cache_path);
    MAXSON_RETURN_NOT_OK(cache->Open());
    if (cache->num_rows() != primary.num_rows()) {
      return Status::Internal("cache/raw row count mismatch on split " +
                              std::to_string(split_index));
    }
    for (size_t k = 0; k < cache_keys.size(); ++k) {
      const int idx = cache->schema().FindField(cache_keys[k]->name);
      if (idx < 0) {
        return Status::NotFound("cache field " + cache_keys[k]->name +
                                " missing in " + cache_path);
      }
      MAXSON_RETURN_NOT_OK(CheckColumnType(
          cache->schema(), idx, out->column(cache_slots[k]).type(),
          cache_path));
      cache_indexes.push_back(idx);
    }
  }

  // The paper's single-stripe condition for sharing row-group skips: both
  // files must have the same stripe structure and group size.
  const bool aligned =
      cache != nullptr && cache->num_stripes() == primary.num_stripes() &&
      cache->footer().rows_per_group == primary.footer().rows_per_group;

  // When the stripe structures diverge, primary pruning is disabled
  // entirely (a skipped group would shift the positional combiner below).
  const bool prune_raw = cache == nullptr || aligned;
  const SearchArgument no_pruning;

  // When the two files' stripe structures diverge (the paper's alignment
  // optimization only covers single-stripe files), fall back to positional
  // combining: read the whole cache file once and slice cache rows by
  // absolute offset.
  RecordBatch cache_full;
  size_t cache_row_offset = 0;
  if (cache != nullptr && !aligned) {
    for (size_t cs = 0; cs < cache->num_stripes(); ++cs) {
      MAXSON_ASSIGN_OR_RETURN(
          RecordBatch part,
          cache->ReadStripe(cs, cache_indexes, std::nullopt, &metrics->read));
      if (cs == 0) {
        cache_full = std::move(part);
      } else {
        cache_full.AppendBatch(std::move(part));
      }
    }
  }

  for (size_t s = 0; s < primary.num_stripes(); ++s) {
    // Row-group inclusion, per subscriber: the raw SARG's exclusions ANDed
    // with the cache SARG's exclusions when alignment permits (Algorithm
    // 3); the pass then reads the union — a group survives when any
    // subscriber keeps it. raw_union tracks what raw pruning alone would
    // have read, so shared_skips still counts exactly the groups the cache
    // SARGs additionally excluded.
    std::vector<bool> include;
    std::vector<bool> raw_union;
    for (const exec::ScanPredicate& p : predicates) {
      MAXSON_ASSIGN_OR_RETURN(
          std::vector<bool> inc,
          primary.ComputeRowGroupInclusion(
              s, prune_raw ? p.raw_sarg : no_pruning));
      if (raw_union.empty()) raw_union.assign(inc.size(), false);
      for (size_t g = 0; g < inc.size(); ++g) {
        if (inc[g]) raw_union[g] = true;
      }
      if (aligned && !p.cache_sarg.empty()) {
        MAXSON_ASSIGN_OR_RETURN(
            std::vector<bool> cache_include,
            cache->ComputeRowGroupInclusion(s, p.cache_sarg));
        if (cache_include.size() == inc.size()) {
          for (size_t g = 0; g < inc.size(); ++g) {
            if (!cache_include[g]) inc[g] = false;
          }
        }
      }
      if (include.empty()) include.assign(inc.size(), false);
      for (size_t g = 0; g < inc.size(); ++g) {
        if (inc[g]) include[g] = true;
      }
    }
    for (size_t g = 0; g < include.size(); ++g) {
      if (raw_union[g] && !include[g]) ++metrics->shared_skips;
    }

    MAXSON_ASSIGN_OR_RETURN(
        RecordBatch raw_batch,
        primary.ReadStripe(s, raw_indexes, include, &metrics->read));
    RecordBatch cache_batch;
    if (cache != nullptr) {
      if (aligned) {
        // The CacheReader honors the same inclusion vector, so the two
        // readers stay on identical rows (Algorithm 2's alignment
        // guarantee).
        MAXSON_ASSIGN_OR_RETURN(
            cache_batch,
            cache->ReadStripe(s, cache_indexes, include, &metrics->read));
      } else {
        // Positional fallback: slice the pre-read cache rows matching this
        // stripe's absolute row range.
        cache_batch = RecordBatch(cache_full.schema());
        // Cache-only scans read no raw columns; the stripe's row count
        // comes from the primary footer in that case.
        const size_t stripe_rows =
            raw_indexes.empty()
                ? static_cast<size_t>(primary.footer().stripes[s].num_rows)
                : raw_batch.num_rows();
        for (size_t r = 0; r < stripe_rows; ++r) {
          cache_batch.AppendRow(cache_full.GetRow(cache_row_offset + r));
        }
        cache_row_offset += stripe_rows;
      }
      // Cache-only reading (every requested value is cached, Section
      // IV-B's relevance rationale) leaves the raw batch empty; row counts
      // must agree whenever both readers produced columns.
      if (!raw_indexes.empty() &&
          cache_batch.num_rows() != raw_batch.num_rows()) {
        return Status::Internal("value combiner row misalignment");
      }
      metrics->cache_columns_read += cache_indexes.size();
    }

    // Value combiner: each decoded column lands in its output slot
    // (Algorithm 2's index-by-name step happened once, above).
    for (size_t c = 0; c < raw_slots.size(); ++c) {
      out->column(raw_slots[c]).AppendColumn(std::move(raw_batch.column(c)));
    }
    for (size_t c = 0; c < cache_slots.size(); ++c) {
      out->column(cache_slots[c])
          .AppendColumn(std::move(cache_batch.column(c)));
    }
  }
  return Status::Ok();
}

/// Degraded-mode scan of one split: the cache file is unusable, so every
/// requested cache column is re-derived by parsing the raw string column
/// it was originally extracted from — exactly what the query would have
/// done with caching disabled, so the rows are byte-identical either way.
/// Only possible when every cache column's key carries its source column
/// and path (MaxsonParser always fills them). Each JSON source column is
/// parsed once per row, however many of its paths are re-derived.
Status ScanSplitRawFallback(const std::vector<exec::ColumnKey>& columns,
                            const std::vector<exec::ScanPredicate>& predicates,
                            const std::string& path, RecordBatch* out,
                            QueryMetrics* metrics) {
  CorcReader primary(path);
  MAXSON_RETURN_NOT_OK(primary.Open());

  // Resolve raw columns by name, and each cache column's source column and
  // path, remembering every column's output slot.
  struct SourceWork {
    size_t slot = 0;  // output column
    int column = -1;  // index in the primary file schema
    bool is_xml = false;
    json::JsonPath json_path;
    xml::XmlPath xml_path;
  };
  std::vector<int> raw_indexes;
  std::vector<size_t> raw_slots;
  std::vector<SourceWork> sources;
  for (size_t i = 0; i < columns.size(); ++i) {
    const exec::ColumnKey& key = columns[i];
    if (!key.is_cache()) {
      const int idx = primary.schema().FindField(key.name);
      if (idx < 0) {
        return Status::NotFound("column " + key.name + " missing in " + path);
      }
      MAXSON_RETURN_NOT_OK(
          CheckColumnType(primary.schema(), idx, out->column(i).type(), path));
      raw_indexes.push_back(idx);
      raw_slots.push_back(i);
      continue;
    }
    SourceWork src;
    src.slot = i;
    src.column = primary.schema().FindField(key.source_column);
    if (src.column < 0) {
      return Status::NotFound("fallback source column " + key.source_column +
                              " missing in " + path);
    }
    src.is_xml = xml::IsXmlPathText(key.source_path);
    if (src.is_xml) {
      MAXSON_ASSIGN_OR_RETURN(src.xml_path,
                              xml::XmlPath::Parse(key.source_path));
    } else {
      MAXSON_ASSIGN_OR_RETURN(src.json_path,
                              json::JsonPath::Parse(key.source_path));
    }
    sources.push_back(std::move(src));
  }

  // Read raw + source columns together (deduplicated). Pruning uses the
  // raw SARGs only (their disjunction across subscribers): the cache SARGs
  // name cache fields, and the residual filters re-check every surviving
  // row anyway.
  std::vector<int> read_columns = raw_indexes;
  std::map<int, size_t> slot_of;  // file column index -> batch slot
  for (size_t c = 0; c < read_columns.size(); ++c) {
    slot_of.emplace(read_columns[c], c);
  }
  for (const SourceWork& src : sources) {
    if (slot_of.emplace(src.column, read_columns.size()).second) {
      read_columns.push_back(src.column);
    }
  }
  // One extractor serves the split: with a column's sources adjacent, it
  // parses each JSON source column once per row.
  std::stable_sort(sources.begin(), sources.end(),
                   [](const SourceWork& a, const SourceWork& b) {
                     return a.column < b.column;
                   });
  json::DocumentExtractor dom;

  for (size_t s = 0; s < primary.num_stripes(); ++s) {
    std::vector<bool> include;
    for (const exec::ScanPredicate& p : predicates) {
      MAXSON_ASSIGN_OR_RETURN(std::vector<bool> inc,
                              primary.ComputeRowGroupInclusion(s, p.raw_sarg));
      if (include.empty()) include.assign(inc.size(), false);
      for (size_t g = 0; g < inc.size(); ++g) {
        if (inc[g]) include[g] = true;
      }
    }
    MAXSON_ASSIGN_OR_RETURN(
        RecordBatch batch,
        primary.ReadStripe(s, read_columns, include, &metrics->read));
    Stopwatch parse_timer;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      std::vector<storage::Value> row(columns.size());
      for (size_t c = 0; c < raw_indexes.size(); ++c) {
        row[raw_slots[c]] = batch.column(c).GetValue(r);
      }
      for (const SourceWork& src : sources) {
        const size_t slot = slot_of.at(src.column);
        if (batch.column(slot).IsNull(r)) {
          row[src.slot] = storage::Value::Null();
          continue;
        }
        const std::string& text = batch.column(slot).GetString(r);
        Result<std::string> value =
            src.is_xml ? xml::GetXmlObject(text, src.xml_path)
                       : dom.Extract(text, src.json_path);
        if (src.is_xml || dom.parsed()) {
          ++metrics->parse.records_parsed;
          metrics->parse.bytes_parsed += text.size();
        }
        // Absent path -> NULL, matching get_json_object and the cacher.
        row[src.slot] = value.ok() ? storage::Value::String(std::move(*value))
                                   : storage::Value::Null();
      }
      out->AppendRow(row);
    }
    metrics->parse_seconds += parse_timer.ElapsedSeconds();
  }
  return Status::Ok();
}

/// One pass over one split: the cached path first; on cache-side
/// corruption, quarantine the cache file and degrade to raw parsing so the
/// query still returns correct rows. Corruption of the *raw* file is not
/// recoverable — the fallback reads the same file and surfaces the same
/// error.
Status ScanSplit(const std::vector<exec::ColumnKey>& columns,
                 const std::vector<exec::ScanPredicate>& predicates,
                 const std::string& path, size_t split_index,
                 RecordBatch* out, QueryMetrics* metrics) {
  Status status =
      ScanSplitCached(columns, predicates, path, split_index, out, metrics);
  if (!status.IsCorruption()) return status;
  bool any_cache = false;
  for (const exec::ColumnKey& key : columns) {
    if (!key.is_cache()) continue;
    if (key.source_column.empty() || key.source_path.empty()) return status;
    any_cache = true;
  }
  if (!any_cache) return status;
  MAXSON_LOG(Warning) << "cache corruption on split " << split_index << " ("
                      << status.message() << "); re-deriving from raw";
  // Restart the pass from scratch: drop partially combined rows and the
  // failed attempt's accounting so totals stay deterministic.
  *out = RecordBatch(out->schema());
  *metrics = QueryMetrics();
  ++metrics->cache_corruption_fallbacks;
  return ScanSplitRawFallback(columns, predicates, path, out, metrics);
}

/// Schema of a pass's union batch: one column per union key, in order.
/// Types mirror ScanOutputSchema (raw columns by the table schema, cache
/// columns as strings, like the files), so whole columns move unconverted.
Schema UnionSchema(const std::vector<exec::ColumnKey>& columns,
                   const Schema& table_schema) {
  Schema out;
  for (const exec::ColumnKey& key : columns) {
    const int idx = key.is_cache() ? -1 : table_schema.FindField(key.name);
    out.AddField(key.name,
                 idx >= 0 ? table_schema.field(static_cast<size_t>(idx)).type
                          : TypeKind::kString);
  }
  return out;
}

}  // namespace

Result<RecordBatch> ExecuteScan(const ScanNode& scan, OperatorTimer* timer,
                                const ExecContext& ctx,
                                exec::SharedScanManager& manager) {
  MAXSON_ASSIGN_OR_RETURN(std::vector<Split> splits,
                          FileSystem::ListSplits(scan.table_dir));
  if (splits.empty()) {
    return Status::NotFound("no part files under " + scan.table_dir);
  }

  exec::ScanInterest interest;
  interest.table_key = scan.table_dir;
  interest.validity = ctx.scan_validity;
  for (const std::string& name : scan.columns) {
    interest.columns.emplace_back().name = name;  // a raw column: its name
  }
  for (const CacheColumnRequest& req : scan.cache_columns) {
    interest.columns.push_back(
        exec::ColumnKey{.name = req.cache_field,
                        .cache_dir = req.cache_table_dir,
                        .source_column = req.source_column,
                        .source_path = req.source_path});
  }
  interest.predicate.raw_sarg = scan.raw_sarg;
  interest.predicate.cache_sarg = scan.cache_sarg;
  interest.predicate.key =
      exec::ScanPredicate::KeyFor(scan.raw_sarg, scan.cache_sarg);
  interest.morsels = std::move(splits);  // one morsel per split

  // Per-morsel accumulators for passes this query executes itself; merged
  // below in morsel order, so a query running alone counts exactly what a
  // sequential scan would. A pass another query executed lands in *its*
  // accumulators: under concurrency, per-query metrics reflect who did the
  // work, while the result rows are identical regardless.
  const size_t num_splits = interest.morsels.size();
  std::vector<QueryMetrics> morsel_metrics(num_splits);
  const auto pass_fn =
      [&](const exec::Morsel& morsel, size_t ordinal,
          const std::vector<exec::ColumnKey>& union_columns,
          const std::vector<exec::ScanPredicate>& predicates)
      -> Result<exec::SharedPassOutput> {
    return timer->Task(ordinal, [&]() -> Result<exec::SharedPassOutput> {
      RecordBatch batch(UnionSchema(union_columns, scan.table_schema));
      QueryMetrics* slot = &morsel_metrics[ordinal];
      MAXSON_RETURN_NOT_OK(ScanSplit(union_columns, predicates, morsel.path,
                                     morsel.index, &batch, slot));
      exec::SharedPassOutput output;
      output.batch = std::move(batch);
      output.input_bytes = slot->read.bytes_read + slot->parse.bytes_parsed;
      return output;
    });
  };

  std::unique_ptr<exec::ScanSubscription> sub =
      manager.Subscribe(interest, pass_fn);
  MAXSON_RETURN_NOT_OK(timer->Parallel(
      num_splits, [&] { return sub->Collect(ctx.pool, ctx.cancel); }));

  RecordBatch out(ScanOutputSchema(scan));
  for (size_t i = 0; i < sub->num_morsels(); ++i) {
    std::vector<storage::ColumnVector> columns = sub->Take(i);
    for (size_t c = 0; c < columns.size(); ++c) {
      out.column(c).AppendColumn(std::move(columns[c]));
    }
    if (sub->executed_by_self(i)) {
      timer->metrics()->Accumulate(morsel_metrics[i]);
    }
  }

  OperatorStats& op = timer->stats();
  op.detail = scan.table_dir;
  op.units = num_splits;
  op.cache_columns = scan.cache_columns.size();
  return out;
}

}  // namespace maxson::engine
