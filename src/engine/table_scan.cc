#include "engine/table_scan.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/time_util.h"
#include "engine/planner.h"
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
/// with ScanSplitRawFallback. `out` has ScanOutputSchema(scan): the raw
/// columns, then the cache columns.
Status ScanSplitCached(const ScanNode& scan, const Split& split,
                       RecordBatch* out, QueryMetrics* metrics) {
  CorcReader primary(split.path);
  MAXSON_RETURN_NOT_OK(primary.Open());

  std::vector<int> raw_indexes;
  for (size_t i = 0; i < scan.columns.size(); ++i) {
    const int idx = primary.schema().FindField(scan.columns[i]);
    if (idx < 0) {
      return Status::NotFound("column " + scan.columns[i] + " missing in " +
                              split.path);
    }
    MAXSON_RETURN_NOT_OK(CheckColumnType(primary.schema(), idx,
                                         out->column(i).type(), split.path));
    raw_indexes.push_back(idx);
  }

  // Open the synchronized cache reader when cache columns are requested.
  std::unique_ptr<CorcReader> cache;
  std::vector<int> cache_indexes;
  if (!scan.cache_columns.empty()) {
    const std::string cache_path = scan.cache_columns[0].cache_table_dir +
                                   "/" +
                                   FileSystem::PartFileName(split.index);
    cache = std::make_unique<CorcReader>(cache_path);
    MAXSON_RETURN_NOT_OK(cache->Open());
    if (cache->num_rows() != primary.num_rows()) {
      return Status::Internal("cache/raw row count mismatch on split " +
                              std::to_string(split.index));
    }
    for (size_t k = 0; k < scan.cache_columns.size(); ++k) {
      const std::string& field = scan.cache_columns[k].cache_field;
      const int idx = cache->schema().FindField(field);
      if (idx < 0) {
        return Status::NotFound("cache field " + field + " missing in " +
                                cache_path);
      }
      MAXSON_RETURN_NOT_OK(CheckColumnType(
          cache->schema(), idx,
          out->column(scan.columns.size() + k).type(), cache_path));
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
    // Row-group inclusion: the raw SARG's exclusions ANDed with the cache
    // SARG's exclusions when alignment permits (Algorithm 3). shared_skips
    // counts the groups the cache SARG excluded beyond raw pruning.
    MAXSON_ASSIGN_OR_RETURN(
        std::vector<bool> include,
        primary.ComputeRowGroupInclusion(
            s, prune_raw ? scan.raw_sarg : no_pruning));
    if (aligned && !scan.cache_sarg.empty()) {
      MAXSON_ASSIGN_OR_RETURN(
          std::vector<bool> cache_include,
          cache->ComputeRowGroupInclusion(s, scan.cache_sarg));
      if (cache_include.size() == include.size()) {
        for (size_t g = 0; g < include.size(); ++g) {
          if (include[g] && !cache_include[g]) {
            include[g] = false;
            ++metrics->shared_skips;
          }
        }
      }
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

    // Value combiner: the raw columns, then the cache columns (Algorithm
    // 2's index-by-name step happened once, above).
    for (size_t c = 0; c < raw_indexes.size(); ++c) {
      out->column(c).AppendColumn(std::move(raw_batch.column(c)));
    }
    for (size_t c = 0; c < cache_indexes.size(); ++c) {
      out->column(raw_indexes.size() + c)
          .AppendColumn(std::move(cache_batch.column(c)));
    }
  }
  return Status::Ok();
}

/// Degraded-mode scan of one split: the cache file is unusable, so every
/// requested cache column is re-derived by parsing the raw string column
/// it was originally extracted from — exactly what the query would have
/// done with caching disabled, so the rows are byte-identical either way.
/// Only possible when every cache column carries its source column and
/// path (MaxsonParser always fills them). Each JSON source column is
/// parsed once per row, however many of its paths are re-derived.
Status ScanSplitRawFallback(const ScanNode& scan, const std::string& path,
                            RecordBatch* out, QueryMetrics* metrics) {
  CorcReader primary(path);
  MAXSON_RETURN_NOT_OK(primary.Open());

  // Resolve raw columns by name, and each cache column's source column and
  // path, remembering its output slot.
  struct SourceWork {
    size_t slot = 0;  // output column
    int column = -1;  // index in the primary file schema
    bool is_xml = false;
    json::JsonPath json_path;
    xml::XmlPath xml_path;
  };
  const size_t num_raw = scan.columns.size();
  std::vector<int> raw_indexes;
  for (size_t i = 0; i < num_raw; ++i) {
    const int idx = primary.schema().FindField(scan.columns[i]);
    if (idx < 0) {
      return Status::NotFound("column " + scan.columns[i] + " missing in " +
                              path);
    }
    MAXSON_RETURN_NOT_OK(
        CheckColumnType(primary.schema(), idx, out->column(i).type(), path));
    raw_indexes.push_back(idx);
  }
  std::vector<SourceWork> sources;
  for (size_t k = 0; k < scan.cache_columns.size(); ++k) {
    const CacheColumnRequest& req = scan.cache_columns[k];
    SourceWork src;
    src.slot = num_raw + k;
    src.column = primary.schema().FindField(req.source_column);
    if (src.column < 0) {
      return Status::NotFound("fallback source column " + req.source_column +
                              " missing in " + path);
    }
    src.is_xml = xml::IsXmlPathText(req.source_path);
    if (src.is_xml) {
      MAXSON_ASSIGN_OR_RETURN(src.xml_path,
                              xml::XmlPath::Parse(req.source_path));
    } else {
      MAXSON_ASSIGN_OR_RETURN(src.json_path,
                              json::JsonPath::Parse(req.source_path));
    }
    sources.push_back(std::move(src));
  }

  // Read raw + source columns together (deduplicated). Pruning uses the
  // raw SARG only: the cache SARG names cache fields, and the residual
  // filter re-checks every surviving row anyway.
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
    MAXSON_ASSIGN_OR_RETURN(std::vector<bool> include,
                            primary.ComputeRowGroupInclusion(s, scan.raw_sarg));
    MAXSON_ASSIGN_OR_RETURN(
        RecordBatch batch,
        primary.ReadStripe(s, read_columns, include, &metrics->read));
    Stopwatch parse_timer;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      std::vector<storage::Value> row(out->num_columns());
      for (size_t c = 0; c < num_raw; ++c) {
        row[c] = batch.column(c).GetValue(r);
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

/// One split: the cached path first; on cache-side corruption, quarantine
/// the cache file and degrade to raw parsing so the query still returns
/// correct rows. Corruption of the *raw* file is not recoverable — the
/// fallback reads the same file and surfaces the same error.
Status ScanSplit(const ScanNode& scan, const Split& split, RecordBatch* out,
                 QueryMetrics* metrics) {
  Status status = ScanSplitCached(scan, split, out, metrics);
  if (!status.IsCorruption() || scan.cache_columns.empty()) return status;
  for (const CacheColumnRequest& req : scan.cache_columns) {
    if (req.source_column.empty() || req.source_path.empty()) return status;
  }
  MAXSON_LOG(Warning) << "cache corruption on split " << split.index << " ("
                      << status.message() << "); re-deriving from raw";
  // Restart the split from scratch: drop partially combined rows and the
  // failed attempt's accounting so totals stay deterministic.
  *out = RecordBatch(out->schema());
  *metrics = QueryMetrics();
  ++metrics->cache_corruption_fallbacks;
  return ScanSplitRawFallback(scan, split.path, out, metrics);
}

}  // namespace

Result<RecordBatch> ExecuteScan(const ScanNode& scan, OperatorTimer* timer,
                                exec::ThreadPool* pool) {
  MAXSON_ASSIGN_OR_RETURN(std::vector<Split> splits,
                          FileSystem::ListSplits(scan.table_dir));
  if (splits.empty()) {
    return Status::NotFound("no part files under " + scan.table_dir);
  }

  // Each split fills its own batch and metrics; both merge below in split
  // order, so rows and counters do not depend on the thread count.
  const Schema schema = ScanOutputSchema(scan);
  const size_t num_splits = splits.size();
  std::vector<RecordBatch> split_batches(num_splits, RecordBatch(schema));
  std::vector<QueryMetrics> split_metrics(num_splits);
  MAXSON_RETURN_NOT_OK(timer->Parallel(num_splits, [&] {
    return exec::ParallelFor(pool, num_splits, [&](size_t i) {
      return timer->Task(i, [&] {
        return ScanSplit(scan, splits[i], &split_batches[i],
                         &split_metrics[i]);
      });
    });
  }));

  RecordBatch out(schema);
  for (size_t i = 0; i < num_splits; ++i) {
    for (size_t c = 0; c < out.num_columns(); ++c) {
      out.column(c).AppendColumn(std::move(split_batches[i].column(c)));
    }
    timer->metrics()->Accumulate(split_metrics[i]);
  }

  OperatorStats& op = timer->stats();
  op.detail = scan.table_dir;
  op.units = num_splits;
  op.cache_columns = scan.cache_columns.size();
  return out;
}

}  // namespace maxson::engine
