#include "core/cacher.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/time_util.h"
#include "json/json_path.h"
#include "json/mison_parser.h"
#include "xml/xml_path.h"
#include "storage/corc_reader.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"

namespace maxson::core {

using storage::CorcReader;
using storage::CorcWriter;
using storage::CorcWriterOptions;
using storage::FileSystem;
using storage::Split;
using storage::TypeKind;
using storage::Value;

Result<SampledPathStats> SampleTableStats(const catalog::TableInfo& table,
                                          const std::string& column,
                                          const std::string& path,
                                          size_t sample_rows,
                                          engine::JsonBackend backend) {
  MAXSON_ASSIGN_OR_RETURN(std::vector<Split> splits,
                          FileSystem::ListSplits(table.location));
  if (splits.empty()) {
    return Status::NotFound("no splits under " + table.location);
  }
  const bool is_xml = xml::IsXmlPathText(path);
  json::JsonPath parsed_path;
  xml::XmlPath parsed_xpath;
  if (is_xml) {
    MAXSON_ASSIGN_OR_RETURN(parsed_xpath, xml::XmlPath::Parse(path));
  } else {
    MAXSON_ASSIGN_OR_RETURN(parsed_path, json::JsonPath::Parse(path));
  }

  SampledPathStats stats;
  // Total row count across splits (for cache-footprint estimation).
  for (const Split& split : splits) {
    CorcReader reader(split.path);
    MAXSON_RETURN_NOT_OK(reader.Open());
    stats.table_rows += reader.num_rows();
  }

  CorcReader reader(splits[0].path);
  MAXSON_RETURN_NOT_OK(reader.Open());
  const int column_index = reader.schema().FindField(column);
  if (column_index < 0) {
    return Status::NotFound("column " + column + " missing in sample split");
  }
  MAXSON_ASSIGN_OR_RETURN(
      storage::RecordBatch batch,
      reader.ReadStripe(0, {column_index}, std::nullopt, nullptr));

  json::MisonParser mison;
  uint64_t total_bytes = 0;
  size_t measured = 0;
  Stopwatch timer;
  const size_t limit = std::min(sample_rows, batch.num_rows());
  for (size_t r = 0; r < limit; ++r) {
    if (batch.column(0).IsNull(r)) continue;
    const std::string& text = batch.column(0).GetString(r);
    Result<std::string> value =
        is_xml ? xml::GetXmlObject(text, parsed_xpath)
               : (backend == engine::JsonBackend::kMison
                      ? mison.Extract(text, parsed_path)
                      : json::GetJsonObject(text, parsed_path));
    if (value.ok()) total_bytes += value->size();
    ++measured;
  }
  const double elapsed = timer.ElapsedSeconds();
  if (measured > 0) {
    stats.avg_value_bytes = std::max(
        1.0, static_cast<double>(total_bytes) / static_cast<double>(measured));
    stats.avg_parse_seconds = elapsed / static_cast<double>(measured);
  }
  return stats;
}

Status JsonPathCacher::CacheTablePaths(
    const std::string& database, const std::string& table,
    const std::vector<workload::JsonPathLocation>& paths, int64_t cache_time,
    CacheRegistry* registry, CachingStats* stats) {
  MAXSON_ASSIGN_OR_RETURN(const catalog::TableInfo* info,
                          catalog_->GetTable(database, table));
  MAXSON_ASSIGN_OR_RETURN(std::vector<Split> splits,
                          FileSystem::ListSplits(info->location));
  if (splits.empty()) {
    return Status::NotFound("no splits under " + info->location);
  }

  // All JSONPaths of one raw table go into one cache table; fields remember
  // the column and path they were parsed from. Entries still pointing at
  // the directory drop out of the registry first — queries planned from now
  // on parse raw — and the whole rebuild happens in a staging directory
  // that replaces the live one only when every split succeeded.
  const std::string cache_dir = CacheTableDir(cache_root_, database, table);
  const std::string staging_dir = cache_dir + ".staging";
  registry->InvalidateByDir(cache_dir);
  MAXSON_RETURN_NOT_OK(FileSystem::RemoveAll(staging_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::MakeDirs(staging_dir));

  // Immutable once built: split tasks read the work list concurrently, so
  // nothing split-specific (like resolved column indexes) may live here.
  struct PathWork {
    workload::JsonPathLocation location;
    bool is_xml = false;   // XPath ('/..') vs JSONPath ('$..')
    json::JsonPath parsed;
    xml::XmlPath xpath;
    std::string field;
    TypeKind type = TypeKind::kString;
  };
  std::vector<PathWork> work;
  for (const workload::JsonPathLocation& loc : paths) {
    PathWork w;
    w.location = loc;
    w.is_xml = xml::IsXmlPathText(loc.path);
    if (w.is_xml) {
      MAXSON_ASSIGN_OR_RETURN(w.xpath, xml::XmlPath::Parse(loc.path));
    } else {
      MAXSON_ASSIGN_OR_RETURN(w.parsed, json::JsonPath::Parse(loc.path));
    }
    w.field = CacheFieldName(loc.column, loc.path);
    work.push_back(std::move(w));
  }

  // Type inference pass: sample the first split and store numeric JSONPath
  // values in typed columns, so the cache table's row-group min/max indexes
  // order numerically and SARGs like `id > 10000` (Fig. 10) can skip row
  // groups correctly. Values that are not uniformly numeric stay strings.
  {
    CorcReader sample_reader(splits[0].path);
    MAXSON_RETURN_NOT_OK(sample_reader.Open());
    for (PathWork& w : work) {
      if (w.is_xml) continue;  // XML values stay strings (text content)
      const int idx = sample_reader.schema().FindField(w.location.column);
      if (idx < 0) continue;
      MAXSON_ASSIGN_OR_RETURN(
          storage::RecordBatch batch,
          sample_reader.ReadStripe(0, {idx}, std::nullopt, nullptr));
      bool all_int = true;
      bool all_double = true;
      bool any_value = false;
      const size_t limit = std::min<size_t>(batch.num_rows(), 256);
      for (size_t r = 0; r < limit; ++r) {
        if (batch.column(0).IsNull(r)) continue;
        auto dom = json::ParseJson(batch.column(0).GetString(r));
        if (!dom.ok()) continue;
        const json::JsonValue* node = w.parsed.Evaluate(*dom);
        if (node == nullptr) continue;
        any_value = true;
        if (!node->is_int()) all_int = false;
        if (!node->is_number()) all_double = false;
        if (!all_double) break;
      }
      if (any_value && all_int) {
        w.type = TypeKind::kInt64;
      } else if (any_value && all_double) {
        w.type = TypeKind::kDouble;
      }
    }
  }
  storage::Schema cache_schema;
  for (const PathWork& w : work) {
    cache_schema.AddField(w.field, w.type);
  }

  // One task per split: each owns its reader, writer, column resolution,
  // speculative parser, and stats partial, so split pre-parsing fans out
  // on the shared pool with no shared mutable state. Partials merge in
  // split order below, keeping the stats totals deterministic.
  std::vector<CachingStats> split_stats(splits.size());
  Status build_status = exec::ParallelFor(
      pool_.get(), splits.size(), [&](size_t split_i) -> Status {
        const Split& split = splits[split_i];
        CachingStats* split_out =
            stats != nullptr ? &split_stats[split_i] : nullptr;
        CorcReader reader(split.path);
        MAXSON_RETURN_NOT_OK(reader.Open());
        // Resolve source column indexes within this file (per split: part
        // files may order their fields differently).
        std::vector<int> source_columns;
        source_columns.reserve(work.size());
        for (const PathWork& w : work) {
          const int idx = reader.schema().FindField(w.location.column);
          if (idx < 0) {
            return Status::NotFound("column " + w.location.column +
                                    " missing in " + split.path);
          }
          source_columns.push_back(idx);
        }
        // Deduplicate source columns for the read.
        std::vector<int> unique_columns;
        std::map<int, int> column_slot;  // file column index -> batch slot
        for (int c : source_columns) {
          if (column_slot.emplace(c, static_cast<int>(unique_columns.size()))
                  .second) {
            unique_columns.push_back(c);
          }
        }

        // The cache file mirrors the raw file: same index in the sorted
        // listing, same row count, same row-group size (alignment
        // guarantee).
        CorcWriterOptions options;
        options.rows_per_group = reader.footer().rows_per_group;
        options.format_version = format_version_;
        CorcWriter writer(
            staging_dir + "/" + FileSystem::PartFileName(split.index),
            cache_schema, options);
        MAXSON_RETURN_NOT_OK(writer.Open());

        json::MisonParser mison;
        for (size_t s = 0; s < reader.num_stripes(); ++s) {
          MAXSON_ASSIGN_OR_RETURN(
              storage::RecordBatch batch,
              reader.ReadStripe(s, unique_columns, std::nullopt, nullptr));
          Stopwatch parse_timer;
          for (size_t r = 0; r < batch.num_rows(); ++r) {
            // Parse each source JSON column once per row and evaluate every
            // requested path against it (the whole point of pre-parsing is
            // to pay the deserialization once).
            std::map<int, Result<json::JsonValue>> doms;
            std::vector<Value> row;
            row.reserve(work.size());
            for (size_t wi = 0; wi < work.size(); ++wi) {
              const PathWork& w = work[wi];
              const int slot = column_slot.at(source_columns[wi]);
              if (batch.column(static_cast<size_t>(slot)).IsNull(r)) {
                row.push_back(Value::Null());
                continue;
              }
              const std::string& text =
                  batch.column(static_cast<size_t>(slot)).GetString(r);
              Result<std::string> value = Status::NotFound("");
              if (w.is_xml) {
                value = xml::GetXmlObject(text, w.xpath);
              } else if (backend_ == engine::JsonBackend::kMison) {
                value = mison.Extract(text, w.parsed);
              } else {
                auto dom_it = doms.find(slot);
                if (dom_it == doms.end()) {
                  dom_it = doms.emplace(slot, json::ParseJson(text)).first;
                }
                if (dom_it->second.ok()) {
                  const json::JsonValue* node =
                      w.parsed.Evaluate(*dom_it->second);
                  if (node != nullptr) {
                    value = json::RenderGetJsonObjectResult(*node);
                  }
                }
              }
              if (value.ok()) {
                if (split_out != nullptr) {
                  split_out->bytes_written += value->size();
                }
                row.push_back(Value::String(std::move(*value)));
              } else {
                // Absent path: cached as NULL, matching get_json_object's
                // NULL-on-missing semantics.
                row.push_back(Value::Null());
              }
            }
            MAXSON_RETURN_NOT_OK(writer.AppendRow(row));
            if (split_out != nullptr) ++split_out->rows_parsed;
          }
          if (split_out != nullptr) {
            split_out->parse_seconds += parse_timer.ElapsedSeconds();
          }
        }
        MAXSON_RETURN_NOT_OK(writer.Close());
        if (split_out != nullptr) {
          const storage::CorcWriteStats& ws = writer.write_stats();
          split_out->corc_raw_bytes += ws.raw_bytes;
          split_out->corc_encoded_bytes += ws.encoded_bytes;
          for (int e = 0; e < storage::kNumChunkEncodings; ++e) {
            split_out->corc_chunks[e] += ws.chunks[e];
          }
        }
        return Status::Ok();
      });
  if (!build_status.ok()) {
    // Failed builds leave nothing behind; the live cache dir (if any) was
    // already unregistered above, so it simply ages out next cycle.
    Status cleanup = FileSystem::RemoveAll(staging_dir);
    if (!cleanup.ok()) {
      MAXSON_LOG(Warning) << "staging cleanup failed: " << cleanup;
    }
    return build_status;
  }
  if (stats != nullptr) {
    for (const CachingStats& s : split_stats) stats->Add(s);
  }

  // Durable publish: sync the finished staging directory, swap it into
  // place, and sync the parent so the swap survives a crash. Only after the
  // files are live do registry entries appear — a process killed anywhere
  // above leaves the registry without entries for this table and at worst a
  // staging directory that the next cycle deletes.
  MAXSON_RETURN_NOT_OK(FileSystem::SyncDir(staging_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::RemoveAll(cache_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::RenameFile(staging_dir, cache_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::SyncDir(cache_root_));

  for (const PathWork& w : work) {
    CacheEntry entry;
    entry.location = w.location;
    entry.cache_table_dir = cache_dir;
    entry.cache_field = w.field;
    entry.cache_time = cache_time;
    entry.valid = true;
    registry->Put(std::move(entry));
    if (stats != nullptr) ++stats->paths_cached;
  }
  return Status::Ok();
}

Result<CachingStats> JsonPathCacher::RepopulateCache(
    const std::vector<ScoredMpjp>& selected, int64_t cache_time,
    CacheRegistry* registry) {
  Stopwatch total_timer;
  CachingStats stats;
  // Nightly reset: drop previous entries and delete their files (this also
  // removes tables marked invalid since the last cycle).
  for (const std::string& dir : registry->Clear()) {
    MAXSON_RETURN_NOT_OK(FileSystem::RemoveAll(dir));
  }

  // Group selections by raw table.
  std::map<std::string, std::vector<workload::JsonPathLocation>> by_table;
  for (const ScoredMpjp& s : selected) {
    by_table[s.candidate.location.database + "." + s.candidate.location.table]
        .push_back(s.candidate.location);
  }
  for (auto& [qualified, paths] : by_table) {
    // Fixed column order: selections arrive in score order, and scores
    // carry a stopwatch reading, so ordering by score would change the
    // cache files' bytes from run to run.
    std::sort(paths.begin(), paths.end(),
              [](const workload::JsonPathLocation& a,
                 const workload::JsonPathLocation& b) {
                return std::tie(a.column, a.path) < std::tie(b.column, b.path);
              });
    const size_t dot = qualified.find('.');
    MAXSON_RETURN_NOT_OK(CacheTablePaths(qualified.substr(0, dot),
                                         qualified.substr(dot + 1), paths,
                                         cache_time, registry, &stats));
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  return stats;
}

}  // namespace maxson::core
