#include "storage/corc_writer.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/logging.h"
#include "json/json_value.h"
#include "json/json_writer.h"
#include "simd/kernels.h"
#include "storage/encoding.h"
#include "storage/file_system.h"

namespace maxson::storage {

namespace {

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

const char* MagicForVersion(uint32_t version) {
  return version >= kCorcVersionV3 ? kCorcMagicV3 : kCorcMagic;
}

json::JsonValue ValueToJson(const Value& v) {
  using json::JsonValue;
  if (v.is_null()) return JsonValue::Null();
  if (v.is_bool()) return JsonValue::Bool(v.bool_value());
  if (v.is_int64()) return JsonValue::Int(v.int64_value());
  if (v.is_double()) return JsonValue::Double(v.double_value());
  return JsonValue::String(v.string_value());
}

}  // namespace

CorcWriter::CorcWriter(std::string path, Schema schema,
                       CorcWriterOptions options)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      options_(options),
      buffer_(schema_) {}

CorcWriter::~CorcWriter() {
  if (open_ && !closed_) {
    // Publishing from a destructor would commit a file nobody verified; an
    // abandoned writer means the caller never saw Close() succeed, so the
    // only safe exit is to drop the staged bytes.
    MAXSON_LOG(Warning) << "CorcWriter for " << path_
                        << " destroyed without Close(); aborting staged file";
    Status st = Abort();
    if (!st.ok()) {
      MAXSON_LOG(Error) << "CorcWriter::Abort in destructor failed: " << st;
    }
  }
}

Status CorcWriter::Open() {
  if (options_.format_version != kCorcVersion &&
      options_.format_version != kCorcVersionV3) {
    return Status::InvalidArgument(
        "CorcWriterOptions::format_version must be 2 or 3, got " +
        std::to_string(options_.format_version));
  }
  tmp_path_ = path_ + ".tmp";
  file_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!file_.is_open()) {
    return Status::IoError("cannot open " + tmp_path_ + " for writing");
  }
  open_ = true;
  MAXSON_RETURN_NOT_OK(
      WriteRaw(MagicForVersion(options_.format_version), kCorcMagicLen));
  file_offset_ = kCorcMagicLen;
  return Status::Ok();
}

Status CorcWriter::WriteRaw(const char* data, size_t n) {
  bool fail = false;
  const size_t allowed = FaultInjector::Instance().OnWrite(n, &fail);
  if (allowed > 0) {
    file_.write(data, static_cast<std::streamsize>(allowed));
  }
  if (fail) {
    file_.flush();  // a torn prefix persists, as after a real crash
    return Status::IoError("injected fault: write " + tmp_path_);
  }
  if (!file_.good()) return Status::IoError("write failed on " + tmp_path_);
  return Status::Ok();
}

Status CorcWriter::WriteBatch(const RecordBatch& batch) {
  if (!open_) return Status::Internal("CorcWriter not opened");
  if (batch.num_columns() != schema_.num_fields()) {
    return Status::InvalidArgument("batch column count mismatch");
  }
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    MAXSON_RETURN_NOT_OK(AppendRow(batch.GetRow(r)));
  }
  return Status::Ok();
}

Status CorcWriter::AppendRow(const std::vector<Value>& row) {
  if (!open_) return Status::Internal("CorcWriter not opened");
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  buffer_.AppendRow(row);
  ++rows_written_;
  if (buffer_.num_rows() >= options_.rows_per_stripe) {
    return FlushStripe();
  }
  return Status::Ok();
}

Status CorcWriter::EncodeRowGroup(const ColumnVector& column, size_t begin,
                                  size_t end, std::string* out,
                                  ColumnStats* stats) const {
  if (column.type() == TypeKind::kString) {
    // Variable-width: per-row lengths drive the encoding, so the original
    // row-at-a-time loop stays.
    for (size_t i = begin; i < end; ++i) {
      out->push_back(column.IsNull(i) ? 1 : 0);
    }
    // A group whose every value parses as a finite number (the conversion
    // to_int/to_double apply) gets numeric bounds, so a cast comparison can
    // prune it in numeric order; any other group keeps lexicographic ones.
    const std::string* lo = nullptr;
    const std::string* hi = nullptr;
    bool numeric = true;
    double num_lo = std::numeric_limits<double>::infinity();
    double num_hi = -num_lo;
    for (size_t i = begin; i < end; ++i) {
      ++stats->value_count;
      if (column.IsNull(i)) {
        ++stats->null_count;
        PutU32(0, out);  // null slots still encode a zero length
        continue;
      }
      const std::string& s = column.GetString(i);
      // A >= 4 GiB value cannot be represented in the u32 length field; a
      // silently truncated length would still checksum cleanly, so reject
      // it before any bytes are staged.
      MAXSON_RETURN_NOT_OK(ValidateCorcStringSize(s.size()));
      PutU32(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      double d = 0.0;
      numeric = numeric && ParseFiniteNumber(s, &d);
      num_lo = std::min(num_lo, d);
      num_hi = std::max(num_hi, d);
      if (lo == nullptr || s < *lo) lo = &s;
      if (hi == nullptr || s > *hi) hi = &s;
    }
    if (lo != nullptr) {
      stats->min = numeric ? Value::Double(num_lo) : Value::String(*lo);
      stats->max = numeric ? Value::Double(num_hi) : Value::String(*hi);
    }
    return Status::Ok();
  }

  // Fixed-width types: the ColumnVector invariant (null bytes are exactly
  // 0/1, null rows hold the zero default in their typed slot) makes whole
  // slices byte-identical to the per-row encoding, so the null section and
  // value section append as single bulk copies.
  const size_t rows = end - begin;
  const uint8_t* null_bytes = column.nulls().data() + begin;
  out->append(reinterpret_cast<const char*>(null_bytes), rows);
  const uint64_t nulls = simd::CountNonZeroBytes(null_bytes, rows);
  stats->value_count += rows;
  stats->null_count += nulls;

  switch (column.type()) {
    case TypeKind::kBool: {
      out->append(reinterpret_cast<const char*>(column.bools().data() + begin),
                  rows);
      for (size_t i = begin; i < end; ++i) {
        if (column.IsNull(i)) continue;
        stats->FoldMinMax(Value::Bool(column.GetBool(i)));
      }
      break;
    }
    case TypeKind::kInt64: {
      const int64_t* values = column.ints().data() + begin;
      out->append(reinterpret_cast<const char*>(values), rows * 8);
      if (nulls == 0 && rows > 0) {
        int64_t mn;
        int64_t mx;
        simd::MinMaxInt64(values, rows, &mn, &mx);
        stats->FoldMinMax(Value::Int64(mn));
        stats->FoldMinMax(Value::Int64(mx));
      } else {
        for (size_t i = begin; i < end; ++i) {
          if (!column.IsNull(i)) {
            stats->FoldMinMax(Value::Int64(column.GetInt64(i)));
          }
        }
      }
      break;
    }
    case TypeKind::kDouble: {
      const double* values = column.doubles().data() + begin;
      out->append(reinterpret_cast<const char*>(values), rows * 8);
      if (nulls == 0 && rows > 0) {
        double mn;
        double mx;
        simd::MinMaxDouble(values, rows, &mn, &mx);
        stats->FoldMinMax(Value::Double(mn));
        stats->FoldMinMax(Value::Double(mx));
      } else {
        for (size_t i = begin; i < end; ++i) {
          if (column.IsNull(i)) continue;
          double v = column.GetDouble(i);
          if (v == 0.0) v = 0.0;  // match the kernel's +0.0 canonicalization
          stats->FoldMinMax(Value::Double(v));
        }
      }
      break;
    }
    case TypeKind::kString:
      break;  // handled above
  }
  return Status::Ok();
}

Status CorcWriter::FlushStripe() {
  const size_t rows = buffer_.num_rows();
  if (rows == 0) return Status::Ok();

  StripeInfo stripe;
  stripe.num_rows = rows;
  stripe.columns.resize(schema_.num_fields());

  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const ColumnVector& column = buffer_.column(c);
    for (size_t begin = 0; begin < rows; begin += options_.rows_per_group) {
      const size_t end = std::min<size_t>(begin + options_.rows_per_group, rows);
      std::string plain;
      RowGroupInfo rg;
      MAXSON_RETURN_NOT_OK(EncodeRowGroup(column, begin, end, &plain,
                                          &rg.stats));
      rg.raw_length = plain.size();
      // v3 stores each chunk under the smallest applicable encoding (plain
      // is the floor); v2 always stores the plain bytes. The CRC covers
      // the encoded bytes — exactly what a later read must verify.
      std::string chunk;
      if (options_.format_version >= kCorcVersionV3) {
        rg.encoding =
            EncodeChunkAdaptive(column.type(), end - begin, plain, &chunk);
      } else {
        rg.encoding = ChunkEncoding::kPlain;
        chunk = std::move(plain);
      }
      rg.offset = file_offset_;
      rg.length = chunk.size();
      rg.crc = simd::Crc32c(reinterpret_cast<const uint8_t*>(chunk.data()),
                            chunk.size());
      write_stats_.raw_bytes += rg.raw_length;
      write_stats_.encoded_bytes += chunk.size();
      ++write_stats_.chunks[static_cast<int>(rg.encoding)];
      MAXSON_RETURN_NOT_OK(WriteRaw(chunk.data(), chunk.size()));
      file_offset_ += chunk.size();
      stripe.columns[c].row_groups.push_back(std::move(rg));
    }
  }
  stripes_.push_back(std::move(stripe));
  buffer_ = RecordBatch(schema_);
  return Status::Ok();
}

Status CorcWriter::Close() {
  if (closed_) return Status::Ok();
  if (!open_) return Status::Internal("CorcWriter not opened");
  Status st = FinishAndPublish();
  if (st.ok()) {
    closed_ = true;
    return st;
  }
  // A failed publish must leave nothing behind: drop the staged file and
  // report the original failure (an Abort failure is secondary).
  Status abort_st = Abort();
  if (!abort_st.ok()) {
    MAXSON_LOG(Error) << "CorcWriter::Abort after failed Close: " << abort_st;
  }
  return st;
}

Status CorcWriter::Abort() {
  if (closed_) return Status::Ok();
  if (!open_) return Status::Internal("CorcWriter not opened");
  closed_ = true;
  if (file_.is_open()) file_.close();
  return FileSystem::RemoveAll(tmp_path_);
}

Status CorcWriter::FinishAndPublish() {
  MAXSON_RETURN_NOT_OK(FlushStripe());

  using json::JsonValue;
  JsonValue footer = JsonValue::Object();
  JsonValue fields = JsonValue::Array();
  for (const Field& f : schema_.fields()) {
    JsonValue fj = JsonValue::Object();
    fj.Set("name", JsonValue::String(f.name));
    fj.Set("type", JsonValue::Int(static_cast<int>(f.type)));
    fields.Append(std::move(fj));
  }
  footer.Set("fields", std::move(fields));
  footer.Set("version",
             JsonValue::Int(static_cast<int64_t>(options_.format_version)));
  footer.Set("rows_per_group",
             JsonValue::Int(static_cast<int64_t>(options_.rows_per_group)));
  footer.Set("num_rows", JsonValue::Int(static_cast<int64_t>(rows_written_)));

  JsonValue stripes = JsonValue::Array();
  for (const StripeInfo& s : stripes_) {
    JsonValue sj = JsonValue::Object();
    sj.Set("num_rows", JsonValue::Int(static_cast<int64_t>(s.num_rows)));
    JsonValue cols = JsonValue::Array();
    for (const ColumnChunkInfo& c : s.columns) {
      JsonValue groups = JsonValue::Array();
      for (const RowGroupInfo& rg : c.row_groups) {
        JsonValue gj = JsonValue::Object();
        gj.Set("offset", JsonValue::Int(static_cast<int64_t>(rg.offset)));
        gj.Set("length", JsonValue::Int(static_cast<int64_t>(rg.length)));
        gj.Set("crc", JsonValue::Int(static_cast<int64_t>(rg.crc)));
        gj.Set("min", ValueToJson(rg.stats.min));
        gj.Set("max", ValueToJson(rg.stats.max));
        gj.Set("nulls",
               JsonValue::Int(static_cast<int64_t>(rg.stats.null_count)));
        gj.Set("values",
               JsonValue::Int(static_cast<int64_t>(rg.stats.value_count)));
        if (options_.format_version >= kCorcVersionV3) {
          // v2 footers must stay byte-identical to pre-encoding writers, so
          // the encoding keys only appear in v3 files.
          gj.Set("enc", JsonValue::Int(static_cast<int64_t>(rg.encoding)));
          gj.Set("raw_len",
                 JsonValue::Int(static_cast<int64_t>(rg.raw_length)));
        }
        groups.Append(std::move(gj));
      }
      JsonValue cj = JsonValue::Object();
      cj.Set("row_groups", std::move(groups));
      cols.Append(std::move(cj));
    }
    sj.Set("columns", std::move(cols));
    stripes.Append(std::move(sj));
  }
  footer.Set("stripes", std::move(stripes));

  const std::string footer_text = json::WriteJson(footer);
  MAXSON_RETURN_NOT_OK(WriteRaw(footer_text.data(), footer_text.size()));
  std::string tail;
  PutU32(simd::Crc32c(reinterpret_cast<const uint8_t*>(footer_text.data()),
                      footer_text.size()),
         &tail);
  PutU32(static_cast<uint32_t>(footer_text.size()), &tail);
  tail.append(MagicForVersion(options_.format_version), kCorcMagicLen);
  MAXSON_RETURN_NOT_OK(WriteRaw(tail.data(), tail.size()));
  file_.close();
  if (file_.fail()) return Status::IoError("close failed on " + tmp_path_);

  // Durable publish: the staged bytes reach disk before the rename makes
  // them visible, and the directory entry itself is then synced.
  MAXSON_RETURN_NOT_OK(FileSystem::SyncFile(tmp_path_));
  MAXSON_RETURN_NOT_OK(FileSystem::RenameFile(tmp_path_, path_));
  std::string parent = std::filesystem::path(path_).parent_path().string();
  if (parent.empty()) parent = ".";
  return FileSystem::SyncDir(parent);
}

}  // namespace maxson::storage
