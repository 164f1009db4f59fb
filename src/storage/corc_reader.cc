#include "storage/corc_reader.h"

#include <cstring>

#include "json/dom_parser.h"
#include "json/json_value.h"
#include "simd/kernels.h"
#include "storage/encoding.h"
#include "storage/file_system.h"

namespace maxson::storage {

namespace {

Value JsonToValue(const json::JsonValue& j) {
  using json::JsonType;
  switch (j.type()) {
    case JsonType::kNull:
      return Value::Null();
    case JsonType::kBool:
      return Value::Bool(j.bool_value());
    case JsonType::kInt:
      return Value::Int64(j.int_value());
    case JsonType::kDouble:
      return Value::Double(j.double_value());
    case JsonType::kString:
      return Value::String(j.string_value());
    default:
      return Value::Null();
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Coerces a reloaded footer stat back to the column's declared type.
///
/// Stats round-trip through the JSON footer, which can change their boxed
/// type: a double whose value happens to be integral reparses as Int64.
/// Pruning compares stats against query literals with Value::Compare, whose
/// mixed-type fallback is textual — an Int64-boxed 1234567 renders as
/// "1234567" while the Double it stood for renders as "1.23457e+06" — so a
/// drifted type can misorder against a string literal and prune a row group
/// that actually contains matching rows. A string column's stats are
/// strings, or Doubles for a group whose every value parses as a number.
/// Null stays null (all-null groups carry no min/max); any other mismatch
/// is corruption, not a guess.
Status CoerceStat(TypeKind type, Value* v, const std::string& path) {
  if (v->is_null()) return Status::Ok();
  switch (type) {
    case TypeKind::kBool:
      if (v->is_bool()) return Status::Ok();
      break;
    case TypeKind::kInt64:
      if (v->is_int64()) return Status::Ok();
      break;
    case TypeKind::kString:
      if (v->is_string()) return Status::Ok();
      [[fallthrough]];  // numeric bounds
    case TypeKind::kDouble:
      if (v->is_double()) return Status::Ok();
      if (v->is_int64()) {
        *v = Value::Double(static_cast<double>(v->int64_value()));
        return Status::Ok();
      }
      break;
  }
  return Status::Corruption("footer stat type disagrees with column type in " +
                            path);
}

}  // namespace

CorcReader::CorcReader(std::string path) : path_(std::move(path)) {}

Status CorcReader::Open() {
  file_.open(path_, std::ios::binary);
  if (!file_.is_open()) {
    return Status::IoError("cannot open " + path_ + " for reading");
  }
  file_.seekg(0, std::ios::end);
  file_size_ = static_cast<uint64_t>(file_.tellg());
  // Smallest structurally possible file (v1): leading magic, empty footer,
  // footer length, trailing magic. Anything shorter — including an empty
  // or truncated file — cannot hold a tail worth parsing.
  if (file_size_ < 2 * kCorcMagicLen + 4) {
    return Status::Corruption(path_ + " is too small to be a CORC file");
  }

  char head[kCorcMagicLen];
  file_.seekg(0);
  file_.read(head, sizeof(head));
  char tail_magic[kCorcMagicLen];
  file_.seekg(static_cast<std::streamoff>(file_size_ - kCorcMagicLen));
  file_.read(tail_magic, sizeof(tail_magic));
  if (!file_.good()) return Status::IoError("magic read failed on " + path_);

  if (std::memcmp(tail_magic, kCorcMagicV3, kCorcMagicLen) == 0) {
    footer_.version = kCorcVersionV3;
  } else if (std::memcmp(tail_magic, kCorcMagic, kCorcMagicLen) == 0) {
    footer_.version = kCorcVersion;
  } else if (std::memcmp(tail_magic, kCorcMagicV1, kCorcMagicLen) == 0) {
    footer_.version = kCorcVersionV1;
  } else {
    return Status::Corruption(path_ + " has a bad trailing magic");
  }
  if (std::memcmp(head, tail_magic, kCorcMagicLen) != 0) {
    return Status::Corruption(path_ + " leading magic disagrees with tail");
  }

  // Tail layout: v1 [footer_len u32][magic], v2 [footer_crc u32]
  // [footer_len u32][magic]. All arithmetic stays in uint64_t so a
  // footer_len near UINT32_MAX cannot wrap a bounds check.
  const uint64_t tail_fixed =
      (footer_.version >= kCorcVersion ? 8u : 4u) + kCorcMagicLen;
  if (file_size_ < kCorcMagicLen + tail_fixed) {
    return Status::Corruption(path_ + " is too small for its format version");
  }
  char tail[12];
  file_.seekg(static_cast<std::streamoff>(file_size_ - tail_fixed));
  file_.read(tail, static_cast<std::streamsize>(tail_fixed - kCorcMagicLen));
  if (!file_.good()) return Status::IoError("tail read failed on " + path_);
  uint32_t footer_crc = 0;
  uint32_t footer_len = 0;
  if (footer_.version >= kCorcVersion) {
    footer_crc = GetU32(tail);
    footer_len = GetU32(tail + 4);
  } else {
    footer_len = GetU32(tail);
  }
  if (uint64_t{footer_len} + tail_fixed + kCorcMagicLen > file_size_) {
    return Status::Corruption(path_ + " footer length out of range");
  }

  std::string footer_text(footer_len, '\0');
  file_.seekg(
      static_cast<std::streamoff>(file_size_ - tail_fixed - footer_len));
  file_.read(footer_text.data(), footer_len);
  if (!file_.good()) return Status::IoError("footer read failed on " + path_);
  if (footer_.version >= kCorcVersion) {
    const uint32_t actual = simd::Crc32c(
        reinterpret_cast<const uint8_t*>(footer_text.data()),
        footer_text.size());
    if (actual != footer_crc) {
      return Status::Corruption(path_ + " footer checksum mismatch");
    }
  }

  Result<json::JsonValue> parsed = json::ParseJson(footer_text);
  if (!parsed.ok()) {
    return Status::Corruption(path_ + " footer does not parse: " +
                              parsed.status().message());
  }
  json::JsonValue footer = std::move(parsed).value();
  if (!footer.is_object()) {
    return Status::Corruption("footer is not an object in " + path_);
  }

  const json::JsonValue* fields = footer.Find("fields");
  const json::JsonValue* rows_per_group = footer.Find("rows_per_group");
  const json::JsonValue* num_rows = footer.Find("num_rows");
  const json::JsonValue* stripes = footer.Find("stripes");
  if (fields == nullptr || !fields->is_array() || rows_per_group == nullptr ||
      num_rows == nullptr || stripes == nullptr || !stripes->is_array()) {
    return Status::Corruption("footer missing required keys in " + path_);
  }
  if (const json::JsonValue* version = footer.Find("version");
      version != nullptr &&
      version->int_value() != static_cast<int64_t>(footer_.version)) {
    return Status::Corruption("footer version disagrees with magic in " +
                              path_);
  }

  Schema schema;
  for (const json::JsonValue& fj : fields->elements()) {
    const json::JsonValue* name = fj.Find("name");
    const json::JsonValue* type = fj.Find("type");
    if (name == nullptr || type == nullptr) {
      return Status::Corruption("bad field entry in footer of " + path_);
    }
    schema.AddField(name->string_value(),
                    static_cast<TypeKind>(type->int_value()));
  }
  footer_.schema = std::move(schema);
  if (rows_per_group->int_value() <= 0 ||
      rows_per_group->int_value() > static_cast<int64_t>(UINT32_MAX)) {
    // rows_per_group divides stripes into groups; zero would loop forever.
    return Status::Corruption("invalid rows_per_group in footer of " + path_);
  }
  footer_.rows_per_group = static_cast<uint32_t>(rows_per_group->int_value());
  if (num_rows->int_value() < 0) {
    return Status::Corruption("negative num_rows in footer of " + path_);
  }
  footer_.num_rows = static_cast<uint64_t>(num_rows->int_value());

  for (const json::JsonValue& sj : stripes->elements()) {
    StripeInfo stripe;
    const json::JsonValue* srows = sj.Find("num_rows");
    const json::JsonValue* cols = sj.Find("columns");
    if (srows == nullptr || cols == nullptr || !cols->is_array()) {
      return Status::Corruption("bad stripe entry in footer of " + path_);
    }
    if (srows->int_value() < 0) {
      return Status::Corruption("negative stripe rows in footer of " + path_);
    }
    stripe.num_rows = static_cast<uint64_t>(srows->int_value());
    for (const json::JsonValue& cj : cols->elements()) {
      const size_t col_idx = stripe.columns.size();
      if (col_idx >= footer_.schema.num_fields()) {
        return Status::Corruption(
            "stripe column count disagrees with schema in " + path_);
      }
      const TypeKind col_type = footer_.schema.field(col_idx).type;
      ColumnChunkInfo chunk;
      const json::JsonValue* groups = cj.Find("row_groups");
      if (groups == nullptr || !groups->is_array()) {
        return Status::Corruption("bad column entry in footer of " + path_);
      }
      for (const json::JsonValue& gj : groups->elements()) {
        RowGroupInfo rg;
        const json::JsonValue* offset = gj.Find("offset");
        const json::JsonValue* length = gj.Find("length");
        const json::JsonValue* crc = gj.Find("crc");
        const json::JsonValue* min = gj.Find("min");
        const json::JsonValue* max = gj.Find("max");
        const json::JsonValue* nulls = gj.Find("nulls");
        const json::JsonValue* values = gj.Find("values");
        if (offset == nullptr || length == nullptr || min == nullptr ||
            max == nullptr || nulls == nullptr || values == nullptr ||
            (footer_.version >= kCorcVersion && crc == nullptr)) {
          return Status::Corruption("bad row group entry in footer of " +
                                    path_);
        }
        if (offset->int_value() < 0 || length->int_value() < 0) {
          return Status::Corruption("negative chunk range in footer of " +
                                    path_);
        }
        rg.offset = static_cast<uint64_t>(offset->int_value());
        rg.length = static_cast<uint64_t>(length->int_value());
        // Every chunk must lie inside the data section that precedes the
        // footer; a directory pointing outside the file is corrupt even
        // when its own checksum holds.
        if (rg.offset < kCorcMagicLen || rg.length > file_size_ ||
            rg.offset > file_size_ - rg.length) {
          return Status::Corruption("chunk range out of bounds in footer of " +
                                    path_);
        }
        if (crc != nullptr) {
          rg.crc = static_cast<uint32_t>(crc->int_value());
        }
        if (footer_.version >= kCorcVersionV3) {
          const json::JsonValue* enc = gj.Find("enc");
          const json::JsonValue* raw_len = gj.Find("raw_len");
          if (enc == nullptr || raw_len == nullptr) {
            return Status::Corruption(
                "v3 row group missing encoding keys in footer of " + path_);
          }
          if (enc->int_value() < 0 ||
              enc->int_value() >= static_cast<int64_t>(kNumChunkEncodings)) {
            return Status::Corruption(
                "unknown chunk encoding id in footer of " + path_);
          }
          rg.encoding = static_cast<ChunkEncoding>(enc->int_value());
          // The decoded length gates every decode allocation; cap it here
          // so a hostile footer cannot request an arbitrary buffer.
          if (raw_len->int_value() < 0 ||
              static_cast<uint64_t>(raw_len->int_value()) >
                  kMaxDecodedChunkBytes) {
            return Status::Corruption(
                "decoded chunk length out of range in footer of " + path_);
          }
          rg.raw_length = static_cast<uint64_t>(raw_len->int_value());
        }
        rg.stats.min = JsonToValue(*min);
        rg.stats.max = JsonToValue(*max);
        MAXSON_RETURN_NOT_OK(CoerceStat(col_type, &rg.stats.min, path_));
        MAXSON_RETURN_NOT_OK(CoerceStat(col_type, &rg.stats.max, path_));
        // One pair, in one ordering: both null, both strings or both
        // numbers.
        if (rg.stats.min.is_null() != rg.stats.max.is_null() ||
            rg.stats.min.is_string() != rg.stats.max.is_string()) {
          return Status::Corruption("mixed min/max stat pair in footer of " +
                                    path_);
        }
        rg.stats.null_count = static_cast<uint64_t>(nulls->int_value());
        rg.stats.value_count = static_cast<uint64_t>(values->int_value());
        chunk.row_groups.push_back(std::move(rg));
      }
      stripe.columns.push_back(std::move(chunk));
    }
    footer_.stripes.push_back(std::move(stripe));
  }

  // Directory consistency, validated once here so every later ReadStripe
  // and ComputeRowGroupInclusion can index columns[c].row_groups[g] without
  // re-checking: each stripe carries exactly one column entry per schema
  // field, every column of a stripe agrees on the group count, and that
  // count matches what the stripe's rows and rows_per_group imply.
  for (const StripeInfo& s : footer_.stripes) {
    if (s.columns.size() != footer_.schema.num_fields()) {
      return Status::Corruption("stripe column count disagrees with schema in " +
                                path_);
    }
    const uint64_t expected_groups =
        s.num_rows == 0
            ? 0
            : (s.num_rows + footer_.rows_per_group - 1) / footer_.rows_per_group;
    for (const ColumnChunkInfo& c : s.columns) {
      if (c.row_groups.size() != expected_groups) {
        return Status::Corruption(
            "row group count disagrees with stripe rows in " + path_);
      }
    }
  }
  open_ = true;
  return Status::Ok();
}

Result<std::vector<bool>> CorcReader::ComputeRowGroupInclusion(
    size_t stripe, const SearchArgument& sarg) const {
  if (stripe >= footer_.stripes.size()) {
    return Status::OutOfRange("stripe index out of range");
  }
  const StripeInfo& info = footer_.stripes[stripe];
  const size_t groups = info.num_row_groups();
  std::vector<bool> include(groups, true);
  if (sarg.empty()) return include;
  for (size_t g = 0; g < groups; ++g) {
    auto stats_for_column = [&](const std::string& name) -> const ColumnStats* {
      const int c = footer_.schema.FindField(name);
      if (c < 0) return nullptr;
      return &info.columns[static_cast<size_t>(c)].row_groups[g].stats;
    };
    include[g] = sarg.Evaluate(stats_for_column) != SargResult::kNo;
  }
  return include;
}

Status CorcReader::DecodeRowGroup(const RowGroupInfo& rg, TypeKind type,
                                  size_t rows, ColumnVector* out,
                                  ReadStats* stats) {
  std::string chunk(rg.length, '\0');
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(rg.offset));
  const size_t readable = FaultInjector::Instance().OnRead(chunk.size());
  file_.read(chunk.data(), static_cast<std::streamsize>(readable));
  if (!file_.good() || readable < chunk.size()) {
    return Status::Corruption("row group read truncated in " + path_);
  }
  if (footer_.version >= kCorcVersion) {
    const uint32_t actual = simd::Crc32c(
        reinterpret_cast<const uint8_t*>(chunk.data()), chunk.size());
    if (actual != rg.crc) {
      return Status::Corruption("row group checksum mismatch in " + path_);
    }
  }
  if (stats != nullptr) {
    stats->bytes_read += rg.length;  // on-disk (encoded) bytes
    ++stats->row_groups_read;
  }

  // v3 chunks carry an encoding; decode back to the plain v2 layout before
  // the shared column decode below. The fast path (plain chunk, consistent
  // length) skips the copy entirely. The CRC above covered the encoded
  // bytes, so decode errors here mean a bad footer, not bit rot.
  if (footer_.version >= kCorcVersionV3 &&
      (rg.encoding != ChunkEncoding::kPlain || rg.raw_length != chunk.size())) {
    std::string plain;
    MAXSON_RETURN_NOT_OK(
        DecodeChunk(rg.encoding, type, rows, rg.raw_length, chunk, &plain));
    chunk = std::move(plain);
  }

  if (chunk.size() < rows) {
    return Status::Corruption("row group underflow in " + path_);
  }
  const char* nulls = chunk.data();
  const char* p = chunk.data() + rows;
  const char* chunk_end = chunk.data() + chunk.size();
  const size_t avail = static_cast<size_t>(chunk_end - p);

  // Expand the byte-per-row null vector into a bitmap once (dispatched
  // kernel), then decode the fixed-width value section with bulk copies.
  // Null slots are overwritten with the type's zero default so the decoded
  // column is byte-identical to the old per-row AppendNull path even for
  // files whose null slots hold garbage.
  const size_t words = simd::BitmapWords(rows);
  std::vector<uint64_t> null_bitmap(words, 0);
  simd::NullBytesToBitmap(reinterpret_cast<const uint8_t*>(nulls), rows,
                          null_bitmap.data());

  const auto append_nulls = [&] {
    std::vector<uint8_t>& out_nulls = out->nulls();
    const size_t base = out_nulls.size();
    out_nulls.resize(base + rows, 0);
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = null_bitmap[w];
      while (bits != 0) {
        const int bit = __builtin_ctzll(bits);
        bits &= bits - 1;
        out_nulls[base + w * simd::kWordBits + static_cast<size_t>(bit)] = 1;
      }
    }
  };

  switch (type) {
    case TypeKind::kBool: {
      if (avail < rows) return Status::Corruption("bool decode overflow in " + path_);
      append_nulls();
      std::vector<uint8_t>& bools = out->bools();
      const size_t base = bools.size();
      bools.resize(base + rows, 0);
      for (size_t i = 0; i < rows; ++i) {
        bools[base + i] = (p[i] != 0 && nulls[i] == 0) ? 1 : 0;
      }
      break;
    }
    case TypeKind::kInt64: {
      if (avail < rows * 8) return Status::Corruption("int decode overflow in " + path_);
      append_nulls();
      std::vector<int64_t>& ints = out->ints();
      const size_t base = ints.size();
      ints.resize(base + rows);
      std::memcpy(ints.data() + base, p, rows * 8);
      for (size_t w = 0; w < words; ++w) {
        uint64_t bits = null_bitmap[w];
        while (bits != 0) {
          const int bit = __builtin_ctzll(bits);
          bits &= bits - 1;
          ints[base + w * simd::kWordBits + static_cast<size_t>(bit)] = 0;
        }
      }
      break;
    }
    case TypeKind::kDouble: {
      if (avail < rows * 8) return Status::Corruption("double decode overflow in " + path_);
      append_nulls();
      std::vector<double>& doubles = out->doubles();
      const size_t base = doubles.size();
      doubles.resize(base + rows);
      std::memcpy(doubles.data() + base, p, rows * 8);
      for (size_t w = 0; w < words; ++w) {
        uint64_t bits = null_bitmap[w];
        while (bits != 0) {
          const int bit = __builtin_ctzll(bits);
          bits &= bits - 1;
          doubles[base + w * simd::kWordBits + static_cast<size_t>(bit)] = 0.0;
        }
      }
      break;
    }
    case TypeKind::kString: {
      // Variable-width: lengths gate every step, so keep the per-row loop.
      // Bounds checks compare remaining lengths, never advanced pointers: a
      // corrupt len near UINT32_MAX could push `p + len` past the end of the
      // chunk's allocation, and forming such a pointer is UB before any
      // comparison runs.
      for (size_t i = 0; i < rows; ++i) {
        if (static_cast<size_t>(chunk_end - p) < 4) return Status::Corruption("string decode overflow in " + path_);
        const uint32_t len = GetU32(p);
        p += 4;
        if (len > static_cast<size_t>(chunk_end - p)) return Status::Corruption("string data overflow in " + path_);
        if (nulls[i] != 0) {
          out->AppendNull();
        } else {
          out->AppendString(std::string(p, len));
        }
        p += len;
      }
      break;
    }
  }
  return Status::Ok();
}

Result<RecordBatch> CorcReader::ReadStripe(
    size_t stripe, const std::vector<int>& columns,
    const std::optional<std::vector<bool>>& include, ReadStats* stats) {
  if (!open_) return Status::Internal("CorcReader not opened");
  if (stripe >= footer_.stripes.size()) {
    return Status::OutOfRange("stripe index out of range");
  }
  const StripeInfo& info = footer_.stripes[stripe];
  const size_t groups = info.num_row_groups();
  if (include.has_value() && include->size() != groups) {
    return Status::InvalidArgument("inclusion vector size mismatch");
  }

  Schema out_schema;
  for (int c : columns) {
    if (c < 0 || static_cast<size_t>(c) >= footer_.schema.num_fields()) {
      return Status::OutOfRange("column index out of range");
    }
    out_schema.AddField(footer_.schema.field(static_cast<size_t>(c)).name,
                        footer_.schema.field(static_cast<size_t>(c)).type);
  }
  RecordBatch batch(out_schema);

  for (size_t g = 0; g < groups; ++g) {
    const size_t group_rows = std::min<size_t>(
        footer_.rows_per_group,
        info.num_rows - g * static_cast<size_t>(footer_.rows_per_group));
    if (include.has_value() && !(*include)[g]) {
      if (stats != nullptr) ++stats->row_groups_skipped;
      continue;
    }
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      const size_t c = static_cast<size_t>(columns[ci]);
      MAXSON_RETURN_NOT_OK(DecodeRowGroup(info.columns[c].row_groups[g],
                                          out_schema.field(ci).type,
                                          group_rows, &batch.column(ci),
                                          stats));
    }
    if (stats != nullptr) stats->rows_read += group_rows;
  }
  return batch;
}

Result<RecordBatch> CorcReader::ReadAll(ReadStats* stats) {
  std::vector<int> columns;
  for (size_t i = 0; i < footer_.schema.num_fields(); ++i) {
    columns.push_back(static_cast<int>(i));
  }
  RecordBatch out(footer_.schema);
  for (size_t s = 0; s < footer_.stripes.size(); ++s) {
    MAXSON_ASSIGN_OR_RETURN(RecordBatch part,
                            ReadStripe(s, columns, std::nullopt, stats));
    for (size_t r = 0; r < part.num_rows(); ++r) {
      out.AppendRow(part.GetRow(r));
    }
  }
  return out;
}

}  // namespace maxson::storage
