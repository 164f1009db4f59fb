#ifndef MAXSON_STORAGE_CORC_WRITER_H_
#define MAXSON_STORAGE_CORC_WRITER_H_

#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/corc_format.h"
#include "storage/record_batch.h"

namespace maxson::storage {

/// Tuning knobs of the CORC writer.
struct CorcWriterOptions {
  /// Rows per row group (ORC default in the paper: 10,000). Tests shrink
  /// this so skipping behaviour is exercised with small data.
  uint32_t rows_per_group = kDefaultRowsPerGroup;
  /// Rows per stripe. The paper's pushdown sharing assumes single-stripe
  /// files ("we only perform this optimization when a file has only one
  /// stripe"); the default keeps files single-stripe unless exceeded.
  uint32_t rows_per_stripe = 1u << 20;
  /// Output format version: kCorcVersionV3 (adaptive chunk encodings) or
  /// kCorcVersion (v2, plain chunks — byte-identical to pre-encoding
  /// writers, for cross-version matrices). Other values are rejected at
  /// Open().
  uint32_t format_version = kCorcVersionV3;
};

/// Writer-side encoding accounting of one file: how many plain bytes went
/// in, how many encoded bytes came out, and how often each encoding won.
/// Feeds the maxson_corc_raw_bytes_total / maxson_corc_encoded_bytes_total /
/// maxson_corc_chunks_total metric series via the cacher.
struct CorcWriteStats {
  uint64_t raw_bytes = 0;      // plain (decoded) chunk bytes
  uint64_t encoded_bytes = 0;  // chunk bytes as written to disk
  uint64_t chunks[kNumChunkEncodings] = {0, 0, 0, 0};  // by ChunkEncoding id

  void Add(const CorcWriteStats& other) {
    raw_bytes += other.raw_bytes;
    encoded_bytes += other.encoded_bytes;
    for (int e = 0; e < kNumChunkEncodings; ++e) chunks[e] += other.chunks[e];
  }
};

/// Streaming writer for one CORC file.
///
/// Usage: construct, Append rows / batches, Close(). All bytes are staged
/// at `path + ".tmp"`; only a fully successful Close() fsyncs the staged
/// file and renames it to `path`, so readers never observe a half-written
/// file — a ".tmp" suffix is invisible to FileSystem::ListSplits. Callers
/// must check Close(): a destroyed writer that was never closed (or whose
/// Close failed) aborts, deleting the staged file instead of publishing it.
class CorcWriter {
 public:
  CorcWriter(std::string path, Schema schema,
             CorcWriterOptions options = CorcWriterOptions());
  ~CorcWriter();

  CorcWriter(const CorcWriter&) = delete;
  CorcWriter& operator=(const CorcWriter&) = delete;

  /// Opens the staging file and writes the leading magic. Must be called
  /// first.
  Status Open();

  /// Appends all rows of `batch` (schema must match field count and types).
  Status WriteBatch(const RecordBatch& batch);

  /// Appends one row of boxed values.
  Status AppendRow(const std::vector<Value>& row);

  /// Flushes buffered rows, writes the checksummed footer, fsyncs, and
  /// atomically publishes the staged file at `path`. Idempotent. On failure
  /// the staged file is aborted — the writer cannot be retried and nothing
  /// appears at `path`.
  Status Close();

  /// Deletes the staged file without publishing. Idempotent; a no-op after
  /// a successful Close().
  Status Abort();

  uint64_t rows_written() const { return rows_written_; }

  /// Encoding accounting so far (complete after a successful Close()).
  const CorcWriteStats& write_stats() const { return write_stats_; }

 private:
  Status FlushStripe();
  /// Writes to the staging file via the fault-injection hook.
  Status WriteRaw(const char* data, size_t n);
  /// Footer + fsync + rename; factored out so Close can abort on failure.
  Status FinishAndPublish();
  /// Builds one plain (v2-layout) chunk. Fails with InvalidArgument on a
  /// string value whose length cannot be represented in the per-row u32
  /// length field (>= 4 GiB) — a truncated length would checksum cleanly
  /// and corrupt every later row in the chunk undetectably.
  Status EncodeRowGroup(const ColumnVector& column, size_t begin, size_t end,
                        std::string* out, ColumnStats* stats) const;

  std::string path_;
  std::string tmp_path_;
  Schema schema_;
  CorcWriterOptions options_;
  std::ofstream file_;
  bool open_ = false;
  bool closed_ = false;
  uint64_t rows_written_ = 0;
  uint64_t file_offset_ = 0;
  RecordBatch buffer_;
  std::vector<StripeInfo> stripes_;
  CorcWriteStats write_stats_;
};

}  // namespace maxson::storage

#endif  // MAXSON_STORAGE_CORC_WRITER_H_
