#ifndef MAXSON_JSON_ONDEMAND_PARSER_H_
#define MAXSON_JSON_ONDEMAND_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/json_path.h"
#include "json/ondemand_tape.h"

namespace maxson::json {

/// Forward-only, lazily-materializing JSON parser in the spirit of
/// On-Demand (Keiser & Lemire): one SIMD classification pass
/// (simd::ClassifyJsonFull) builds a per-record tape of structural
/// positions, and JSONPaths are resolved by cursoring through the tape —
/// sibling subtrees the query never asked for are skipped via the tape's
/// open/close match links without token-parsing their bytes.
///
/// Contract vs the DOM baseline (json::GetJsonObject):
///   - Identical rendering: requested values are materialized by running
///     the DOM parser on exactly the extracted span and rendering with
///     RenderGetJsonObjectResult, so successful extractions are
///     byte-identical to the DOM path by construction. Duplicate keys
///     resolve to the last occurrence, matching JsonValue::Set overwrite.
///   - Typed errors: structural malformation visible in the index
///     (unterminated strings, unbalanced containers, nesting past the DOM
///     depth cap, trailing garbage) and malformed requested values return
///     ParseError; missing paths return the same NotFound the DOM path
///     produces.
///   - Documented divergence: token-level garbage confined to a subtree
///     the query skips is not detected (the bytes are never touched) —
///     the one case where on-demand succeeds and DOM errors. That keeps
///     this tier a library and a bench subject: src/engine/ and src/core/
///     do not include it (tools/lint.py, rule ondemand-query-path).
class OndemandParser {
 public:
  OndemandParser() = default;

  /// Resolves `path` within `json`, rendered get_json_object-style.
  /// Records with a non-container root (scalar documents) are delegated to
  /// the DOM evaluator — there is nothing to skip.
  Result<std::string> Extract(std::string_view json, const JsonPath& path);

  /// Resolves every path in `paths` over one shared tape (one
  /// classification pass per record, however many columns a scan derives
  /// from it). Appends one Result per path to `*out` in order. Returns
  /// non-OK only for record-level failures (structural malformation), in
  /// which case `*out` is untouched and the caller should fall back to the
  /// DOM parser for the whole record.
  Status ExtractAll(std::string_view json, const std::vector<JsonPath>& paths,
                    std::vector<Result<std::string>>* out);

  /// Telemetry across all Extract/ExtractAll calls: records that got a
  /// tape, and bytes the cursor skipped past without token-parsing
  /// (record size minus materialized value spans and compared keys).
  uint64_t records_indexed() const { return records_indexed_; }
  uint64_t skipped_bytes() const { return skipped_bytes_; }

 private:
  ondemand_internal::StructuralTape tape_;
  uint64_t records_indexed_ = 0;
  uint64_t skipped_bytes_ = 0;
};

}  // namespace maxson::json

#endif  // MAXSON_JSON_ONDEMAND_PARSER_H_
