#ifndef MAXSON_STORAGE_SARG_H_
#define MAXSON_STORAGE_SARG_H_

#include <string>
#include <vector>

#include "storage/types.h"

namespace maxson::storage {

/// Per-row-group column statistics maintained by the CORC writer and used by
/// SARG evaluation to skip row groups (the ORC "row index" of the paper).
struct ColumnStats {
  Value min;        // NULL when the group is all-null
  Value max;        // NULL when the group is all-null
  uint64_t null_count = 0;
  uint64_t value_count = 0;  // total rows including nulls

  bool all_null() const { return null_count == value_count; }

  /// Folds one cell into the statistics.
  void Update(const Value& v);
  /// Folds a non-null value into min/max only (the first of equals wins).
  void FoldMinMax(const Value& v);
};

/// Three-valued answer of a SARG test against row-group statistics.
enum class SargResult {
  kNo,     // no row in the group can match; the group is skipped
  kMaybe,  // statistics cannot exclude the group; it must be read
};

/// Comparison operator of a SARG leaf.
enum class SargOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIsNull,
  kIsNotNull,
};

/// The cast the residual filter applies to a leaf's column before it
/// compares: SQL `to_int` (CastToInt) or `to_double` (CastToDouble).
enum class SargCast : uint8_t { kNone, kToInt, kToDouble };

/// One leaf predicate: `cast(column) <op> literal`.
struct SargLeaf {
  std::string column;
  SargOp op = SargOp::kEq;
  Value literal;
  SargCast cast = SargCast::kNone;
};

/// Whether row-group bounds order `leaf` the way the residual filter
/// compares it on a `column_type` column: a numeric literal through a cast
/// or on a numeric column, a string literal on an uncast string column, or
/// a NULL test. Other pairings compare textually, which no bound orders.
bool PrunesInFilterOrder(TypeKind column_type, const SargLeaf& leaf);

/// Search ARGument: a conjunction of leaf predicates, the simplified
/// expression form that readers push down to row-group indexes (Section
/// IV-F). Only conjunctions are pushed down — a disjunction stays in the
/// engine's Filter operator — mirroring ORC's SearchArgument in practice.
class SearchArgument {
 public:
  SearchArgument() = default;

  void AddLeaf(SargLeaf leaf) { leaves_.push_back(std::move(leaf)); }
  const std::vector<SargLeaf>& leaves() const { return leaves_; }
  bool empty() const { return leaves_.empty(); }

  /// Tests one leaf against the statistics of its column, casting the
  /// bounds like the leaf's column.
  static SargResult EvaluateLeaf(const SargLeaf& leaf,
                                 const ColumnStats& stats);

  /// Tests the conjunction: kNo when any leaf excludes the group.
  /// `stats_for_column` resolves a leaf's column to its statistics; leaves on
  /// columns without statistics evaluate to kMaybe.
  template <typename StatsLookup>
  SargResult Evaluate(const StatsLookup& stats_for_column) const {
    for (const SargLeaf& leaf : leaves_) {
      const ColumnStats* stats = stats_for_column(leaf.column);
      if (stats == nullptr) continue;
      if (EvaluateLeaf(leaf, *stats) == SargResult::kNo) {
        return SargResult::kNo;
      }
    }
    return SargResult::kMaybe;
  }

 private:
  std::vector<SargLeaf> leaves_;
};

}  // namespace maxson::storage

#endif  // MAXSON_STORAGE_SARG_H_
