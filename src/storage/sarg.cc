#include "storage/sarg.h"

namespace maxson::storage {

void ColumnStats::Update(const Value& v) {
  ++value_count;
  if (v.is_null()) {
    ++null_count;
    return;
  }
  FoldMinMax(v);
}

void ColumnStats::FoldMinMax(const Value& v) {
  if (min.is_null() || v.Compare(min) < 0) min = v;
  if (max.is_null() || v.Compare(max) > 0) max = v;
}

bool PrunesInFilterOrder(TypeKind column_type, const SargLeaf& leaf) {
  if (leaf.op == SargOp::kIsNull || leaf.op == SargOp::kIsNotNull) return true;
  const bool text_order =
      leaf.cast == SargCast::kNone && column_type == TypeKind::kString;
  return leaf.literal.is_string() ? text_order
                                  : !leaf.literal.is_null() && !text_order;
}

SargResult SearchArgument::EvaluateLeaf(const SargLeaf& leaf,
                                        const ColumnStats& stats) {
  switch (leaf.op) {
    case SargOp::kIsNull:
      return stats.null_count > 0 ? SargResult::kMaybe : SargResult::kNo;
    case SargOp::kIsNotNull:
      return stats.all_null() ? SargResult::kNo : SargResult::kMaybe;
    default:
      break;
  }
  if (stats.all_null()) return SargResult::kNo;  // comparisons never match NULL
  const Value& lit = leaf.literal;
  // min/max were selected under the group's own ordering (numeric for
  // numbers, lexicographic for strings). Comparing them against a literal
  // of the other class would use the textual mixed-type ordering, under
  // which they are not bounds at all: a row can compare below the literal
  // while the group's numeric min compares above it. Range pruning is
  // unsound there, so answer kMaybe and let row-level evaluation decide.
  const auto is_numeric = [](const Value& v) {
    return v.is_int64() || v.is_double() || v.is_bool();
  };
  if (is_numeric(lit) != is_numeric(stats.min) ||
      lit.is_string() != stats.min.is_string()) {
    return SargResult::kMaybe;
  }
  // Both casts are monotone, so cast bounds bound the cast values; a cast
  // compared with a string compares text, and a bound to_int cannot
  // represent bounds nothing.
  Value cast_min;
  Value cast_max;
  if (leaf.cast != SargCast::kNone) {
    if (!is_numeric(lit)) return SargResult::kMaybe;
    const auto cast = leaf.cast == SargCast::kToInt ? CastToInt : CastToDouble;
    cast_min = cast(stats.min);
    cast_max = cast(stats.max);
    if (cast_min.is_null() || cast_max.is_null()) return SargResult::kMaybe;
  }
  const Value& min = leaf.cast != SargCast::kNone ? cast_min : stats.min;
  const Value& max = leaf.cast != SargCast::kNone ? cast_max : stats.max;
  const int cmp_min = min.Compare(lit);  // min vs literal
  const int cmp_max = max.Compare(lit);  // max vs literal
  switch (leaf.op) {
    case SargOp::kEq:
      // Match possible iff min <= lit <= max.
      return (cmp_min <= 0 && cmp_max >= 0) ? SargResult::kMaybe
                                            : SargResult::kNo;
    case SargOp::kNe:
      // Only excludable when every value equals the literal.
      return (cmp_min == 0 && cmp_max == 0) ? SargResult::kNo
                                            : SargResult::kMaybe;
    case SargOp::kLt:
      return cmp_min < 0 ? SargResult::kMaybe : SargResult::kNo;
    case SargOp::kLe:
      return cmp_min <= 0 ? SargResult::kMaybe : SargResult::kNo;
    case SargOp::kGt:
      return cmp_max > 0 ? SargResult::kMaybe : SargResult::kNo;
    case SargOp::kGe:
      return cmp_max >= 0 ? SargResult::kMaybe : SargResult::kNo;
    case SargOp::kIsNull:
    case SargOp::kIsNotNull:
      break;
  }
  return SargResult::kMaybe;
}

}  // namespace maxson::storage
