#ifndef MAXSON_STORAGE_COLUMN_VECTOR_H_
#define MAXSON_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/types.h"

namespace maxson::storage {

/// Typed column of cells with a validity vector. Storage is one contiguous
/// typed array per column (plus a byte-per-row null vector), the layout the
/// CORC reader decodes into and the engine's operators consume.
class ColumnVector {
 public:
  explicit ColumnVector(TypeKind type = TypeKind::kString) : type_(type) {}

  TypeKind type() const { return type_; }
  size_t size() const { return nulls_.size(); }

  bool IsNull(size_t i) const { return nulls_[i] != 0; }

  void AppendNull() {
    nulls_.push_back(1);
    AppendDefaultSlot();
  }
  void AppendBool(bool v) {
    MAXSON_CHECK(type_ == TypeKind::kBool);
    nulls_.push_back(0);
    bools_.push_back(v ? 1 : 0);
  }
  void AppendInt64(int64_t v) {
    MAXSON_CHECK(type_ == TypeKind::kInt64);
    nulls_.push_back(0);
    ints_.push_back(v);
  }
  void AppendDouble(double v) {
    MAXSON_CHECK(type_ == TypeKind::kDouble);
    nulls_.push_back(0);
    doubles_.push_back(v);
  }
  void AppendString(std::string v) {
    MAXSON_CHECK(type_ == TypeKind::kString);
    nulls_.push_back(0);
    strings_.push_back(std::move(v));
  }
  /// Appends any Value; NULL and type-matching values only.
  void AppendValue(const Value& v);

  /// Moves every cell of `other` (same type) onto the end of this column;
  /// `other` is left empty. Bulk path for merging per-split scan buffers;
  /// an empty column adopts `other`'s storage without copying.
  void AppendColumn(ColumnVector&& other) {
    MAXSON_CHECK(type_ == other.type_);
    if (nulls_.empty()) {
      std::swap(*this, other);
      return;
    }
    nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
    bools_.insert(bools_.end(), other.bools_.begin(), other.bools_.end());
    ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
    doubles_.insert(doubles_.end(), other.doubles_.begin(),
                    other.doubles_.end());
    strings_.insert(strings_.end(),
                    std::make_move_iterator(other.strings_.begin()),
                    std::make_move_iterator(other.strings_.end()));
    other = ColumnVector(type_);
  }

  bool GetBool(size_t i) const { return bools_[i] != 0; }
  int64_t GetInt64(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  const std::string& GetString(size_t i) const { return strings_[i]; }

  /// Boxes cell `i` into a Value (NULL-aware).
  Value GetValue(size_t i) const;

  /// Direct typed storage (reader/writer fast paths). The null vector holds
  /// exactly 0 or 1 per row and every null row's typed slot holds the zero
  /// default, so whole slices can be memcpy'd into the CORC row-group
  /// encoding without per-row normalization.
  std::vector<int64_t>& ints() { return ints_; }
  std::vector<double>& doubles() { return doubles_; }
  std::vector<std::string>& strings() { return strings_; }
  std::vector<uint8_t>& bools() { return bools_; }
  std::vector<uint8_t>& nulls() { return nulls_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Sum of cell payload sizes, for cache budgeting and metrics.
  uint64_t ByteSize() const;

 private:
  void AppendDefaultSlot() {
    switch (type_) {
      case TypeKind::kBool:
        bools_.push_back(0);
        break;
      case TypeKind::kInt64:
        ints_.push_back(0);
        break;
      case TypeKind::kDouble:
        doubles_.push_back(0.0);
        break;
      case TypeKind::kString:
        strings_.emplace_back();
        break;
    }
  }

  TypeKind type_;
  std::vector<uint8_t> nulls_;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace maxson::storage

#endif  // MAXSON_STORAGE_COLUMN_VECTOR_H_
