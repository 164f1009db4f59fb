#ifndef MAXSON_STORAGE_TYPES_H_
#define MAXSON_STORAGE_TYPES_H_

#include <cstdint>
#include <string>
#include <variant>

namespace maxson::storage {

/// Column types supported by the warehouse. JSON payload columns are kString
/// (the paper: "JSON data is often stored as String Types"). Declared in
/// widening order.
enum class TypeKind : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

const char* TypeKindName(TypeKind kind);

/// A single dynamically-typed cell value. Monostate encodes SQL NULL.
class Value {
 public:
  Value() = default;
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Storage(b)); }
  static Value Int64(int64_t i) { return Value(Storage(i)); }
  static Value Double(double d) { return Value(Storage(d)); }
  static Value String(std::string s) { return Value(Storage(std::move(s))); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  bool bool_value() const { return std::get<bool>(v_); }
  int64_t int64_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }

  /// Numeric view: ints widen to double; non-numeric returns 0.
  double AsDouble() const;

  /// Textual rendering for display and for string comparisons.
  std::string ToString() const;

  /// Total ordering used by ORDER BY and min/max statistics. NULL sorts
  /// first; values of different non-null types compare by numeric widening
  /// when both are numeric, otherwise by textual form.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  using Storage = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Storage v) : v_(std::move(v)) {}
  Storage v_;
};

/// True when all of `text` converts to a finite number `*out` under
/// AsDouble's strtod: not "", "12abc", "nan" or "inf".
bool ParseFiniteNumber(const std::string& text, double* out);

/// SQL `to_double`: AsDouble; NULL stays NULL.
Value CastToDouble(const Value& v);

/// SQL `to_int`: int64 unchanged, anything else AsDouble truncated toward
/// zero. NULL, NaN and values outside the int64 range give NULL.
Value CastToInt(const Value& v);

}  // namespace maxson::storage

#endif  // MAXSON_STORAGE_TYPES_H_
