#include "storage/types.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace maxson::storage {

const char* TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBool:
      return "bool";
    case TypeKind::kInt64:
      return "int64";
    case TypeKind::kDouble:
      return "double";
    case TypeKind::kString:
      return "string";
  }
  return "?";
}

double Value::AsDouble() const {
  if (is_int64()) return static_cast<double>(int64_value());
  if (is_double()) return double_value();
  if (is_bool()) return bool_value() ? 1.0 : 0.0;
  if (is_string()) {
    // Textual numbers (e.g. values parsed out of JSON) coerce like Spark's
    // implicit cast; non-numeric strings become 0.
    char* end = nullptr;
    const std::string& s = string_value();
    double d = std::strtod(s.c_str(), &end);
    return end == s.c_str() ? 0.0 : d;
  }
  return 0.0;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return bool_value() ? "true" : "false";
  if (is_int64()) return std::to_string(int64_value());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", double_value());
    return buf;
  }
  return string_value();
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  const bool both_numeric =
      (is_int64() || is_double() || is_bool()) &&
      (other.is_int64() || other.is_double() || other.is_bool());
  if (is_int64() && other.is_int64()) {
    const int64_t a = int64_value();
    const int64_t b = other.int64_value();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (both_numeric) {
    const double a = AsDouble();
    const double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string() && other.is_string()) {
    return string_value().compare(other.string_value());
  }
  // Mixed string/numeric: compare textually, matching Hive's loose semantics.
  const std::string a = ToString();
  const std::string b = other.ToString();
  return a.compare(b);
}

bool ParseFiniteNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && end == text.c_str() + text.size() &&
         std::isfinite(*out);
}

Value CastToDouble(const Value& v) {
  return v.is_null() ? Value::Null() : Value::Double(v.AsDouble());
}

Value CastToInt(const Value& v) {
  if (v.is_null() || v.is_int64()) return v;
  // [-2^63, 2^63) holds every double whose truncation fits in int64; NaN
  // fails both comparisons.
  const double d = v.AsDouble();
  return d >= -9223372036854775808.0 && d < 9223372036854775808.0
             ? Value::Int64(static_cast<int64_t>(d))
             : Value::Null();
}

}  // namespace maxson::storage
