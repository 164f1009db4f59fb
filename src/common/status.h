#ifndef MAXSON_COMMON_STATUS_H_
#define MAXSON_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace maxson {

/// Machine-readable error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIoError,
  kParseError,
  kUnimplemented,
  kInternal,
  /// Stored data failed a structural or checksum validation (bad magic,
  /// malformed footer, CRC mismatch). Distinct from kIoError — the bytes
  /// were read fine but cannot be trusted — so readers of redundant data
  /// (cache tables mirroring raw tables) can degrade instead of failing.
  kCorruption,
  /// A capacity limit (admission slots, bounded queue) was hit. The request
  /// was rejected without side effects and may be retried later; callers use
  /// this to shed load instead of queueing without bound.
  kResourceExhausted,
};

/// Returns the canonical lowercase name of a status code (e.g. "parse error").
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: a code plus a human-readable message.
///
/// Library code never throws; every operation that can fail returns a Status
/// (or a Result<T>, see result.h). The default-constructed Status is OK.
///
/// [[nodiscard]]: silently dropping a returned Status hides real failures
/// (tools/lint.py guards the attribute; src/ builds with -Werror). Callers
/// that genuinely cannot act on an error must still inspect and report it.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace maxson

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define MAXSON_RETURN_NOT_OK(expr)                    \
  do {                                                \
    ::maxson::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                        \
  } while (false)

#endif  // MAXSON_COMMON_STATUS_H_
