#include "common/status.h"

namespace maxson {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "invalid argument";
    case StatusCode::kNotFound:
      return "not found";
    case StatusCode::kAlreadyExists:
      return "already exists";
    case StatusCode::kOutOfRange:
      return "out of range";
    case StatusCode::kIoError:
      return "I/O error";
    case StatusCode::kParseError:
      return "parse error";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kInternal:
      return "internal error";
    case StatusCode::kCorruption:
      return "corruption";
    case StatusCode::kResourceExhausted:
      return "resource exhausted";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace maxson
