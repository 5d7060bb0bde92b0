#ifndef PQE_UTIL_STATUS_H_
#define PQE_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace pqe {

/// Error categories used across the library. Modelled on the Arrow/RocksDB
/// status idiom: library code never throws; fallible operations return a
/// Status (or Result<T>, see result.h).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed
  kNotSupported,      // input outside the supported fragment (e.g. self-joins)
  kNotFound,          // lookup miss (relation, vertex, ...)
  kOutOfRange,        // numeric/positional overflow
  kResourceExhausted, // configured budget exceeded (width, states, samples)
  kDeadlineExceeded,  // cooperative cancellation: deadline hit mid-run
  kInternal,          // invariant violation: indicates a library bug
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A cheap, copyable success/error value. The OK status carries no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace pqe

/// Propagates a non-OK status to the caller. Usable in functions returning
/// Status or Result<T> (Result is constructible from Status).
#define PQE_RETURN_IF_ERROR(expr)             \
  do {                                        \
    ::pqe::Status _st = (expr);               \
    if (!_st.ok()) return _st;                \
  } while (false)

#endif  // PQE_UTIL_STATUS_H_
