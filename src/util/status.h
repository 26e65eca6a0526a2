#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace mmlib {

/// Canonical error codes used across all mmlib modules. Modeled after the
/// error models of RocksDB / Arrow: recoverable errors travel through
/// Status/Result values, never through exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kCorruption,
  kIoError,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kOutOfRange,
  /// The service (or the simulated network path to it) transiently failed;
  /// the operation is safe to retry.
  kUnavailable,
  /// The operation did not complete within its (virtual) deadline; safe to
  /// retry.
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a status code, e.g. "NotFound".
std::string_view StatusCodeName(StatusCode code);

/// A Status holds the outcome of an operation that can fail: either OK or an
/// error code plus a message. Statuses are cheap to copy in the OK case.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Prefixes the error message with additional context; no-op on OK.
  Status WithContext(std::string_view context) const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Evaluates an expression producing a Status and returns it from the current
/// function if it is not OK.
#define MMLIB_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::mmlib::Status _mmlib_status = (expr);    \
    if (!_mmlib_status.ok()) {                 \
      return _mmlib_status;                    \
    }                                          \
  } while (false)

/// Evaluates an expression producing a Result<T>; on error returns the status,
/// otherwise assigns the value to `lhs`.
#define MMLIB_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                                \
  if (!var.ok()) {                                  \
    return var.status();                            \
  }                                                 \
  lhs = std::move(var).value();

#define MMLIB_ASSIGN_OR_RETURN_CONCAT_(a, b) a##b
#define MMLIB_ASSIGN_OR_RETURN_CONCAT(a, b) \
  MMLIB_ASSIGN_OR_RETURN_CONCAT_(a, b)

#define MMLIB_ASSIGN_OR_RETURN(lhs, expr)                                  \
  MMLIB_ASSIGN_OR_RETURN_IMPL(                                             \
      MMLIB_ASSIGN_OR_RETURN_CONCAT(_mmlib_result_, __LINE__), lhs, expr)

}  // namespace mmlib

