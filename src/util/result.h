#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "util/status.h"

namespace mmlib {

namespace result_internal {

/// Failure handler for misused Result. util/ is the bottom layer of the
/// include DAG (tools/mmlint/layers.toml), so this header cannot reach for
/// check/check.h; it reports in the same `MMLIB_CHECK failed:` shape and
/// aborts so ctest and sanitizer runs surface a stack trace.
[[noreturn]] inline void ResultFatal(const char* file, int line,
                                     const std::string& message) {
  std::fprintf(stderr, "MMLIB_CHECK failed: %s:%d: %s\n", file, line,
               message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace result_internal

/// Result<T> holds either a value of type T or an error Status. It is the
/// return type of any mmlib operation that can fail and produces a value.
///
/// Usage:
///   Result<int> r = Parse(s);
///   if (!r.ok()) return r.status();
///   int v = r.value();
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a Result holding a value (implicit to allow `return value;`).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a Result holding an error (implicit to allow
  /// `return Status::NotFound(...)`). Must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      result_internal::ResultFatal(
          __FILE__, __LINE__,
          "Result constructed from OK status without value");
    }
  }

  bool ok() const { return value_.has_value(); }

  /// Returns the error status; OK when a value is held.
  const Status& status() const { return status_; }

  /// Returns the held value. Must only be called when ok().
  const T& value() const& {
    CheckHoldsValue();
    return *value_;
  }
  T& value() & {
    CheckHoldsValue();
    return *value_;
  }
  T&& value() && {
    CheckHoldsValue();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckHoldsValue() const {
    if (!ok()) {
      result_internal::ResultFatal(
          __FILE__, __LINE__,
          "value() on error Result: " + status_.ToString());
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace mmlib

