#pragma once

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

/// \file result.h
/// Result<T>: a Status or a value, mirroring arrow::Result.

namespace hyperq::common {

/// Holds either a value of type T or an error Status.
///
/// Usage:
///   Result<int> ParsePort(std::string_view s);
///   HQ_ASSIGN_OR_RETURN(int port, ParsePort(text));
///
/// [[nodiscard]] at class scope for the same reason as Status: discarding a
/// Result drops both the value and the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Error constructor; `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT implicit
    assert(!status_.ok());
  }

  /// Value constructor.
  Result(T value) : value_(std::move(value)) {}  // NOLINT implicit

  Result(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(const Result&) = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const& { return status_; }
  /// Moves the Status (and its message) out of an expiring Result.
  Status status() && { return std::move(status_); }

  /// The contained value; undefined behaviour if !ok().
  const T& ValueOrDie() const& {
    assert(ok());
    return *value_;
  }
  T& ValueOrDie() & {
    assert(ok());
    return *value_;
  }
  T ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Moves the value out, or returns `alternative` when in error state.
  T ValueOr(T alternative) && {
    if (!ok()) return alternative;
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace hyperq::common
