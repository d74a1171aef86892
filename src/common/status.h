#pragma once

#include <string>
#include <string_view>
#include <utility>

/// \file status.h
/// Arrow/RocksDB-style Status type used as the error-handling currency across
/// the entire library. No exceptions cross public API boundaries.

namespace hyperq::common {

/// Machine-readable classification of an error.
enum class StatusCode : int {
  kOk = 0,
  kInvalid,              ///< invalid argument or malformed input
  kIOError,              ///< (simulated) storage / network failure
  kNotFound,             ///< missing object, table, key, ...
  kAlreadyExists,        ///< duplicate object on create
  kNotImplemented,       ///< unsupported feature reached
  kProtocolError,        ///< wire-protocol violation (framing, parcels)
  kParseError,           ///< SQL / ETL-script / data parse failure
  kTypeError,            ///< type mismatch or unsupported coercion
  kConversionError,      ///< data value failed conversion (e.g. bad DATE)
  kConstraintViolation,  ///< uniqueness or other integrity constraint
  kResourceExhausted,    ///< memory budget / credit pool misuse
  kCancelled,            ///< operation aborted by shutdown or caller
  kInternal,             ///< invariant breach; indicates a bug
};

/// Returns a stable human-readable name for a status code ("Invalid", ...).
std::string_view StatusCodeName(StatusCode code);

/// Result of an operation: either OK or a code plus message.
///
/// Cheap to move; OK carries no allocation. Follow the Arrow idiom:
///   HQ_RETURN_NOT_OK(DoThing());
///   Status s = ...; if (!s.ok()) return s;
///
/// [[nodiscard]] at class scope: a dropped Status is a swallowed error, so
/// every function returning one must have its result checked (or explicitly
/// voided with a comment saying why).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  /// Success singleton-style factory.
  static Status OK() { return Status(); }

  static Status Invalid(std::string msg) { return {StatusCode::kInvalid, std::move(msg)}; }
  static Status IOError(std::string msg) { return {StatusCode::kIOError, std::move(msg)}; }
  static Status NotFound(std::string msg) { return {StatusCode::kNotFound, std::move(msg)}; }
  static Status AlreadyExists(std::string msg) {
    return {StatusCode::kAlreadyExists, std::move(msg)};
  }
  static Status NotImplemented(std::string msg) {
    return {StatusCode::kNotImplemented, std::move(msg)};
  }
  static Status ProtocolError(std::string msg) {
    return {StatusCode::kProtocolError, std::move(msg)};
  }
  static Status ParseError(std::string msg) { return {StatusCode::kParseError, std::move(msg)}; }
  static Status TypeError(std::string msg) { return {StatusCode::kTypeError, std::move(msg)}; }
  static Status ConversionError(std::string msg) {
    return {StatusCode::kConversionError, std::move(msg)};
  }
  static Status ConstraintViolation(std::string msg) {
    return {StatusCode::kConstraintViolation, std::move(msg)};
  }
  static Status ResourceExhausted(std::string msg) {
    return {StatusCode::kResourceExhausted, std::move(msg)};
  }
  static Status Cancelled(std::string msg) { return {StatusCode::kCancelled, std::move(msg)}; }
  static Status Internal(std::string msg) { return {StatusCode::kInternal, std::move(msg)}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsInvalid() const { return code_ == StatusCode::kInvalid; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsTypeError() const { return code_ == StatusCode::kTypeError; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsProtocolError() const { return code_ == StatusCode::kProtocolError; }
  bool IsConversionError() const { return code_ == StatusCode::kConversionError; }
  bool IsConstraintViolation() const { return code_ == StatusCode::kConstraintViolation; }
  bool IsResourceExhausted() const { return code_ == StatusCode::kResourceExhausted; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Prefixes the message with additional context, keeping the code.
  Status WithContext(std::string_view context) const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

}  // namespace hyperq::common

/// Propagates a non-OK Status to the caller.
#define HQ_RETURN_NOT_OK(expr)                         \
  do {                                                 \
    ::hyperq::common::Status _st = (expr);             \
    if (!_st.ok()) return _st;                         \
  } while (0)

#define HQ_CONCAT_IMPL(a, b) a##b
#define HQ_CONCAT(a, b) HQ_CONCAT_IMPL(a, b)

/// Evaluates an expression returning Result<T>; on error propagates the
/// Status (moved out, not copied), otherwise assigns the value to `lhs`
/// (which may be a declaration).
#define HQ_ASSIGN_OR_RETURN(lhs, expr)                               \
  HQ_ASSIGN_OR_RETURN_IMPL(HQ_CONCAT(_hq_result_, __LINE__), lhs, expr)

#define HQ_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) return std::move(tmp).status(); \
  lhs = std::move(tmp).ValueOrDie();
