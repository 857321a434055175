// Status / StatusOr error handling, in the style used by main-memory storage
// engines (RocksDB, Arrow): library code never throws; fallible operations
// return Status or StatusOr<T>.
#ifndef TICKPOINT_UTIL_STATUS_H_
#define TICKPOINT_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace tickpoint {

/// Coarse error classification carried by every non-OK Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kCorruption,
  kFailedPrecondition,
  kInternal,
};

/// Returns a human-readable name for a StatusCode ("OK", "IOError", ...).
const char* StatusCodeName(StatusCode code);

/// The result of an operation that can fail. Cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Modeled after arrow::Result.
template <typename T>
class StatusOr {
 public:
  /// Implicit conversion from a value (success).
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit conversion from a non-OK status (failure).
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT
    if (std::get<Status>(rep_).ok()) {
      std::fprintf(stderr, "StatusOr constructed from OK status\n");
      std::abort();
    }
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(rep_);
  }

  /// Precondition: ok(). Aborts otherwise.
  T& value() & {
    CheckOk();
    return std::get<T>(rep_);
  }
  const T& value() const& {
    CheckOk();
    return std::get<T>(rep_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::fprintf(stderr, "StatusOr::value() on error: %s\n",
                   std::get<Status>(rep_).ToString().c_str());
      std::abort();
    }
  }

  std::variant<T, Status> rep_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);
}  // namespace internal

// Invariant checks. TP_CHECK is always on (cheap, used on cold paths and in
// constructors); TP_DCHECK compiles out in NDEBUG builds (hot paths).
#define TP_CHECK(expr)                                                \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::tickpoint::internal::CheckFailed(__FILE__, __LINE__, #expr,   \
                                         std::string());              \
    }                                                                 \
  } while (0)

#define TP_CHECK_OK(status_expr)                                      \
  do {                                                                \
    const ::tickpoint::Status _tp_st = (status_expr);                 \
    if (!_tp_st.ok()) {                                               \
      ::tickpoint::internal::CheckFailed(__FILE__, __LINE__,          \
                                         #status_expr,                \
                                         _tp_st.ToString());          \
    }                                                                 \
  } while (0)

#ifdef NDEBUG
#define TP_DCHECK(expr) \
  do {                  \
  } while (0)
#else
#define TP_DCHECK(expr) TP_CHECK(expr)
#endif

#define TP_RETURN_NOT_OK(status_expr)               \
  do {                                              \
    ::tickpoint::Status _tp_st = (status_expr);     \
    if (!_tp_st.ok()) return _tp_st;                \
  } while (0)

// Two-level paste so __LINE__ expands: each use in a scope gets its own
// temporary.
#define TP_CONCAT_INNER(a, b) a##b
#define TP_CONCAT(a, b) TP_CONCAT_INNER(a, b)

#define TP_ASSIGN_OR_RETURN(lhs, statusor_expr) \
  TP_ASSIGN_OR_RETURN_IMPL(TP_CONCAT(_tp_so_, __LINE__), lhs, statusor_expr)
#define TP_ASSIGN_OR_RETURN_IMPL(so, lhs, statusor_expr) \
  auto so = (statusor_expr);                             \
  if (!so.ok()) {                                        \
    return so.status();                                  \
  }                                                      \
  lhs = std::move(so).value();

}  // namespace tickpoint

#endif  // TICKPOINT_UTIL_STATUS_H_
