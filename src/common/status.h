#ifndef WLM_COMMON_STATUS_H_
#define WLM_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace wlm {

/// Error categories used across the library. Modeled on the
/// RocksDB/Arrow convention of returning rich status objects instead of
/// throwing exceptions across API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,
  /// A workload-management control explicitly rejected the request
  /// (e.g., admission denied by a cost threshold).
  kRejected,
  /// The overload-protection layer shed the request (queue full, CoDel
  /// sojourn discipline, circuit breaker, or brownout). Distinct from
  /// kRejected so shed work is never accounted as an admission policy
  /// rejection or a fault abort.
  kOverloaded,
  kUnimplemented,
  kInternal,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value. `Status::OK()` carries no
/// allocation; error statuses carry a code and message.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Rejected(std::string msg) {
    return Status(StatusCode::kRejected, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsRejected() const { return code_ == StatusCode::kRejected; }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace wlm

/// Propagates an error status from an expression that yields `wlm::Status`.
#define WLM_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::wlm::Status _wlm_status = (expr);          \
    if (!_wlm_status.ok()) return _wlm_status;   \
  } while (false)

#endif  // WLM_COMMON_STATUS_H_
