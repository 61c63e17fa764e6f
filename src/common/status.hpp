// Recoverable error handling: Status / StatusOr<T>.
//
// GCLUS_CHECK remains the right tool for API contract violations (caller
// bugs), but environmental failures — truncated files, checksum
// mismatches, unwritable spill directories, ENOSPC mid-shuffle — must be
// reportable to a long-lived caller instead of aborting the process.
// Functions on those paths return Status (or StatusOr<T> when they
// produce a value); callers propagate with GCLUS_RETURN_IF_ERROR /
// GCLUS_ASSIGN_OR_RETURN or translate into their own failure domain (the
// CLI exits 2, the dataset cache regenerates, the MR engine degrades to
// in-memory shuffle).
//
// Code taxonomy (who is at fault / what to do about it):
//   kInvalidArgument    the input is not what it claims to be (bad magic,
//                       unknown flags, malformed parameter) — reject.
//   kDataLoss           the input was once valid but is no longer intact
//                       (truncation, checksum mismatch, torn spill run) —
//                       reject; regenerate if a builder exists.
//   kIoError            the environment failed hard (open/seek/write
//                       error) — fail over or report.
//   kResourceExhausted  out of disk/memory budget (ENOSPC) — degrade.
//   kUnavailable        transient (EINTR/EAGAIN/short write) — retry with
//                       backoff; escalates to kIoError when retries are
//                       exhausted.
//
// Transient-error retry uses one process-wide policy (io_retry_policy),
// tunable via GCLUS_IO_RETRIES / GCLUS_IO_BACKOFF_US.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.hpp"

namespace gclus {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kDataLoss,
  kIoError,
  kResourceExhausted,
  kUnavailable,
};

/// Stable upper-snake name ("DATA_LOSS") for messages and CLI output.
[[nodiscard]] const char* status_code_name(StatusCode code);

class [[nodiscard]] Status {
 public:
  /// OK.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    GCLUS_DCHECK(code != StatusCode::kOk || message_.empty(),
                 "OK status carries no message");
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// True for errors worth retrying with backoff.
  [[nodiscard]] bool transient() const {
    return code_ == StatusCode::kUnavailable;
  }

  /// Prepends "context: " to the message — call sites add what they know
  /// (the path, the partition) as the error travels up.
  Status&& with_context(std::string_view context) && {
    if (!ok()) message_.insert(0, std::string(context) + ": ");
    return std::move(*this);
  }

  /// "DATA_LOSS: truncated CSR v2 file ..." (or "OK").
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

[[nodiscard]] inline Status OkStatus() { return {}; }
[[nodiscard]] inline Status InvalidArgumentError(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
[[nodiscard]] inline Status DataLossError(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
[[nodiscard]] inline Status IoError(std::string msg) {
  return {StatusCode::kIoError, std::move(msg)};
}
[[nodiscard]] inline Status ResourceExhaustedError(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
[[nodiscard]] inline Status UnavailableError(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}

/// Maps an errno to the taxonomy above (EINTR/EAGAIN → kUnavailable,
/// ENOSPC/EDQUOT/ENOMEM → kResourceExhausted, everything else kIoError)
/// with "context: strerror" as the message.
[[nodiscard]] Status status_from_errno(int err, std::string_view context);

/// A Status or a value; exactly one is active.  Error construction from a
/// Status must carry a non-OK code.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(*-explicit*)
    GCLUS_CHECK(!status_.ok(),
                "StatusOr constructed from OK status without a value");
  }
  StatusOr(T value)  // NOLINT(*-explicit-constructor)
      : value_(std::move(value)) {}

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const& { return status_; }
  [[nodiscard]] Status status() && { return std::move(status_); }

  /// Value accessors check ok() — touching the value of an error is a
  /// caller bug, not an environmental failure.
  [[nodiscard]] T& value() & {
    GCLUS_CHECK(ok(), "StatusOr::value on error: ", status_.to_string());
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    GCLUS_CHECK(ok(), "StatusOr::value on error: ", status_.to_string());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    GCLUS_CHECK(ok(), "StatusOr::value on error: ", status_.to_string());
    return *std::move(value_);
  }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T&& operator*() && { return std::move(*this).value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Bounded exponential backoff for kUnavailable errors.  `attempts` counts
/// total tries (first try included), so 1 disables retry entirely.
struct RetryPolicy {
  int attempts = 4;
  std::uint32_t initial_backoff_us = 100;
  /// Each sleep is this many times the previous one.
  static constexpr double multiplier = 4.0;
};

/// The process-wide policy: GCLUS_IO_RETRIES (total attempts, 1..100) and
/// GCLUS_IO_BACKOFF_US (first sleep, 0..10^7 µs), read through env_u64 —
/// a malformed or out-of-range value warns once and keeps the default.
[[nodiscard]] const RetryPolicy& io_retry_policy();

namespace detail {
void backoff_sleep_us(std::uint32_t us);
}  // namespace detail

/// Runs `fn` (any Status-returning callable) under `policy`: transient
/// errors sleep and retry; the final transient error is escalated to
/// kIoError so callers never see kUnavailable escape a retry loop.
/// `retries`, when non-null, accumulates the number of retries performed.
template <typename Fn>
Status retry_transient(const RetryPolicy& policy, Fn&& fn,
                       std::uint64_t* retries = nullptr) {
  double backoff_us = policy.initial_backoff_us;
  for (int attempt = 1;; ++attempt) {
    Status st = fn();
    if (!st.transient()) return st;
    if (attempt >= policy.attempts) {
      return Status(StatusCode::kIoError,
                    st.message() + " (giving up after " +
                        std::to_string(attempt) + " attempts)");
    }
    if (retries != nullptr) ++*retries;
    detail::backoff_sleep_us(static_cast<std::uint32_t>(backoff_us));
    backoff_us *= policy.multiplier;
  }
}

}  // namespace gclus

/// Propagates a non-OK Status from any Status-returning expression.
#define GCLUS_RETURN_IF_ERROR(expr)                   \
  do {                                                \
    if (auto _gclus_st = (expr); !_gclus_st.ok()) {   \
      return _gclus_st;                               \
    }                                                 \
  } while (0)

#define GCLUS_STATUS_CONCAT_INNER_(a, b) a##b
#define GCLUS_STATUS_CONCAT_(a, b) GCLUS_STATUS_CONCAT_INNER_(a, b)

/// `GCLUS_ASSIGN_OR_RETURN(auto x, LoadThing(path));` — unwraps a
/// StatusOr into `lhs` or returns its error.
#define GCLUS_ASSIGN_OR_RETURN(lhs, expr)                            \
  GCLUS_ASSIGN_OR_RETURN_IMPL_(                                      \
      GCLUS_STATUS_CONCAT_(_gclus_statusor_, __COUNTER__), lhs, expr)

#define GCLUS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) {                                   \
    return std::move(tmp).status();                  \
  }                                                  \
  lhs = std::move(tmp).value()
