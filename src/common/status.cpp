#include "common/status.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/parse.hpp"

namespace gclus {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable:
      break;
  }
  return "UNAVAILABLE";
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  std::string out = status_code_name(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status status_from_errno(int err, std::string_view context) {
  std::string msg(context);
  msg += ": ";
  msg += std::strerror(err);
  switch (err) {
    case EINTR:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return UnavailableError(std::move(msg));
    case ENOSPC:
    case ENOMEM:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return ResourceExhaustedError(std::move(msg));
    default:
      return IoError(std::move(msg));
  }
}

const RetryPolicy& io_retry_policy() {
  static const RetryPolicy policy = [] {
    RetryPolicy p;
    p.attempts = static_cast<int>(
        env_u64("GCLUS_IO_RETRIES", static_cast<std::uint64_t>(p.attempts),
                1, 100));
    p.initial_backoff_us = static_cast<std::uint32_t>(env_u64(
        "GCLUS_IO_BACKOFF_US", p.initial_backoff_us, 0, 10'000'000));
    return p;
  }();
  return policy;
}

namespace detail {

void backoff_sleep_us(std::uint32_t us) {
  if (us == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace detail

}  // namespace gclus
