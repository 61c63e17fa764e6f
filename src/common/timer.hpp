// Wall-clock timing helpers used by the benchmark harness and the MR
// engine's per-round accounting.
#pragma once

#include <chrono>
#include <cstdint>

namespace gclus {

/// Monotonic stopwatch.  Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] std::int64_t elapsed_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  [[nodiscard]] std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates time across start/stop intervals (e.g. per-phase totals).
class AccumTimer {
 public:
  void start() { t_.reset(); }
  void stop() { total_s_ += t_.elapsed_s(); }
  [[nodiscard]] double total_s() const { return total_s_; }

 private:
  Timer t_;
  double total_s_ = 0.0;
};

}  // namespace gclus
