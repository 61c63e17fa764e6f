// RunContext — the execution environment shared by every algorithm entry
// point in the library.
//
// Before this existed each algorithm's options struct copy-pasted the same
// three fields (seed, ThreadPool*, GrowthOptions) with drifting coverage —
// DiameterOptions, for instance, had no growth knobs at all, so the
// direction-optimizing engine under it could not be tuned.  Now every
// XOptions struct *is a* RunContext (public inheritance), so:
//   * existing call sites (`opts.seed = 7; opts.pool = &pool;`) compile
//     unchanged;
//   * pipelines propagate the whole environment in one assignment
//     (`copts.context() = options.context();`) instead of field-by-field;
//   * cross-cutting additions such as the telemetry sink reach every
//     algorithm at once.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/traversal.hpp"

namespace gclus {

class ThreadPool;

/// Receiver for named scalar metrics emitted during a run (iteration
/// counts, R_ALG, growth steps...).  Implementations must tolerate calls
/// from the thread invoking the algorithm (never from pool workers).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void record(const char* key, double value) = 0;
};

/// TelemetrySink that keeps every event in emission order; the registry
/// adapters and benches read algorithm by-products (e.g. "cluster2.r_alg")
/// from it instead of widening return types.
class RecordingTelemetry final : public TelemetrySink {
 public:
  void record(const char* key, double value) override {
    events_.emplace_back(key, value);
  }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Last recorded value for `key`; aborts if absent.
  [[nodiscard]] double value(const std::string& key) const;

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& events()
      const {
    return events_;
  }

  void clear() { events_.clear(); }

 private:
  std::vector<std::pair<std::string, double>> events_;
};

struct RunContext {
  /// Master seed; all per-phase randomness derives from it (derive_seed /
  /// counter-based keyed draws), so a RunContext is a complete replay key.
  std::uint64_t seed = 1;

  /// Thread pool; nullptr means the process-global pool.
  ThreadPool* pool = nullptr;

  /// Direction-optimizing growth-engine knobs (push/pull heuristic).
  GrowthOptions growth = default_growth_options();

  /// Optional metric sink; nullptr drops emissions.
  TelemetrySink* telemetry = nullptr;

  [[nodiscard]] ThreadPool& pool_or_global() const;

  /// Sub-stream seed for a named phase (see the tag registry in rng.hpp).
  [[nodiscard]] std::uint64_t derived_seed(std::uint64_t tag) const {
    return derive_seed(seed, tag);
  }

  void emit(const char* key, double value) const {
    if (telemetry != nullptr) telemetry->record(key, value);
  }

  /// The RunContext slice of a derived options struct — lets pipelines
  /// forward the full environment to a sub-phase in one assignment.
  [[nodiscard]] RunContext& context() { return *this; }
  [[nodiscard]] const RunContext& context() const { return *this; }
};

}  // namespace gclus
