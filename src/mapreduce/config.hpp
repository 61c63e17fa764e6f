// Configuration and accounting for the MR(M_G, M_L) model of
// Pietracaprina et al. [ICS'12], the computational model of the paper's §5.
//
// An MR algorithm is a sequence of rounds; in each round every key-value
// pair multiset is transformed by applying a reducer independently to each
// same-key group.  The model is parameterized by the global memory M_G and
// the per-reducer local memory M_L.  The engine tracks:
//   * rounds executed                       (the paper's complexity measure),
//   * key-value pairs shuffled per round    (communication volume),
//   * the largest single reducer input      (M_L compliance).
// M_L / M_G violations are recorded (Metrics::*_memory_exceeded), never
// enforced.
//
// Beyond accounting, the engine can genuinely bound its shuffle memory:
// `spill_memory_bytes` caps the bytes buffered during the map phase, with
// overflow written to per-partition sorted run files and sort-merged back
// in the reduce phase (see engine.hpp / spill.hpp).  Combiners — mapper-
// side associative folds — shrink runs before they hit the budget or the
// disk, mirroring the real systems the model abstracts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace gclus {
class ThreadPool;
}  // namespace gclus

namespace gclus::mr {

/// Explicitly unbounded spill budget: never spill, and never inherit the
/// GCLUS_MR_SPILL_BYTES override (unlike the default 0, which means
/// "unset" and does).
inline constexpr std::uint64_t kSpillUnbounded =
    std::numeric_limits<std::uint64_t>::max();

struct Config {
  /// Thread pool the map and reduce workers run on (not owned); nullptr
  /// means the process-global pool, the same rule as RunContext.
  ThreadPool* pool = nullptr;

  /// M_L: maximum number of key-value pairs a single reducer may receive.
  std::size_t local_memory_pairs = std::numeric_limits<std::size_t>::max();

  /// M_G: maximum number of key-value pairs alive in a round.
  std::uint64_t global_memory_pairs =
      std::numeric_limits<std::uint64_t>::max();

  /// Shuffle partition count.  Pinned in the config — never derived from
  /// the worker count — so the concatenated round output is a pure
  /// function of the input regardless of how many threads execute it.
  std::size_t num_partitions = 64;

  /// Byte budget for map-phase shuffle buffers (real record bytes, not
  /// pair counts).  0 = unbounded *and* overridable: engines constructed
  /// with the default 0 inherit GCLUS_MR_SPILL_BYTES when set; use
  /// kSpillUnbounded to demand in-memory execution regardless of the
  /// environment.  When the budget is exceeded, buffered records are
  /// sorted (and combined, if the round declares a combiner) and spilled
  /// to per-partition run files; honoured only for trivially-copyable
  /// key/value types.  The reduce phase streams spilled runs through
  /// bounded cursors sized from this budget, with an unavoidable
  /// single-pass floor of one record-sized buffer per merged run (see
  /// Metrics::peak_merge_buffer_bytes).
  std::uint64_t spill_memory_bytes = 0;

  /// Where spill files go; empty = the system temp directory.  The engine
  /// creates (and removes) a unique per-round subdirectory underneath.
  std::string spill_dir;

  /// Second-chance spill directory tried when the primary one fails
  /// (unwritable, disk full).  Empty = none; engines left empty inherit
  /// GCLUS_MR_SPILL_FALLBACK_DIR.  When the fallback also fails, the
  /// engine stops spilling and keeps the round's shuffle in memory — the
  /// output is identical, only the memory bound is lost (recorded in
  /// Metrics::spill_degraded_rounds).
  std::string spill_fallback_dir;

  /// Abort if the map phase ever buffers more than the spill budget
  /// allows (plus the unavoidable one-record-per-worker slack).  Set by
  /// GCLUS_MR_SPILL_STRICT=1 for engines that don't set it explicitly.
  bool spill_strict = false;

  /// Master switch for mapper-side combiners; rounds declaring a combiner
  /// run it only when this is true.  Off exists so tests can assert
  /// combiner-on/off equivalence and measure the shuffle reduction.
  bool enable_combiners = true;
};

struct Metrics {
  std::size_t rounds = 0;
  std::uint64_t pairs_shuffled = 0;   // total pairs entering the shuffle
  std::uint64_t bytes_shuffled = 0;   // same, in bytes
  std::size_t max_reducer_pairs = 0;  // largest single-key group observed
  std::uint64_t max_round_pairs = 0;  // largest per-round volume (M_G proxy)
  bool local_memory_exceeded = false;
  bool global_memory_exceeded = false;

  // --- Out-of-core shuffle accounting. ---

  /// Payload bytes written to spill files across all rounds.
  std::uint64_t bytes_spilled = 0;

  /// Sorted runs written to disk.
  std::uint64_t spill_runs = 0;

  /// Sorted runs (in-memory leftovers + spilled) consumed by reduce-phase
  /// merges.
  std::uint64_t runs_merged = 0;

  // --- Spill degradation accounting (see Config::spill_fallback_dir). ---

  /// Runs that landed in the fallback spill directory after the primary
  /// one failed.
  std::uint64_t spill_fallback_runs = 0;

  /// Rounds that gave up on spilling entirely and held the shuffle in
  /// memory.  Nonzero means the memory bound was not honoured — results
  /// are still exact.
  std::uint64_t spill_degraded_rounds = 0;

  /// Transient spill-write errors recovered by retry-with-backoff.
  std::uint64_t spill_write_retries = 0;

  /// Pairs entering / leaving mapper-side combiners; in/out is the
  /// combiner's shuffle-volume reduction factor.
  std::uint64_t combiner_pairs_in = 0;
  std::uint64_t combiner_pairs_out = 0;

  /// Peak bytes buffered by the map phase in any single round (sum of the
  /// per-worker peaks — an upper bound on simultaneous usage).
  std::uint64_t peak_shuffle_buffer_bytes = 0;

  /// Peak bytes of reduce-phase cursor read buffers in any single round
  /// (sum of per-worker peaks).  Sized from the budget but floored at one
  /// record per merged run — a single-pass sort-merge cannot go lower, so
  /// staying within budget here requires budget >= fan-in × record size.
  std::uint64_t peak_merge_buffer_bytes = 0;

  [[nodiscard]] double combiner_reduction() const {
    return combiner_pairs_out == 0
               ? 1.0
               : static_cast<double>(combiner_pairs_in) /
                     static_cast<double>(combiner_pairs_out);
  }

  void reset() { *this = Metrics{}; }
};

}  // namespace gclus::mr
