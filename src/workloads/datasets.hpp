// The benchmark dataset registry: scaled-down synthetic stand-ins for the
// paper's Table-1 graphs (see DESIGN.md §3 for the substitution
// rationale).  Every dataset is connected, deterministic for a given
// scale, and tagged with the paper dataset it models.
//
//   name          paper dataset   regime
//   social-large  twitter         power-law, low diameter, high expansion
//   social-small  livejournal     power-law, low diameter
//   road-a        roads-CA        sparse near-planar, huge diameter
//   road-b        roads-PA        sparse near-planar, huge diameter
//   road-c        roads-TX        sparse near-planar, huge diameter
//   mesh          mesh1000        2-D grid, doubling dimension 2
//
// Scale: the GCLUS_WORKLOAD_SCALE environment variable (default 1.0)
// multiplies node counts (linearly; grid sides scale by √s) so the same
// harness can run anywhere from smoke-test to full-size.
//
// Dataset cache: when GCLUS_DATASET_CACHE_DIR is set, generated graphs
// persist there as CSR v2 files keyed by (name, scale, generator
// version), so repeated bench/test runs mmap the previous run's output
// instead of regenerating.  Publication is atomic (temp file + rename),
// so concurrently cache-filling processes — a parallel ctest — race
// benignly; corrupt or stale entries fail checksum validation and are
// regenerated in place.  Bump kDatasetGeneratorVersion whenever any
// generator's output changes: the version is part of every cache key, so
// stale files are simply never read again.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace gclus::workloads {

struct Dataset {
  std::string name;
  std::string paper_name;
  Graph graph;
  bool large_diameter = false;  // drives granularity choices (§6.1)
};

/// Bumped when generator output changes; part of every cache key.
inline constexpr std::uint32_t kDatasetGeneratorVersion = 1;

/// Names in canonical (paper Table 1) order.
[[nodiscard]] const std::vector<std::string>& dataset_names();

/// Builds a dataset by name at the environment-configured scale (serving
/// it from the dataset cache when enabled — cache hits are mmap-backed).
[[nodiscard]] Dataset load_dataset(const std::string& name);

/// The §3-discussion composite used by the batch-policy ablation:
/// a 4-regular expander with a √n-node path attached.
[[nodiscard]] Graph make_expander_path(NodeId n = 16384);

/// Current scale factor (GCLUS_WORKLOAD_SCALE, default 1.0, clamped to
/// [0.05, 64]).
[[nodiscard]] double workload_scale();

/// The cache directory (GCLUS_DATASET_CACHE_DIR); empty when caching is
/// disabled.  Read per call, so tests can toggle the environment.
[[nodiscard]] std::string dataset_cache_dir();

/// Returns the cached CSR v2 graph for `key` (suffixed with the generator
/// version), building and publishing it on a miss.  With no cache dir
/// configured this is just build().  `key` must be filename-safe; callers
/// embed every build parameter in it — e.g. "expander-n300000-d8-s42".
/// Benches wrap their synthetic inputs in this to skip regeneration.
[[nodiscard]] Graph cached_graph(const std::string& key,
                                 const std::function<Graph()>& build);

/// Process-lifetime cache effectiveness counters (for tests and bench
/// telemetry).
struct DatasetCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  /// Entries that existed but failed validation (truncated, checksum
  /// mismatch) and were deleted before regenerating.
  std::uint64_t corrupt_evictions = 0;
  /// Publications abandoned because the temp write, fsync, or rename
  /// failed; the run continues on the freshly built graph.
  std::uint64_t publish_failures = 0;
};
[[nodiscard]] DatasetCacheStats dataset_cache_stats();

}  // namespace gclus::workloads
