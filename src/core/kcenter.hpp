// Graph k-center approximation via CLUSTER (§3.1, Theorem 2; §3.2 for
// disconnected graphs).
//
// Strategy: run CLUSTER(τ) with τ = Θ(k / log² n) so at most ~k clusters
// come back with high probability.  If the decomposition still exceeds k
// clusters, merge them along a spanning forest of the quotient graph
// partitioned into at most k connected parts (the merging step in the
// proof of Theorem 2).  If fewer than k clusters come back, the center set
// is padded farthest-first (the paper pads with arbitrary nodes, which can
// only be worse; we document the strengthening).  Padding costs one full
// multi-source BFS plus one pruned relax_from per added center (it expands
// only the nodes the new center brings closer), not one full sweep per
// center.  The achieved radius is evaluated exactly with a multi-source
// BFS.
//
// Guarantee: O(log³ n)-approximation of the optimal k-center radius, whp.
#pragma once

#include <cstdint>
#include <vector>

#include "api/run_context.hpp"
#include "core/cluster.hpp"
#include "core/clustering.hpp"
#include "graph/graph.hpp"

namespace gclus {

/// Execution environment plus the τ policy knob.
struct KCenterOptions : RunContext {
  /// τ is chosen as max(h, ceil(scale · k / log²n)) where h is the number
  /// of connected components (§3.2).
  double tau_scale = 1.0;
};

struct KCenterResult {
  /// Exactly k distinct centers.
  std::vector<NodeId> centers;

  /// max_v dist(v, centers) — evaluated exactly.
  Dist radius = 0;

  /// Per-node nearest chosen center (index into `centers`).
  std::vector<std::uint32_t> nearest_center;

  /// Diagnostics: clusters produced by the underlying CLUSTER run, the τ
  /// it used, and how many trailing entries of `centers` the padding
  /// appended.
  ClusterId raw_clusters = 0;
  std::uint32_t tau = 0;
  NodeId padded = 0;
};

/// Approximates k-center on `g` (connected or not; requires k >= number of
/// connected components so a finite radius exists).
[[nodiscard]] KCenterResult kcenter_approx(const Graph& g, NodeId k,
                                           const KCenterOptions& options = {});

/// Evaluates the exact radius and per-node nearest center of a given
/// center set (multi-source BFS).  Exposed for baselines and tests.
[[nodiscard]] std::pair<Dist, std::vector<std::uint32_t>> evaluate_centers(
    const Graph& g, const std::vector<NodeId>& centers);

}  // namespace gclus
