// Gonzalez's farthest-first traversal for k-center (the classical
// sequential 2-approximation [Gonzalez'85, the paper's ref. 13]) adapted
// to the graph metric.
//
// Not part of the paper's experiments — it serves as the quality yardstick
// in the k-center ablation bench: CLUSTER-based centers should land within
// the predicted polylog factor of Gonzalez's radius, while being built
// from O(R) parallel rounds instead of k sequential (pruned) BFS sweeps.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gclus::baselines {

struct GonzalezResult {
  std::vector<NodeId> centers;  // exactly k
  Dist radius = 0;              // exact achieved radius
};

/// Runs farthest-first traversal with k centers; `first` seeds the sweep
/// (kInvalidNode = node 0).  Cost: one full sweep from the first center,
/// then one pruned relax_from per further center, which touches only the
/// region that center brings closer; O(k(n+m)) in the worst case.
/// Requires k >= number of connected components for a finite radius.
[[nodiscard]] GonzalezResult gonzalez_kcenter(const Graph& g, NodeId k,
                                              NodeId first = kInvalidNode);

}  // namespace gclus::baselines
