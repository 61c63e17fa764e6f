// Shared helpers for the test suite: a corpus of small named graphs used
// by the parameterized property sweeps, and brute-force reference
// implementations that the optimized kernels are checked against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace gclus::testutil {

/// Byte-identical CSR arrays — the equality the determinism and
/// round-trip sweeps assert.  (Graph accessors return spans, which have
/// no operator==, so tests compare through here.)
inline bool same_csr(const Graph& a, const Graph& b) {
  return std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.neighbor_array(), b.neighbor_array());
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// Largest connected component of g (thin wrapper over graph/connectivity).
Graph largest_component_of(const Graph& g);

/// A corpus of small connected graphs with diverse shapes: paths, cycles,
/// grids, tori, trees, cliques, expanders, power-law, ring-of-cliques,
/// expander+path.  Every graph is connected and small enough (<= ~2500
/// nodes) for brute-force cross-checks.
std::vector<NamedGraph> small_connected_corpus();

/// Brute-force exact diameter by BFS from every node.  O(n·m).
inline Dist brute_force_diameter(const Graph& g) {
  Dist best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto e = bfs_extremum(g, v);
    if (e.eccentricity > best) best = e.eccentricity;
  }
  return best;
}

/// Brute-force exact weighted diameter: the max weighted eccentricity over
/// every node (one Dijkstra each; unreachable pairs do not count).
inline Weight brute_force_weighted_diameter(const WeightedGraph& g) {
  Weight best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    best = std::max(best, weighted_eccentricity(g, v));
  }
  return best;
}

/// Per-node nearest source: hop distance (kInfDist if unreachable) and
/// the lowest index into the source list at that distance (UINT32_MAX if
/// unreachable).
struct NearestSource {
  std::vector<Dist> dist;
  std::vector<std::uint32_t> owner;
};

/// Brute-force nearest source by one bfs_distances per source — the
/// reference for multi_source_bfs's distances and owner tie-breaking.
NearestSource brute_force_nearest_source(const Graph& g,
                                         const std::vector<NodeId>& sources);

/// Brute-force optimal k-center radius by trying every size-k center set —
/// exponential; only for tiny graphs (n <= ~16, k <= 3).
Dist brute_force_kcenter_radius(const Graph& g, NodeId k);

}  // namespace gclus::testutil
