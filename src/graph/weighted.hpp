// Weighted graphs, Dijkstra, and small-graph APSP.
//
// The decomposition pipeline only needs weights on the *quotient* graph
// (§4: edge weight = shortest inter-cluster connection length), which is
// orders of magnitude smaller than the input graph, so this module favors
// clarity over large-scale performance.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gclus {

struct WeightedHalfEdge {
  NodeId to;
  Weight w;

  friend bool operator==(const WeightedHalfEdge&,
                         const WeightedHalfEdge&) = default;
};

/// CSR weighted undirected graph.
class WeightedGraph {
 public:
  WeightedGraph() = default;

  /// Builds from a list of undirected weighted edges (u, v, w).  Parallel
  /// edges are collapsed to the minimum weight; self-loops are dropped.
  static WeightedGraph from_edges(
      NodeId num_nodes, std::vector<std::tuple<NodeId, NodeId, Weight>> edges);

  /// Lifts an unweighted graph to weight-1 edges.
  static WeightedGraph from_unit_weights(const Graph& g);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const { return adj_.size() / 2; }
  [[nodiscard]] EdgeId num_half_edges() const { return adj_.size(); }

  [[nodiscard]] std::span<const WeightedHalfEdge> neighbors(NodeId u) const {
    GCLUS_DCHECK(u < num_nodes());
    return {adj_.data() + offsets_[u], adj_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] std::span<const EdgeId> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const WeightedHalfEdge> adjacency() const {
    return adj_;
  }

 private:
  std::vector<EdgeId> offsets_;
  std::vector<WeightedHalfEdge> adj_;
};

/// Single-source shortest paths (binary-heap Dijkstra).
[[nodiscard]] std::vector<Weight> dijkstra(const WeightedGraph& g,
                                           NodeId source);

/// Weighted eccentricity of `source` (max finite distance).
[[nodiscard]] Weight weighted_eccentricity(const WeightedGraph& g,
                                           NodeId source);

/// Exact weighted diameter — the max finite distance, so a disconnected
/// input yields the largest diameter over its components — by Takes–Kosters
/// eccentricity bounding: Dijkstra from one candidate at a time, tightening
/// every node's eccentricity bounds by the triangle inequality and dropping
/// nodes whose upper bound cannot exceed the best lower bound.  Typically a
/// handful of Dijkstras; the worst case (e.g. a cycle or a clique, where
/// the bounds prune little) is n of them.  Intended for quotient graphs
/// (thousands of nodes), not raw inputs.
[[nodiscard]] Weight weighted_diameter_exact(const WeightedGraph& g);

/// Below this node count apsp_matrix skips the binary heap and runs
/// linear-scan Dijkstra straight over its output row: for tiny quotient
/// graphs (deep meshes and paths decompose into a handful of clusters)
/// the O(n²) scan beats heap traffic and allocation, and the matrix row
/// doubles as the tentative-distance array so the sweep allocates nothing
/// per source.  Distances are exact either way — only the schedule
/// changes — so results are bit-identical across the two paths.
inline constexpr NodeId kApspSmallGraphNodes = 64;

/// All-pairs shortest paths as a dense n×n matrix (row-major).  The
/// distance-oracle construction of §4 stores exactly this for the quotient
/// graph; n is capped to keep the O(n²) memory deliberate.
[[nodiscard]] std::vector<Weight> apsp_matrix(const WeightedGraph& g,
                                              NodeId max_nodes = 20000);

}  // namespace gclus
