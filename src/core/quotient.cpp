#include "core/quotient.hpp"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace gclus {

QuotientGraph build_quotient(const Graph& g, const Clustering& clustering,
                             bool with_weights) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(clustering.assignment.size() == n,
              "clustering does not match graph");
  const ClusterId k = clustering.num_clusters();

  // Collect the minimal crossing weight per unordered cluster pair.
  // Keyed by packed (min,max) cluster ids.
  std::unordered_map<std::uint64_t, Weight> best;
  best.reserve(static_cast<std::size_t>(k) * 4);
  for (NodeId u = 0; u < n; ++u) {
    const ClusterId cu = clustering.assignment[u];
    for (const NodeId v : g.neighbors(u)) {
      if (u >= v) continue;  // visit each undirected edge once
      const ClusterId cv = clustering.assignment[v];
      if (cu == cv) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(std::min(cu, cv)) << 32) |
          std::max(cu, cv);
      const Weight w = static_cast<Weight>(clustering.dist_to_center[u]) + 1 +
                       clustering.dist_to_center[v];
      // Find first: emplace allocates a node even when the key exists.
      if (const auto it = best.find(key); it == best.end()) {
        best.emplace(key, w);
      } else if (w < it->second) {
        it->second = w;
      }
    }
  }

  std::vector<Edge> edges;
  edges.reserve(best.size());
  std::vector<std::tuple<NodeId, NodeId, Weight>> weighted_edges;
  if (with_weights) weighted_edges.reserve(best.size());
  for (const auto& [key, w] : best) {
    const auto a = static_cast<ClusterId>(key >> 32);
    const auto b = static_cast<ClusterId>(key & 0xffffffffULL);
    edges.emplace_back(a, b);
    if (with_weights) weighted_edges.emplace_back(a, b, w);
  }

  QuotientGraph out;
  out.graph = build_graph(k, edges);
  if (with_weights) {
    out.weighted = WeightedGraph::from_edges(k, std::move(weighted_edges));
  }
  return out;
}

}  // namespace gclus
