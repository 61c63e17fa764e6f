// Edge-list to CSR construction.
//
// The builder accepts arbitrary (possibly duplicated, self-looped,
// one-directional) edge lists and normalizes them into the Graph
// invariants: symmetric, sorted, duplicate- and loop-free.
#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gclus {

class ThreadPool;

/// An undirected edge as a pair of endpoints.
using Edge = std::pair<NodeId, NodeId>;

class GraphBuilder {
 public:
  /// `num_nodes` fixes the node-id universe [0, num_nodes).
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Records an undirected edge {u, v}.  Self-loops and duplicates are
  /// tolerated here and removed in build().
  void add_edge(NodeId u, NodeId v) {
    GCLUS_CHECK(u < num_nodes_ && v < num_nodes_, "edge endpoint out of range");
    edges_.emplace_back(u, v);
  }

  void add_edges(const std::vector<Edge>& edges) {
    edges_.reserve(edges_.size() + edges.size());
    for (const auto& [u, v] : edges) add_edge(u, v);
  }

  /// Bulk move-in for large edge lists (the parallel parser's path): the
  /// vector's buffer is adopted, not copied, and its endpoints are
  /// range-checked by build()'s parallel degree count.  Only valid when no
  /// edges have been added yet.
  void adopt_edges(std::vector<Edge>&& edges) {
    GCLUS_CHECK(edges_.empty(), "adopt_edges requires an empty builder");
    edges_ = std::move(edges);
  }

  [[nodiscard]] std::size_t num_pending_edges() const { return edges_.size(); }

  /// Builds the normalized CSR graph, consuming the accumulated edges, by
  /// counting sort on `pool` (the no-argument form uses the process-global
  /// pool): a parallel degree count that also range-checks the endpoints,
  /// a prefix sum into the offsets, a scatter of both directions of every
  /// non-loop edge into place, then a sort and dedup of each row on its
  /// own.  The output is identical for any pool.  The offsets and
  /// neighbors are allocated uninitialised and written in place (CsrArrays),
  /// with no zero-fill: the workers' count and scatter touch them first.
  /// Extra space beyond the pending edges and the returned offsets and
  /// neighbors is O(m) NodeIds and no 2m-pair intermediate: at most one
  /// exact-size deduplicated copy of the neighbors, made only when the
  /// input had duplicates.  The peak is the scatter, where the pending
  /// edges (8 B each), the offsets (8 B per node) and the neighbors (4 B
  /// per half-edge) are all live: 74 MiB on the perfbench road graph
  /// (1.96M nodes, 3.64M edges), which is also the peak of loading it from
  /// edge-list text.
  [[nodiscard]] Graph build();
  [[nodiscard]] Graph build(ThreadPool& pool);

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

/// One-shot convenience: normalize `edges` over [0, num_nodes) into a Graph.
[[nodiscard]] Graph build_graph(NodeId num_nodes,
                                const std::vector<Edge>& edges);

}  // namespace gclus
