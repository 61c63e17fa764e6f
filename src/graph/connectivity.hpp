// Connected components and largest-component extraction.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gclus {

class ThreadPool;

struct Components {
  std::vector<NodeId> label;  // per-node component id, in [0, count)
  NodeId count = 0;
  /// Component sizes indexed by label.
  std::vector<NodeId> sizes;
};

/// Labels connected components with a parallel union-find over `pool`
/// (nullptr: the process-global pool).  Component ids are ranked by each
/// component's smallest node: the component holding node 0 is 0, the one
/// holding the smallest node outside it is 1, and so on.  The result does
/// not depend on the pool.
[[nodiscard]] Components connected_components(const Graph& g,
                                              ThreadPool* pool = nullptr);

[[nodiscard]] inline bool is_connected(const Graph& g) {
  return g.num_nodes() == 0 || connected_components(g).count == 1;
}

struct ExtractedComponent {
  Graph graph;
  /// original node id of each node in `graph` (new id -> old id).
  std::vector<NodeId> original_id;
};

/// Induced subgraph on the largest connected component, with relabeling.
[[nodiscard]] ExtractedComponent largest_component(const Graph& g);

}  // namespace gclus
