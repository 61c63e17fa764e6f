#include "graph/graph.hpp"

#include <algorithm>
#include <utility>

namespace gclus {

Graph::Graph(CsrArrays csr) {
  GCLUS_CHECK(csr.offsets != nullptr && csr.neighbors != nullptr,
              "CSR arrays must be allocated before a Graph adopts them");
  const std::span<const EdgeId> offsets(csr.offsets.get(),
                                        std::size_t{csr.num_nodes} + 1);
  const std::span<const NodeId> neighbors(
      csr.neighbors.get(), static_cast<std::size_t>(offsets.back()));
  // Moving the unique_ptrs into the keepalive leaves the arrays in place.
  *this = Graph(offsets, neighbors,
                std::make_shared<const CsrArrays>(std::move(csr)));
}

Graph::Graph(std::vector<EdgeId> offsets, std::vector<NodeId> neighbors) {
  using Vectors = std::pair<std::vector<EdgeId>, std::vector<NodeId>>;
  auto owned = std::make_shared<const Vectors>(std::move(offsets),
                                               std::move(neighbors));
  *this = Graph(owned->first, owned->second, owned);
}

Graph::Graph(std::span<const EdgeId> offsets, std::span<const NodeId> neighbors,
             std::shared_ptr<const void> storage)
    : offsets_(offsets), neighbors_(neighbors), storage_(std::move(storage)) {
  GCLUS_CHECK(storage_ != nullptr, "a Graph requires a storage keepalive");
  GCLUS_CHECK(!offsets_.empty(), "offsets must have n+1 entries");
  GCLUS_CHECK(offsets_.front() == 0);
  GCLUS_CHECK(offsets_.back() == neighbors_.size());
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

bool Graph::validate() const {
  const NodeId n = num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    if (offsets_[u] > offsets_[u + 1]) return false;
    const auto adj = neighbors(u);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      const NodeId v = adj[i];
      if (v >= n) return false;
      if (v == u) return false;                      // self-loop
      if (i > 0 && adj[i - 1] >= v) return false;    // unsorted or duplicate
      if (!has_edge(v, u)) return false;             // asymmetric
    }
  }
  return true;
}

}  // namespace gclus
