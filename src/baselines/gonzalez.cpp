#include "baselines/gonzalez.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/bfs.hpp"

namespace gclus::baselines {

GonzalezResult gonzalez_kcenter(const Graph& g, NodeId k, NodeId first) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(k >= 1 && k <= n);
  const NodeId start = first == kInvalidNode ? 0 : first;
  GCLUS_CHECK(start < n);
  GonzalezResult out;
  out.centers = {start};
  // `dist` is the running distance to the nearest chosen center.
  std::vector<Dist> dist = bfs_distances(g, start);
  extend_farthest_first(g, k, out.centers, dist);

  Dist radius = 0;
  for (NodeId v = 0; v < n; ++v) {
    GCLUS_CHECK(dist[v] != kInfDist,
                "k smaller than the number of connected components");
    radius = std::max(radius, dist[v]);
  }
  out.radius = radius;
  return out;
}

}  // namespace gclus::baselines
