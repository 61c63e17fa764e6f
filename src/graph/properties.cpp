#include "graph/properties.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/bfs.hpp"

namespace gclus {

DegreeStats degree_stats(const Graph& g) {
  DegreeStats s;
  const NodeId n = g.num_nodes();
  if (n == 0) return s;
  s.min_degree = g.degree(0);
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t d = g.degree(u);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
  }
  s.avg_degree = 2.0 * static_cast<double>(g.num_edges()) / n;
  return s;
}

Dist double_sweep_lower_bound(const Graph& g, NodeId start) {
  const BfsExtremum first = bfs_extremum(g, start);
  const BfsExtremum second = bfs_extremum(g, first.farthest_node);
  return second.eccentricity;
}

ExactDiameterResult exact_diameter(const Graph& g, NodeId start) {
  GCLUS_CHECK(g.num_nodes() > 0);
  ExactDiameterResult out;
  if (g.num_nodes() == 1) return out;

  // Double sweep: a -> u (farthest from a) -> w (farthest from u).
  const BfsExtremum from_start = bfs_extremum(g, start);
  GCLUS_CHECK(from_start.reached == g.num_nodes(),
              "exact_diameter requires a connected graph");
  const NodeId u = from_start.farthest_node;
  const auto dist_u = bfs_distances(g, u);
  out.bfs_runs = 2;

  NodeId w = u;
  Dist lb = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist_u[v] != kInfDist && dist_u[v] > lb) {
      lb = dist_u[v];
      w = v;
    }
  }

  // Root iFUB at a node halfway between u and w on some shortest path,
  // chosen to have small eccentricity.  On highly regular graphs (grids)
  // MANY nodes sit on shortest u–w paths and their eccentricities differ
  // wildly (boundary vs center), and a bad root makes iFUB scan half the
  // graph — so we sample a few midlevel candidates and keep the one with
  // the smallest eccentricity.
  const auto dist_w = bfs_distances(g, w);
  ++out.bfs_runs;
  std::vector<NodeId> midlevel;
  {
    const Dist want = lb / 2;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist_u[v] == want && dist_u[v] + dist_w[v] == lb) {
        midlevel.push_back(v);
      }
    }
    if (midlevel.empty()) {
      // Degenerate (lb == 0): fall back to u itself.
      midlevel.push_back(u);
    }
  }
  std::vector<Dist> dist_mid;
  {
    Dist best_ecc = kInfDist;
    const std::size_t candidates[] = {0, midlevel.size() / 4,
                                      midlevel.size() / 2,
                                      (3 * midlevel.size()) / 4,
                                      midlevel.size() - 1};
    NodeId prev = kInvalidNode;
    for (const std::size_t ci : candidates) {
      const NodeId cand = midlevel[ci];
      if (cand == prev) continue;
      prev = cand;
      auto d = bfs_distances(g, cand);
      ++out.bfs_runs;
      const Dist ecc = *std::max_element(d.begin(), d.end());
      if (ecc < best_ecc) {
        best_ecc = ecc;
        dist_mid = std::move(d);
      }
    }
  }
  const Dist ecc_mid =
      *std::max_element(dist_mid.begin(), dist_mid.end());

  // Fringe order: nodes grouped by distance from mid, descending.
  std::vector<std::vector<NodeId>> fringe(ecc_mid + 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) fringe[dist_mid[v]].push_back(v);

  Dist best_lb = lb;
  // iFUB: while the trivial upper bound 2*i for the remaining fringe level
  // exceeds the lower bound, sweep that level's nodes.
  for (Dist i = ecc_mid; i > 0; --i) {
    if (best_lb >= 2 * i) break;
    for (const NodeId v : fringe[i]) {
      const BfsExtremum e = bfs_extremum(g, v);
      ++out.bfs_runs;
      best_lb = std::max(best_lb, e.eccentricity);
      if (best_lb >= 2 * i) break;  // level can no longer improve the bound
    }
  }
  out.diameter = best_lb;
  return out;
}

std::vector<Dist> all_eccentricities(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<Dist> ecc(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    ecc[v] = bfs_extremum(g, v).eccentricity;
  }
  return ecc;
}

}  // namespace gclus
