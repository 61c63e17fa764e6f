// Quickstart: decompose a graph with CLUSTER(τ), inspect the clustering,
// and approximate the diameter — the library's two headline operations in
// ~40 lines.
//
//   $ ./quickstart
//
#include <cstdio>

#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

int main() {
  using namespace gclus;

  // A 200x200 mesh: 40,000 nodes, diameter 398, doubling dimension 2 —
  // the regime where the decomposition shines.
  const Graph g = gen::grid(200, 200);
  std::printf("graph: %u nodes, %llu edges\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  // --- Decompose with CLUSTER(τ).  τ controls granularity: expect
  // O(τ·log²n) clusters with near-optimal maximum radius (Theorem 1).
  ClusterOptions opts;
  opts.seed = 42;
  const Clustering clustering = cluster(g, /*tau=*/8, opts);
  std::printf("CLUSTER(8): %u clusters, max radius %u, %zu growth steps\n",
              clustering.num_clusters(), clustering.max_radius(),
              clustering.growth_steps);

  // Every node knows its cluster and its hop distance to the center.
  const NodeId probe = 12345;
  std::printf("node %u -> cluster %u at distance %u from center %u\n", probe,
              clustering.assignment[probe], clustering.dist_to_center[probe],
              clustering.centers[clustering.assignment[probe]]);

  // --- Approximate the diameter through the quotient graph (§4).
  DiameterOptions dopts;
  dopts.seed = 42;
  const DiameterApprox approx = approximate_diameter(g, /*tau=*/8, dopts);
  const Dist exact = exact_diameter(g).diameter;
  std::printf(
      "diameter: lower bound %u <= exact %u <= estimate %llu "
      "(quotient: %u nodes, growth steps: %zu vs %u BFS levels)\n",
      approx.lower_bound, exact,
      static_cast<unsigned long long>(approx.upper_bound),
      approx.quotient_nodes, approx.growth_steps, exact);
  // The estimate is an upper bound (Δ ≤ Δ″); anything below is a bug.
  if (approx.upper_bound < exact) {
    std::fprintf(stderr, "quickstart: estimate below the exact diameter\n");
    return 1;
  }
  return 0;
}
