// Scenario: decomposition of a road network with travel times (§7
// extension).
//
// Hop counts treat a highway segment and an alley the same; real road
// analytics weight edges by travel time.  This example runs the weighted
// decomposition on a road-like graph whose edge weights model segment
// speeds, and contrasts the two radii every cluster carries: the
// *weighted* radius (how far, in minutes, members are from their center)
// and the *hop* radius (how many message rounds a distributed
// implementation pays).  It finishes with the weighted diameter estimate
// against the exact value.
//
//   $ ./weighted_roads
//
#include <cstdio>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/weighted_cluster.hpp"
#include "graph/generators.hpp"
#include "graph/weighted.hpp"

int main() {
  using namespace gclus;

  // Base topology: sparse near-planar grid; weights 1..5 model per-
  // segment travel minutes (deterministic per edge).
  const Graph base = gen::road_like(120, 120, 0.08, 0.02, /*seed=*/3);
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    for (const NodeId v : base.neighbors(u)) {
      if (u < v) {
        edges.emplace_back(u, v, 1 + hash_combine(3, u, v) % 5);
      }
    }
  }
  const WeightedGraph g =
      WeightedGraph::from_edges(base.num_nodes(), std::move(edges));
  std::printf("weighted road network: %u junctions, %llu segments\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));

  WeightedClusterOptions opts;
  opts.seed = 3;
  const WeightedClustering c = weighted_cluster(g, /*tau=*/8, opts);
  std::printf(
      "weighted CLUSTER(8): %u districts\n"
      "  weighted radius (worst minutes to district center): %llu\n"
      "  hop radius (worst message rounds): %u\n",
      c.num_clusters(),
      static_cast<unsigned long long>(c.max_weighted_radius()),
      c.max_hop_radius());

  const WeightedDiameterApprox a = approximate_weighted_diameter(g, 8, opts);
  const Weight exact = weighted_diameter_exact(g);
  std::printf(
      "weighted diameter: exact %llu, estimate %llu (%.2fx), via a "
      "%u-node quotient\n",
      static_cast<unsigned long long>(exact),
      static_cast<unsigned long long>(a.upper_bound),
      static_cast<double>(a.upper_bound) / exact, a.quotient_nodes);
  // The estimate is an upper bound (Δ ≤ Δ″); anything below is a bug.
  if (a.upper_bound < exact) {
    std::fprintf(stderr,
                 "weighted_roads: estimate below the exact diameter\n");
    return 1;
  }
  return 0;
}
