// Scenario: diameter of a continent-scale road network on a cluster.
//
// Road networks have enormous hop diameters (the paper's roads-CA/PA/TX
// run to ~1000), so every Θ(Δ)-round distributed algorithm — BFS, HADI —
// pays ~Δ scheduling barriers.  This example runs the full distributed
// pipeline on the MR emulator: CLUSTER-based diameter approximation vs
// the BFS baseline, reporting the round counts and communication volumes
// a real cluster deployment would experience.
//
//   $ ./road_diameter
//
#include <cstdio>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mr_algos/mr_bfs.hpp"
#include "mr_algos/mr_cluster.hpp"

int main() {
  using namespace gclus;

  const Graph g = gen::road_like(260, 260, 0.08, 0.02, /*seed=*/11);
  std::printf("road network: %u junctions, %llu segments\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));
  const Dist exact = exact_diameter(g).diameter;
  std::printf("exact hop diameter (offline reference): %u\n\n", exact);

  // --- Decomposition-based estimate (this paper).  It is an upper bound
  // (Δ ≤ Δ″), so an estimate below the exact diameter fails the run.
  {
    mr::Engine engine;
    mr_algos::MrClusterOptions opts;
    opts.seed = 11;
    const auto r =
        mr_algos::mr_cluster_diameter(engine, g, /*tau=*/16, opts).value();
    std::printf("CLUSTER pipeline: estimate %llu (%.2fx exact)\n",
                static_cast<unsigned long long>(r.estimate),
                static_cast<double>(r.estimate) / exact);
    std::printf("  %zu MR rounds, %llu KV pairs shuffled, quotient %u/%llu\n",
                engine.metrics().rounds,
                static_cast<unsigned long long>(
                    engine.metrics().pairs_shuffled),
                r.quotient_nodes,
                static_cast<unsigned long long>(r.quotient_edges));
    if (r.estimate < exact) {
      std::fprintf(stderr,
                   "road_diameter: estimate below the exact diameter\n");
      return 1;
    }
  }

  // --- BFS baseline: 2·ecc upper bound, Θ(Δ) rounds.
  {
    mr::Engine engine;
    const auto r = mr_algos::mr_bfs_diameter(engine, g, /*source=*/0).value();
    std::printf("BFS baseline:     estimate %llu (%.2fx exact)\n",
                static_cast<unsigned long long>(r.estimate),
                static_cast<double>(r.estimate) / exact);
    std::printf("  %zu MR rounds, %llu KV pairs shuffled\n",
                engine.metrics().rounds,
                static_cast<unsigned long long>(
                    engine.metrics().pairs_shuffled));
  }

  std::printf(
      "\nAt ~0.3 s of scheduling latency per distributed round, the round "
      "gap above is the paper's order-of-magnitude speedup.\n");
  return 0;
}
