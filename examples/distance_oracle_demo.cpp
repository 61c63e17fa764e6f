// Scenario: approximate distance queries over a road network.
//
// A routing frontend needs hop-distance *estimates* in microseconds —
// without storing the O(n²) distance matrix or running a BFS per query.
// The §4 distance oracle stores per-node (cluster, distance-to-center)
// labels plus the APSP matrix of the weighted quotient graph: linear
// total space, O(1) queries, polylogarithmic distortion for far pairs.
// Exits 1 if any estimate falls below the exact BFS distance (the oracle
// answers upper bounds; anything below is a bug).
//
//   $ ./distance_oracle_demo
//
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/distance_oracle.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "server/engine.hpp"

int main() {
  using namespace gclus;

  const Graph g = gen::road_like(220, 220, 0.08, 0.02, /*seed=*/5);
  std::printf("road network: %u junctions, %llu segments (%zu KB as CSR)\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              g.memory_bytes() / 1024);

  Timer build_timer;
  DistanceOracleOptions opts;
  opts.seed = 5;
  opts.use_cluster2 = false;
  const server::QueryEngine oracle =
      server::QueryEngine::build(Graph(g), opts).value();
  // The query-time storage: labels (n × 8 bytes) plus the k² APSP matrix.
  const server::OracleArtifact& a = oracle.artifact();
  const std::size_t storage = a.cluster_of.size_bytes() +
                              a.dist_to_center.size_bytes() +
                              a.apsp.size_bytes();
  std::printf("oracle built in %.2f s: %u clusters, %zu KB storage\n",
              build_timer.elapsed_s(), oracle.num_clusters(), storage / 1024);

  // Evaluate distortion on random pairs against exact BFS distances.
  Rng rng(99);
  constexpr int kSources = 5;
  constexpr int kQueriesPerSource = 2000;
  double worst = 1.0, sum = 0.0;
  std::size_t count = 0, below = 0;
  for (int s = 0; s < kSources; ++s) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto exact = bfs_distances(g, u);
    for (int q = 0; q < kQueriesPerSource; ++q) {
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const std::uint64_t estimate = oracle.approx_distance(u, v).value();
      if (estimate < exact[v]) ++below;
      if (exact[v] == 0) continue;
      const double ratio = static_cast<double>(estimate) / exact[v];
      worst = std::max(worst, ratio);
      sum += ratio;
      ++count;
    }
  }
  std::printf("distortion over %zu random queries: avg %.2fx, worst %.2fx\n",
              count, sum / count, worst);

  // Query throughput.
  Timer query_timer;
  constexpr int kBatch = 1000000;
  std::uint64_t sink = 0;
  for (int q = 0; q < kBatch; ++q) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    sink += oracle.approx_distance(u, v).value();
  }
  const double secs = query_timer.elapsed_s();
  std::printf("throughput: %.1fM queries/s (checksum %llu)\n",
              kBatch / secs / 1e6, static_cast<unsigned long long>(sink));

  if (below != 0) {
    std::fprintf(stderr,
                 "distance_oracle_demo: %zu estimates below the exact "
                 "distance\n",
                 below);
    return 1;
  }
  return 0;
}
