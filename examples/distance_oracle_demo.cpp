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
#include <vector>

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

  // Query throughput: random pairs through the batch kernel, 256 queries
  // per call as a server worker answers a batch.
  constexpr std::size_t kQueries = 1000000;
  constexpr std::size_t kBatch = 256;
  std::vector<server::Query> queries(kQueries);
  for (server::Query& q : queries) {
    q.u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    q.arg = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  }
  std::vector<server::QueryResult> results(kBatch);
  server::QueryScratch scratch;
  std::uint64_t sink = 0;
  Timer query_timer;
  for (std::size_t off = 0; off < kQueries; off += kBatch) {
    const std::size_t len = std::min(kBatch, kQueries - off);
    oracle.execute({queries.data() + off, len}, {results.data(), len},
                   scratch);
    for (std::size_t i = 0; i < len; ++i) sink += results[i].value;
  }
  const double secs = query_timer.elapsed_s();
  std::printf("throughput: %.1fM queries/s (checksum %llu)\n",
              kQueries / secs / 1e6, static_cast<unsigned long long>(sink));

  if (below != 0) {
    std::fprintf(stderr,
                 "distance_oracle_demo: %zu estimates below the exact "
                 "distance\n",
                 below);
    return 1;
  }
  return 0;
}
