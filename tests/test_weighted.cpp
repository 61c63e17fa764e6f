// Tests for the weighted graph module: construction normalization,
// Dijkstra against BFS on unit weights, weighted diameter (the bounding
// solver against the all-sources reference), and APSP.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/quotient.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

TEST(WeightedGraph, ParallelEdgesKeepMinimumWeight) {
  const WeightedGraph g = WeightedGraph::from_edges(
      2, {{0, 1, 7}, {0, 1, 3}, {1, 0, 5}});
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].w, 3u);
  EXPECT_EQ(g.neighbors(1)[0].w, 3u);
}

TEST(WeightedGraph, DropsSelfLoops) {
  const WeightedGraph g =
      WeightedGraph::from_edges(2, {{0, 0, 1}, {0, 1, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Dijkstra, MatchesBfsOnUnitWeights) {
  for (const auto& [name, graph] : testutil::small_connected_corpus()) {
    if (graph.num_nodes() > 600) continue;  // keep the sweep cheap
    const WeightedGraph w = WeightedGraph::from_unit_weights(graph);
    const auto dj = dijkstra(w, 0);
    const auto bf = bfs_distances(graph, 0);
    ASSERT_EQ(dj.size(), bf.size()) << name;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_EQ(dj[v], bf[v]) << name << " node " << v;
    }
  }
}

TEST(Dijkstra, WeightedShortcutPreferred) {
  // 0-1-2 with weights 1+1 vs direct 0-2 weight 3: path wins.
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 3}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], 2u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const WeightedGraph g = WeightedGraph::from_edges(4, {{0, 1, 2}, {2, 3, 2}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[1], 2u);
  EXPECT_EQ(d[2], kInfWeight);
}

TEST(WeightedEccentricity, PathWithWeights) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 10}, {1, 2, 1}, {2, 3, 5}});
  EXPECT_EQ(weighted_eccentricity(g, 0), 16u);
  EXPECT_EQ(weighted_eccentricity(g, 2), 11u);
}

TEST(WeightedDiameter, MatchesUnweightedOnUnitWeights) {
  const Graph g = gen::grid(6, 7);
  const WeightedGraph w = WeightedGraph::from_unit_weights(g);
  EXPECT_EQ(weighted_diameter_exact(w), testutil::brute_force_diameter(g));
}

TEST(WeightedDiameter, RespectsWeights) {
  // Triangle 0-1:100, 1-2:100, 0-2:1.  The heaviest shortest path is the
  // direct 100-weight edge (the two-hop alternative costs 101).
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 100}, {1, 2, 100}, {0, 2, 1}});
  EXPECT_EQ(weighted_diameter_exact(g), 100u);
  // Dropping the shortcut pushes the diameter to 200.
  const WeightedGraph h =
      WeightedGraph::from_edges(3, {{0, 1, 100}, {1, 2, 100}});
  EXPECT_EQ(weighted_diameter_exact(h), 200u);
}

/// `g` with a deterministic pseudo-random weight in [0, max_w] per edge.
WeightedGraph random_weights(const Graph& g, Weight max_w,
                             std::uint64_t seed) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) {
        edges.emplace_back(u, v, hash_combine(seed, u, v) % (max_w + 1));
      }
    }
  }
  return WeightedGraph::from_edges(g.num_nodes(), std::move(edges));
}

// The pipeline's real inputs: weighted quotients of CLUSTER(τ), over
// connected families and R-MAT (whose isolated nodes become isolated
// quotient nodes).
TEST(WeightedDiameter, MatchesBruteForceOnClusterQuotients) {
  const std::vector<testutil::NamedGraph> graphs = {
      {"road_like", gen::road_like(40, 40, 0.08, 0.02, 3)},
      {"rmat", gen::rmat(2048, 12000, 5)},
      {"ring_of_cliques", gen::ring_of_cliques(30, 6)},
      {"star", gen::star(200)},
      {"path", gen::path(400)},
      {"cycle", gen::cycle(401)},
      {"expander_with_path", gen::expander_with_path(800, 120, 4, 7)},
  };
  for (const auto& [name, g] : graphs) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const std::uint32_t tau : {1u, 4u}) {
        ClusterOptions opts;
        opts.seed = seed;
        const QuotientGraph q = build_quotient(g, cluster(g, tau, opts));
        EXPECT_EQ(weighted_diameter_exact(q.weighted),
                  testutil::brute_force_weighted_diameter(q.weighted))
            << name << " seed=" << seed << " tau=" << tau << " ("
            << q.weighted.num_nodes() << " quotient nodes)";
      }
    }
  }
}

TEST(WeightedDiameter, MatchesBruteForceWithZeroWeights) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const Weight max_w : {1u, 3u, 20u}) {
      for (const Graph& g : {gen::erdos_renyi(300, 600, seed),
                             gen::road_like(15, 15, 0.1, 0.05, seed),
                             gen::random_tree(200, seed)}) {
        const WeightedGraph w = random_weights(g, max_w, seed);
        EXPECT_EQ(weighted_diameter_exact(w),
                  testutil::brute_force_weighted_diameter(w))
            << "seed=" << seed << " max_w=" << max_w
            << " n=" << g.num_nodes();
      }
    }
  }
}

// Disconnected inputs keep the "max finite distance" meaning, including
// when the larger diameter sits in a later component.
TEST(WeightedDiameter, MaxOverComponentsWhenLargerComesSecond) {
  const std::vector<std::pair<Graph, Graph>> pairs = {
      {gen::path(5), gen::path(40)},
      {gen::complete(12), gen::cycle(31)},
      {gen::star(20), gen::grid(6, 9)},
  };
  for (const auto& [a, b] : pairs) {
    const Graph g = gen::disjoint_union(a, b);
    const WeightedGraph unit = WeightedGraph::from_unit_weights(g);
    EXPECT_EQ(weighted_diameter_exact(unit), testutil::brute_force_diameter(b));
    for (const std::uint64_t seed : {1u, 2u}) {
      const WeightedGraph w = random_weights(g, 9, seed);
      EXPECT_EQ(weighted_diameter_exact(w),
                testutil::brute_force_weighted_diameter(w))
          << "n=" << g.num_nodes() << " seed=" << seed;
    }
  }
  // Isolated nodes around a weighted edge.
  const WeightedGraph islands = WeightedGraph::from_edges(5, {{3, 4, 7}});
  EXPECT_EQ(weighted_diameter_exact(islands), 7u);
}

TEST(WeightedDiameter, TinyGraphs) {
  EXPECT_EQ(weighted_diameter_exact(WeightedGraph::from_edges(0, {})), 0u);
  EXPECT_EQ(weighted_diameter_exact(WeightedGraph::from_edges(1, {})), 0u);
  EXPECT_EQ(weighted_diameter_exact(WeightedGraph::from_edges(2, {})), 0u);
  EXPECT_EQ(weighted_diameter_exact(WeightedGraph::from_edges(2, {{0, 1, 5}})),
            5u);
  EXPECT_EQ(weighted_diameter_exact(WeightedGraph::from_edges(2, {{0, 1, 0}})),
            0u);
}

// Vertex-transitive shapes, where every eccentricity is equal and the
// bounds prune almost nothing: still exact.
TEST(WeightedDiameter, MatchesBruteForceWhereBoundsPruneLittle) {
  for (const Graph& g : {gen::complete(40), gen::cycle(60), gen::cycle(61)}) {
    const WeightedGraph unit = WeightedGraph::from_unit_weights(g);
    EXPECT_EQ(weighted_diameter_exact(unit), testutil::brute_force_diameter(g))
        << "n=" << g.num_nodes();
    const WeightedGraph w = random_weights(g, 6, 11);
    EXPECT_EQ(weighted_diameter_exact(w),
              testutil::brute_force_weighted_diameter(w))
        << "n=" << g.num_nodes();
  }
}

TEST(ApspMatrix, SymmetricAndConsistentWithDijkstra) {
  const Graph base = gen::ring_of_cliques(5, 4);
  const WeightedGraph g = WeightedGraph::from_unit_weights(base);
  const NodeId n = g.num_nodes();
  const auto mat = apsp_matrix(g);
  for (NodeId u = 0; u < n; ++u) {
    const auto d = dijkstra(g, u);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + v], d[v]);
      EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + v],
                mat[static_cast<std::size_t>(v) * n + u]);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + u], 0u);
  }
}

TEST(ApspMatrixDeathTest, RefusesOversizedInput) {
  const WeightedGraph g =
      WeightedGraph::from_unit_weights(gen::path(100));
  EXPECT_DEATH((void)apsp_matrix(g, /*max_nodes=*/50), "too large");
}

}  // namespace
}  // namespace gclus
