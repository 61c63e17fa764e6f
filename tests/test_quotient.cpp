// Tests for the quotient graph: edge existence mirrors crossing G-edges,
// weights equal the minimum §4 connection length, and the quotient of a
// connected graph is connected.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/cluster.hpp"
#include "core/growth.hpp"
#include "core/quotient.hpp"
#include "graph/connectivity.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

/// Grows a clustering from explicit centers (deterministic helper).
Clustering grow_from(const Graph& g, const std::vector<NodeId>& centers) {
  ThreadPool pool(1);
  GrowthState state(g, pool);
  for (const NodeId c : centers) state.add_center(c);
  while (state.covered_count() < g.num_nodes()) {
    if (state.frontier_empty()) state.add_singletons_for_uncovered();
    state.step();
  }
  return std::move(state).finish();
}

TEST(Quotient, PathWithTwoClusters) {
  const Graph g = gen::path(10);
  const Clustering c = grow_from(g, {0, 9});
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.num_clusters(), 2u);
  EXPECT_EQ(q.graph.num_edges(), 1u);
  EXPECT_TRUE(q.graph.has_edge(0, 1));
  // Synchronous growth splits the path as {0..4} vs {5..9}; the single
  // crossing edge is {4,5} with weight dist(4,0) + 1 + dist(5,9) = 9.
  ASSERT_EQ(q.weighted.neighbors(0).size(), 1u);
  EXPECT_EQ(q.weighted.neighbors(0)[0].w, 9u);
}

TEST(Quotient, SingleClusterHasNoEdges) {
  const Graph g = gen::grid(5, 5);
  const Clustering c = grow_from(g, {12});
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.num_clusters(), 1u);
  EXPECT_EQ(q.graph.num_edges(), 0u);
}

TEST(Quotient, EdgeExistsIffCrossingEdgeExists) {
  const Graph g = gen::grid(8, 8);
  const Clustering c = grow_from(g, {0, 7, 56, 63});
  const QuotientGraph q = build_quotient(g, c);
  // Reference: recompute crossing pairs by brute force.
  std::set<std::pair<ClusterId, ClusterId>> expected;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      const ClusterId a = c.assignment[u], b = c.assignment[v];
      if (a != b) expected.insert({std::min(a, b), std::max(a, b)});
    }
  }
  EXPECT_EQ(q.graph.num_edges(), expected.size());
  for (const auto& [a, b] : expected) {
    EXPECT_TRUE(q.graph.has_edge(a, b));
  }
}

TEST(Quotient, WeightsAreMinimalConnectionLengths) {
  const Graph g = gen::grid(8, 8);
  const Clustering c = grow_from(g, {0, 63});
  const QuotientGraph q = build_quotient(g, c);
  // Brute-force the minimal crossing weight.
  Weight best = kInfWeight;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (c.assignment[u] == c.assignment[v] || u > v) continue;
      best = std::min<Weight>(best, Weight{c.dist_to_center[u]} + 1 +
                                        c.dist_to_center[v]);
    }
  }
  ASSERT_EQ(q.weighted.neighbors(0).size(), 1u);
  EXPECT_EQ(q.weighted.neighbors(0)[0].w, best);
}

TEST(Quotient, WeightsAtLeastOneAndBoundedByRadii) {
  const Graph g = gen::road_like(20, 20, 0.08, 0.02, 13);
  const Clustering c = cluster(g, 4, {});
  const QuotientGraph q = build_quotient(g, c);
  for (NodeId a = 0; a < q.weighted.num_nodes(); ++a) {
    for (const auto& [b, w] : q.weighted.neighbors(a)) {
      EXPECT_GE(w, 1u);
      EXPECT_LE(w, Weight{c.radius[a]} + 1 + c.radius[b]);
    }
  }
}

TEST(Quotient, ConnectedInputGivesConnectedQuotient) {
  for (const auto& [name, graph] : testutil::small_connected_corpus()) {
    const Clustering c = cluster(graph, 3, {});
    const QuotientGraph q = build_quotient(graph, c, /*with_weights=*/false);
    EXPECT_TRUE(is_connected(q.graph)) << name;
  }
}

TEST(Quotient, WithoutWeightsSkipsWeightedGraph) {
  const Graph g = gen::grid(6, 6);
  const Clustering c = grow_from(g, {0, 35});
  const QuotientGraph q = build_quotient(g, c, /*with_weights=*/false);
  EXPECT_EQ(q.weighted.num_nodes(), 0u);
  EXPECT_EQ(q.graph.num_nodes(), 2u);
}

TEST(Quotient, SingletonClusteringIsIsomorphicToInput) {
  // Every node its own cluster: the quotient IS the input graph.
  const Graph g = gen::cycle(14);
  Clustering c;
  c.assignment.resize(14);
  c.dist_to_center.assign(14, 0);
  for (NodeId v = 0; v < 14; ++v) {
    c.assignment[v] = v;
    c.centers.push_back(v);
  }
  finalize_cluster_stats(c);
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(q.graph.num_edges(), g.num_edges());
  // All weights are 0 + 1 + 0 = 1.
  for (NodeId a = 0; a < q.weighted.num_nodes(); ++a) {
    for (const auto& [b, w] : q.weighted.neighbors(a)) EXPECT_EQ(w, 1u);
  }
}

/// Element-wise equality of both quotient CSRs, weights included.
void expect_same_quotient(const QuotientGraph& got, const QuotientGraph& want,
                          const std::string& what) {
  EXPECT_TRUE(testutil::same_csr(got.graph, want.graph)) << what;
  EXPECT_TRUE(std::ranges::equal(got.weighted.offsets(),
                                 want.weighted.offsets()))
      << what;
  const auto a = got.weighted.adjacency();
  const auto b = want.weighted.adjacency();
  EXPECT_TRUE(std::ranges::equal(a, b, [](const auto& x, const auto& y) {
    return x.to == y.to && x.w == y.w;
  })) << what;
}

TEST(Quotient, MatchesSerialBuildAtEveryPoolSize) {
  const auto corpus = testutil::small_connected_corpus();
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const auto& [name, g] : corpus) {
      for (const std::uint32_t tau : {1u, 4u, 16u}) {
        const Clustering c = cluster(g, tau, {});
        for (const bool weights : {false, true}) {
          expect_same_quotient(
              build_quotient(g, c, weights, &pool),
              testutil::serial_quotient(g, c, weights),
              name + " tau=" + std::to_string(tau) +
                  (weights ? " weighted" : "") + " @" +
                  std::to_string(threads));
        }
      }
    }
  }
}

TEST(Quotient, ManyCrossingPairsMatchSerialBuild) {
  // Voronoi cells of every third node of an expander: over 10k crossing
  // pairs with weights 1..3, so several workers fill large maps at once.
  const Graph g = gen::expander(30000, 4, 31);
  std::vector<NodeId> centers;
  for (NodeId v = 0; v < g.num_nodes(); v += 3) centers.push_back(v);
  Clustering c;
  std::vector<std::uint32_t> owner;
  c.dist_to_center = multi_source_bfs(g, centers, &owner);
  c.assignment.assign(owner.begin(), owner.end());
  c.centers = centers;
  finalize_cluster_stats(c);
  const QuotientGraph want = testutil::serial_quotient(g, c, true);
  ASSERT_GT(want.graph.num_edges(), 10000u);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    expect_same_quotient(build_quotient(g, c, true, &pool), want,
                         "@" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace gclus
