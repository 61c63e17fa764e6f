// Tests for connected components and largest-component extraction.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

/// `g` with its node ids shuffled, so components interleave in id order.
Graph shuffled(const Graph& g, std::uint64_t seed) {
  std::vector<NodeId> perm(g.num_nodes());
  std::iota(perm.begin(), perm.end(), NodeId{0});
  Rng rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(perm[u], perm[v]);
    }
  }
  return build_graph(g.num_nodes(), edges);
}

/// Disconnected inputs for the differential test: isolated nodes,
/// interleaved components, many small components and a hub.
std::vector<testutil::NamedGraph> disconnected_corpus() {
  std::vector<testutil::NamedGraph> out;
  const Graph isolated = build_graph(7, {});
  out.push_back({"union-with-isolated",
                 gen::disjoint_union(
                     gen::disjoint_union(gen::path(4), isolated),
                     gen::disjoint_union(gen::cycle(6), isolated))});
  // Component {0, 5} holds the smallest node but is not contiguous, and
  // in {1, 2, 4, 7} the hub 7 is every leaf's first neighbour: only
  // hooking the larger root under the smaller makes 0 and 1 the roots.
  out.push_back({"interleaved-by-hand",
                 build_graph(9, {{5, 0}, {7, 1}, {7, 2}, {7, 4}, {3, 6}})});
  const Graph mixed = gen::disjoint_union(
      gen::disjoint_union(gen::grid(40, 40), gen::random_tree(3000, 3)),
      gen::disjoint_union(gen::star(500), build_graph(200, {})));
  out.push_back({"shuffled-union", shuffled(mixed, 5)});
  // Unextracted: thousands of components, most of them isolated nodes.
  out.push_back({"rmat-2^14", gen::rmat(NodeId{1} << 14, 1u << 15, 29)});
  out.push_back({"star-5000", gen::star(5000)});
  out.push_back({"shuffled-star-5000", shuffled(gen::star(5000), 9)});
  return out;
}

void expect_same_components(const Components& got, const Components& want,
                            const std::string& what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.label, want.label) << what;
  EXPECT_EQ(got.sizes, want.sizes) << what;
}

TEST(ConnectedComponents, MatchesSerialSweepAtEveryPoolSize) {
  std::vector<testutil::NamedGraph> graphs = testutil::small_connected_corpus();
  for (auto& named : disconnected_corpus()) graphs.push_back(std::move(named));
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const auto& [name, g] : graphs) {
      expect_same_components(connected_components(g, &pool),
                             testutil::serial_components(g),
                             name + " @" + std::to_string(threads));
    }
  }
}

TEST(ConnectedComponents, SingleComponent) {
  const Graph g = gen::cycle(10);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 1u);
  EXPECT_EQ(c.sizes[0], 10u);
  for (const NodeId label : c.label) EXPECT_EQ(label, 0u);
}

TEST(ConnectedComponents, TwoComponents) {
  const Graph g = gen::disjoint_union(gen::path(4), gen::cycle(6));
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 2u);
  EXPECT_EQ(c.sizes[0] + c.sizes[1], 10u);
  EXPECT_NE(c.label[0], c.label[4]);
  EXPECT_EQ(c.label[4], c.label[9]);
}

TEST(ConnectedComponents, IsolatedNodesAreSingletons) {
  const Graph g = build_graph(5, {{0, 1}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 4u);  // {0,1}, {2}, {3}, {4}
}

TEST(IsConnected, Basics) {
  EXPECT_TRUE(is_connected(gen::path(5)));
  EXPECT_FALSE(is_connected(gen::disjoint_union(gen::path(2), gen::path(2))));
  EXPECT_TRUE(is_connected(build_graph(1, {})));
}

TEST(LargestComponent, PicksTheBiggerSide) {
  const Graph g = gen::disjoint_union(gen::path(3), gen::cycle(8));
  const ExtractedComponent ex = largest_component(g);
  EXPECT_EQ(ex.graph.num_nodes(), 8u);
  EXPECT_EQ(ex.graph.num_edges(), 8u);
  EXPECT_EQ(ex.original_id.size(), 8u);
  // Original ids of the cycle side are 3..10.
  for (const NodeId orig : ex.original_id) EXPECT_GE(orig, 3u);
  EXPECT_TRUE(is_connected(ex.graph));
}

TEST(LargestComponent, ConnectedGraphIsUnchanged) {
  const Graph g = gen::grid(4, 4);
  const ExtractedComponent ex = largest_component(g);
  EXPECT_EQ(ex.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(ex.graph.num_edges(), g.num_edges());
}

TEST(LargestComponent, MappingIsConsistent) {
  const Graph g = gen::disjoint_union(gen::path(2), gen::grid(3, 3));
  const ExtractedComponent ex = largest_component(g);
  // Every edge of the extracted graph exists between the original ids.
  for (NodeId u = 0; u < ex.graph.num_nodes(); ++u) {
    for (const NodeId v : ex.graph.neighbors(u)) {
      EXPECT_TRUE(g.has_edge(ex.original_id[u], ex.original_id[v]));
    }
  }
}

}  // namespace
}  // namespace gclus
