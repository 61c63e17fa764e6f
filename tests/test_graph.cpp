// Unit tests for the CSR Graph, the builder normalization rules, and
// induced subgraphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

TEST(GraphBuilder, BuildsTriangle) {
  const Graph g = build_graph(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_half_edges(), 6u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, RemovesSelfLoops) {
  const Graph g = build_graph(3, {{0, 0}, {0, 1}, {1, 1}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  const Graph g = build_graph(2, {{0, 1}, {1, 0}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, SymmetrizesDirectedInput) {
  const Graph g = build_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, AdjacencyListsAreSorted) {
  const Graph g = build_graph(5, {{4, 0}, {2, 0}, {0, 1}, {3, 0}});
  const auto adj = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
  EXPECT_EQ(adj.size(), 4u);
}

TEST(GraphBuilder, IsolatedNodesAllowed) {
  const Graph g = build_graph(10, {{0, 1}});
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.degree(5), 0u);
  EXPECT_TRUE(g.neighbors(5).empty());
}

TEST(GraphBuilder, EmptyGraph) {
  const Graph g = build_graph(4, {});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, IncrementalAddEdges) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edges({{1, 2}, {2, 3}});
  EXPECT_EQ(b.num_pending_edges(), 3u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilderDeathTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  EXPECT_DEATH(b.add_edge(0, 3), "out of range");
}

TEST(GraphBuilderDeathTest, AdoptedOutOfRangeEndpointFailsInBuild) {
  GraphBuilder b(3);
  b.adopt_edges({{0, 1}, {2, 3}});
  EXPECT_DEATH((void)b.build(), "out of range");
}

TEST(GraphBuilder, MatchesSerialBuildAtEveryPoolSize) {
  struct Case {
    const char* name;
    NodeId n;
    std::vector<Edge> edges;
  };
  std::vector<Case> cases;
  cases.push_back({"self-loops", 6, {{0, 0}, {1, 2}, {2, 2}, {4, 3}, {5, 5}}});
  cases.push_back({"duplicates", 5, {{0, 1}, {1, 0}, {0, 1}, {3, 2}, {2, 3}}});
  {
    // A 200000-leaf hub, every third spoke repeated reversed, shuffled.
    std::vector<Edge> spokes;
    for (NodeId i = 1; i < 200000; ++i) {
      spokes.emplace_back(0, i);
      if (i % 3 == 0) spokes.emplace_back(i, 0);
    }
    testutil::deterministic_shuffle(spokes, 1);
    cases.push_back({"star-hub", 200000, std::move(spokes)});
  }
  cases.push_back({"trailing-isolated", 100, {{0, 1}, {1, 2}, {4, 9}}});
  cases.push_back({"empty", 0, {}});
  cases.push_back({"edgeless", 7, {}});
  {
    // Every half-edge of an R-MAT graph (so each edge appears in both
    // directions) plus a self-loop per 64th node, shuffled.
    const Graph g = gen::rmat(1 << 15, 1 << 18, 5);
    std::vector<Edge> halves;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.neighbors(u)) halves.emplace_back(u, v);
      if (u % 64 == 0) halves.emplace_back(u, u);
    }
    testutil::deterministic_shuffle(halves, 2);
    ASSERT_GT(halves.size(), std::size_t{1} << 17);
    cases.push_back({"shuffled-rmat", g.num_nodes(), std::move(halves)});
  }
  {
    // Three nodes, 2^17 edges: every ordered pair, self-loops included,
    // over and over.  The count ranges outnumber the nodes, so some are
    // empty, and every row takes the deduplicating path.
    std::vector<Edge> dense;
    for (NodeId i = 0; i < (NodeId{1} << 17); ++i) {
      dense.emplace_back(i % 3, i / 3 % 3);
    }
    cases.push_back({"few-nodes-many-edges", 3, std::move(dense)});
  }

  // 3 is the pool of the perfbench workloads.
  for (const std::size_t threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    for (const auto& c : cases) {
      const Graph want = testutil::serial_build(c.n, c.edges);
      GraphBuilder b(c.n);
      b.adopt_edges(std::vector<Edge>(c.edges));
      const Graph got = b.build(pool);
      EXPECT_TRUE(testutil::same_csr(got, want))
          << c.name << " at " << threads << " threads";
      EXPECT_TRUE(got.validate()) << c.name;
    }
  }
}

// A Graph is two spans and one shared keepalive: copies and moves share
// the arrays, a copy keeps them alive once the original is gone, and a
// moved-from graph still pins them — checked once it is the last graph
// left that views them.  Run on a built graph and on one that views an
// mmap-ed file that has been unlinked.
TEST(Graph, CopiesAndMovesShareStorage) {
  const Graph want = gen::torus(12, 12);
  std::vector<std::pair<std::string, std::function<Graph()>>> sources;
  sources.emplace_back("built", [] { return gen::torus(12, 12); });
  const std::string path =
      (std::filesystem::temp_directory_path() / "gclus_graph_share.csr2")
          .string();
  if (io::mmap_supported()) {
    ASSERT_TRUE(testutil::is_ok(io::write_csr(want, path)));
    sources.emplace_back("mapped-unlinked", [&] {
      Graph g = io::load_csr(path, {.mode = io::CsrLoadMode::kMmap}).value();
      std::remove(path.c_str());  // the mapping pins the inode
      return g;
    });
  }
  for (const auto& [name, make] : sources) {
    Graph kept;
    {
      const Graph original = make();
      kept = original;
      EXPECT_EQ(kept.offsets().data(), original.offsets().data()) << name;
      EXPECT_EQ(kept.neighbor_array().data(),
                original.neighbor_array().data())
          << name;
    }
    const EdgeId* const offsets = kept.offsets().data();
    const NodeId* const neighbors = kept.neighbor_array().data();
    const auto shares = [&](const Graph& h) {
      return h.offsets().data() == offsets &&
             h.neighbor_array().data() == neighbors;
    };
    const auto intact = [&](const Graph& h) {
      return shares(h) && h.validate() && testutil::same_csr(h, want);
    };
    EXPECT_TRUE(intact(kept)) << name;  // outlived the original
    {
      const Graph moved(std::move(kept));
      EXPECT_TRUE(intact(moved)) << name;
    }
    EXPECT_TRUE(intact(kept)) << name;  // moved from, the last viewer
    {
      Graph assigned;
      assigned = std::move(kept);
      EXPECT_TRUE(intact(assigned)) << name;
    }
    EXPECT_TRUE(intact(kept)) << name;  // moved from, the last viewer
  }

  const Graph empty;
  Graph copy = empty;
  const Graph moved(std::move(copy));
  const Graph* const graphs[] = {&empty, &copy, &moved};
  for (const Graph* h : graphs) {
    EXPECT_EQ(h->num_nodes(), 0u);
    EXPECT_EQ(h->num_edges(), 0u);
    EXPECT_TRUE(h->offsets().empty());
    EXPECT_TRUE(h->validate());
  }
}

TEST(Graph, HasEdgeBinarySearch) {
  const Graph g = gen::grid(5, 5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 5));
  EXPECT_FALSE(g.has_edge(0, 6));   // diagonal
  EXPECT_FALSE(g.has_edge(0, 24));  // opposite corner
}

TEST(Graph, MemoryBytesScalesWithSize) {
  const Graph small = gen::path(10);
  const Graph large = gen::path(1000);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
}

TEST(Graph, ValidateCatchesHandCraftedAsymmetry) {
  // CSR with 0 -> 1 but no 1 -> 0: must fail validation.
  std::vector<EdgeId> offsets{0, 1, 1};
  std::vector<NodeId> neighbors{1};
  const Graph g(std::move(offsets), std::move(neighbors));
  EXPECT_FALSE(g.validate());
}

TEST(Graph, ValidateCatchesSelfLoop) {
  std::vector<EdgeId> offsets{0, 1};
  std::vector<NodeId> neighbors{0};
  const Graph g(std::move(offsets), std::move(neighbors));
  EXPECT_FALSE(g.validate());
}

TEST(InducedSubgraph, ExtractsTriangleFromGrid) {
  // Nodes 0,1,5 of a 5x5 grid: edges {0,1} and {0,5} survive, {1,5} absent.
  const Graph g = gen::grid(5, 5);
  const Graph s = induced_subgraph(g, {0, 1, 5});
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.num_edges(), 2u);
  EXPECT_TRUE(s.has_edge(0, 1));
  EXPECT_TRUE(s.has_edge(0, 2));
  EXPECT_FALSE(s.has_edge(1, 2));
}

TEST(InducedSubgraph, FullSubsetIsIdentity) {
  const Graph g = gen::cycle(12);
  std::vector<NodeId> all(12);
  for (NodeId i = 0; i < 12; ++i) all[i] = i;
  const Graph s = induced_subgraph(g, all);
  EXPECT_EQ(s.num_edges(), g.num_edges());
  EXPECT_TRUE(s.validate());
}

TEST(InducedSubgraphDeathTest, RejectsDuplicates) {
  const Graph g = gen::path(5);
  EXPECT_DEATH(induced_subgraph(g, {1, 1}), "duplicate");
}

// Every corpus graph satisfies the full CSR invariant set.
class CorpusGraphTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(CorpusGraphTest, SatisfiesInvariants) {
  const Graph& g = GetParam().graph;
  EXPECT_TRUE(g.validate()) << GetParam().name;
  EXPECT_GE(g.num_nodes(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusGraphTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

}  // namespace
}  // namespace gclus
