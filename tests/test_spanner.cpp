// Tests for the Baswana–Sen spanner (§5 / Theorem 4 machinery): the
// stretch guarantee over sampled pairs, size reduction on dense inputs,
// subgraph-ness, connectivity preservation, and the Theorem-4 integration
// in the MR diameter pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/spanner.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/weighted.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

struct SpannerParam {
  std::size_t corpus_index;
  unsigned k;
};

class SpannerStretchTest : public ::testing::TestWithParam<SpannerParam> {};

TEST_P(SpannerStretchTest, StretchWithinBoundOnSampledPairs) {
  const auto corpus = testutil::small_connected_corpus();
  const auto& [name, graph] = corpus.at(GetParam().corpus_index);
  const WeightedGraph wg = WeightedGraph::from_unit_weights(graph);
  SpannerOptions opts;
  opts.k = GetParam().k;
  opts.seed = 5;
  const SpannerResult sp = baswana_sen_spanner(wg, opts);
  EXPECT_EQ(sp.stretch, 2 * GetParam().k - 1);
  EXPECT_LE(sp.kept_edges, sp.input_edges) << name;

  Rng rng(17);
  for (int s = 0; s < 3; ++s) {
    const auto u = static_cast<NodeId>(rng.next_below(graph.num_nodes()));
    const auto exact = dijkstra(wg, u);
    const auto approx = dijkstra(sp.spanner, u);
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      ASSERT_NE(approx[v], kInfWeight)
          << name << ": spanner disconnected " << u << "-" << v;
      EXPECT_GE(approx[v], exact[v]) << name;  // subgraph: only longer
      EXPECT_LE(approx[v], static_cast<Weight>(sp.stretch) * exact[v])
          << name << " pair (" << u << "," << v << ")";
    }
  }
}

std::vector<SpannerParam> spanner_params() {
  std::vector<SpannerParam> params;
  const std::size_t corpus_size = testutil::small_connected_corpus().size();
  for (std::size_t g = 0; g < corpus_size; ++g) {
    params.push_back({g, 2});
  }
  params.push_back({10, 3});  // expander, 5-spanner
  params.push_back({7, 3});   // random tree, 5-spanner
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SpannerStretchTest, ::testing::ValuesIn(spanner_params()),
    [](const ::testing::TestParamInfo<SpannerParam>& info) {
      return "g" + std::to_string(info.param.corpus_index) + "_k" +
             std::to_string(info.param.k);
    });

TEST(Spanner, ShrinksDenseGraphs) {
  // K_n has n(n-1)/2 edges; a 3-spanner needs ~n^{3/2}.
  const WeightedGraph g =
      WeightedGraph::from_unit_weights(gen::complete(120));
  SpannerOptions opts;
  opts.k = 2;
  const SpannerResult sp = baswana_sen_spanner(g, opts);
  EXPECT_LT(sp.kept_edges, sp.input_edges / 2);
}

TEST(Spanner, KOneIsIdentity) {
  const WeightedGraph g =
      WeightedGraph::from_unit_weights(gen::grid(8, 8));
  SpannerOptions opts;
  opts.k = 1;
  const SpannerResult sp = baswana_sen_spanner(g, opts);
  EXPECT_EQ(sp.kept_edges, g.num_edges());
  EXPECT_EQ(sp.stretch, 1u);
}

TEST(Spanner, TreeIsPreservedEntirely) {
  // Removing any tree edge disconnects; a valid spanner must keep all.
  const WeightedGraph g =
      WeightedGraph::from_unit_weights(gen::random_tree(300, 3));
  SpannerOptions opts;
  opts.k = 2;
  const SpannerResult sp = baswana_sen_spanner(g, opts);
  EXPECT_EQ(sp.kept_edges, g.num_edges());
}

TEST(Spanner, RespectsWeightsInStretch) {
  // Weighted cycle: spanner distances within 3x of weighted truth.
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  for (NodeId i = 0; i < 60; ++i) {
    edges.emplace_back(i, (i + 1) % 60, 1 + (i % 7));
  }
  const WeightedGraph g = WeightedGraph::from_edges(60, std::move(edges));
  SpannerOptions opts;
  opts.k = 2;
  const SpannerResult sp = baswana_sen_spanner(g, opts);
  const auto exact = dijkstra(g, 0);
  const auto approx = dijkstra(sp.spanner, 0);
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_LE(approx[v], 3 * exact[v] + 1);
  }
}

TEST(Spanner, DeterministicForSeed) {
  const WeightedGraph g =
      WeightedGraph::from_unit_weights(gen::erdos_renyi(400, 3000, 9));
  SpannerOptions opts;
  opts.k = 2;
  opts.seed = 11;
  const SpannerResult a = baswana_sen_spanner(g, opts);
  const SpannerResult b = baswana_sen_spanner(g, opts);
  EXPECT_EQ(a.kept_edges, b.kept_edges);
}

TEST(SpannerDeathTest, RejectsKZero) {
  const WeightedGraph g = WeightedGraph::from_unit_weights(gen::path(4));
  SpannerOptions opts;
  opts.k = 0;
  EXPECT_DEATH((void)baswana_sen_spanner(g, opts), "k must be");
}

TEST(Theorem4Integration, SparsifiedPipelineStaysSound) {
  // Force sparsification with a tiny quotient-edge budget; the estimate
  // must remain an upper bound on the true diameter.
  const Graph g = gen::grid(40, 40);
  mr::Engine engine;
  mr_algos::MrClusterOptions opts;
  opts.seed = 3;
  opts.max_quotient_edges = 64;
  const auto sparse = mr_algos::mr_cluster_diameter(engine, g, 8, opts).value();
  EXPECT_TRUE(sparse.sparsified);
  EXPECT_LE(sparse.sparsified_edges, sparse.quotient_edges);
  EXPECT_GE(sparse.estimate, 78u);  // true diameter of the 40x40 grid

  // Against the unsparsified run: at most stretch-3 looser.
  mr::Engine engine2;
  mr_algos::MrClusterOptions dense_opts;
  dense_opts.seed = 3;
  const auto dense =
      mr_algos::mr_cluster_diameter(engine2, g, 8, dense_opts).value();
  EXPECT_FALSE(dense.sparsified);
  EXPECT_LE(sparse.estimate, 3 * dense.estimate);
}

}  // namespace
}  // namespace gclus
