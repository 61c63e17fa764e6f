// Tests for the distance oracle (§4 final remark), queried through
// QueryEngine — the one evaluation of d′(u,v): upper-bound soundness
// against exact BFS distances over sampled pairs, the zero-on-identity
// contract, the additive+multiplicative distortion guarantee with
// explicit slack, and the decomposition oracle_clustering picks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/cluster2.hpp"
#include "core/distance_oracle.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "server/engine.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

server::QueryEngine build_oracle(const Graph& g,
                                 const DistanceOracleOptions& opts = {}) {
  return server::QueryEngine::build(Graph(g), opts).value();
}

class OracleSoundnessTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(OracleSoundnessTest, NeverUnderestimates) {
  const auto& [name, graph] = GetParam();
  DistanceOracleOptions opts;
  opts.seed = 3;
  const server::QueryEngine oracle = build_oracle(graph, opts);

  // Exact distances from a few sampled sources; every queried pair must
  // satisfy bfs <= oracle and the distortion bound.
  Rng rng(99);
  const double logn =
      std::max(2.0, std::log2(static_cast<double>(graph.num_nodes())));
  for (int s = 0; s < 4; ++s) {
    const auto u = static_cast<NodeId>(rng.next_below(graph.num_nodes()));
    const auto exact = bfs_distances(graph, u);
    for (int q = 0; q < 50; ++q) {
      const auto v = static_cast<NodeId>(rng.next_below(graph.num_nodes()));
      const std::uint64_t ub = oracle.approx_distance(u, v).value();
      EXPECT_GE(ub, exact[v]) << name;
      // d'(u,v) = O(d·log³n + R_ALG2) with generous constant 16.
      EXPECT_LE(static_cast<double>(ub),
                16.0 * (exact[v] * logn * logn * logn +
                        oracle.max_radius() + 1.0))
          << name << " pair (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, OracleSoundnessTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(Oracle, IdentityQueriesAreZero) {
  const Graph g = gen::grid(15, 15);
  const server::QueryEngine oracle = build_oracle(g);
  for (NodeId v = 0; v < g.num_nodes(); v += 17) {
    EXPECT_EQ(oracle.approx_distance(v, v).value(), 0u);
  }
}

TEST(Oracle, SymmetricQueries) {
  const Graph g = gen::road_like(18, 18, 0.08, 0.02, 7);
  const server::QueryEngine oracle = build_oracle(g);
  Rng rng(5);
  for (int q = 0; q < 100; ++q) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(oracle.approx_distance(u, v).value(),
              oracle.approx_distance(v, u).value());
  }
}

TEST(Oracle, SameClusterUsesLabelPath) {
  // On a clique, everything lands in one cluster with radius <= 1:
  // oracle bound for distinct nodes is at most 2.
  const Graph g = gen::complete(40);
  DistanceOracleOptions opts;
  opts.tau = 1;
  const server::QueryEngine oracle = build_oracle(g, opts);
  EXPECT_LE(oracle.approx_distance(3, 17).value(), 2u);
  EXPECT_GE(oracle.approx_distance(3, 17).value(), 1u);
}

TEST(Oracle, ExplicitTauControlsClusterCount) {
  const Graph g = gen::grid(30, 30);
  DistanceOracleOptions coarse, fine;
  coarse.tau = 1;
  fine.tau = 16;
  EXPECT_LT(oracle_clustering(g, coarse).num_clusters(),
            oracle_clustering(g, fine).num_clusters());
}

TEST(Oracle, ClusteringResolvesTauOnTheDerivedSeed) {
  // n = 1024: √n / log²n = 32 / 100 < 1, so τ resolves to its floor 1.
  const Graph g = gen::grid(32, 32);
  DistanceOracleOptions opts;
  opts.seed = 9;
  RecordingTelemetry telemetry;
  opts.telemetry = &telemetry;
  std::uint32_t tau = 0;
  const Clustering c = oracle_clustering(g, opts, &tau);
  EXPECT_EQ(tau, 1u);
  EXPECT_EQ(telemetry.value("oracle.tau"), 1.0);

  ClusterOptions copts;
  copts.seed = derive_seed(opts.seed, kSeedTagOracleBuild);
  const Clustering direct = cluster2(g, tau, copts).clustering;
  EXPECT_EQ(c.assignment, direct.assignment);
  EXPECT_EQ(c.centers, direct.centers);
  EXPECT_EQ(c.dist_to_center, direct.dist_to_center);
}

TEST(Oracle, ClusterVariantAlsoSound) {
  const Graph g = gen::cycle(300);
  DistanceOracleOptions opts;
  opts.use_cluster2 = false;
  const server::QueryEngine oracle = build_oracle(g, opts);
  const auto exact = bfs_distances(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); v += 13) {
    EXPECT_GE(oracle.approx_distance(0, v).value(), exact[v]);
  }
}

}  // namespace
}  // namespace gclus
