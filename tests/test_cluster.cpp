// Tests for CLUSTER(τ) — Algorithm 1.  Validity and determinism are
// checked on every corpus graph across τ and seeds; the Theorem-1 cluster
// count bound, the Lemma-1 radius behavior, and §3.2's disconnected-graph
// handling get dedicated cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/growth.hpp"
#include "core/weighted_cluster.hpp"
#include "graph/compressed.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/weighted.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

struct ClusterParam {
  std::size_t corpus_index;
  std::uint32_t tau;
  std::uint64_t seed;
};

class ClusterPropertyTest : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(ClusterPropertyTest, ProducesValidPartitionWithBoundedCount) {
  const auto corpus = testutil::small_connected_corpus();
  const auto& [name, graph] = corpus.at(GetParam().corpus_index);
  ClusterOptions opts;
  opts.seed = GetParam().seed;
  const Clustering c = cluster(graph, GetParam().tau, opts);

  EXPECT_TRUE(c.validate(graph)) << name;

  // Radius can never exceed the diameter.
  const Dist diam = testutil::brute_force_diameter(graph);
  EXPECT_LE(c.max_radius(), diam) << name;

  // Theorem 1: O(τ·log²n) clusters.  The constant hidden by the O is
  // 4·(stop-threshold slack); 40 is a generous-but-meaningful ceiling
  // that catches regressions to near-singleton behavior.
  const double logn =
      std::max(1.0, std::log2(static_cast<double>(graph.num_nodes())));
  const double bound = 40.0 * GetParam().tau * logn * logn;
  EXPECT_LE(c.num_clusters(), bound) << name;

  // Growth accounting is consistent.
  EXPECT_GE(c.growth_steps, c.max_radius());
}

std::vector<ClusterParam> cluster_params() {
  std::vector<ClusterParam> params;
  const std::size_t corpus_size = testutil::small_connected_corpus().size();
  for (std::size_t g = 0; g < corpus_size; ++g) {
    for (const std::uint32_t tau : {1u, 2u, 8u}) {
      params.push_back({g, tau, 1});
    }
    params.push_back({g, 4, 999});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterPropertyTest, ::testing::ValuesIn(cluster_params()),
    [](const ::testing::TestParamInfo<ClusterParam>& info) {
      return "g" + std::to_string(info.param.corpus_index) + "_tau" +
             std::to_string(info.param.tau) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(Cluster, DeterministicAcrossThreadCounts) {
  const Graph g = gen::road_like(30, 30, 0.08, 0.02, 5);
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ClusterOptions opts;
    opts.seed = 7;
    opts.pool = &pool;
    return cluster(g, 4, opts);
  };
  const Clustering a = run(1);
  const Clustering b = run(2);
  const Clustering c = run(4);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.assignment, c.assignment);
  EXPECT_EQ(a.dist_to_center, c.dist_to_center);
  EXPECT_EQ(a.centers, c.centers);
}

// The partition must be a pure function of (graph, seed, τ): forcing the
// growth engine into push-only, pull-only, or hybrid sweeps across thread
// counts must leave every byte of the clustering unchanged.
TEST(Cluster, TraversalModesGiveIdenticalClusterings) {
  const auto corpus = testutil::small_connected_corpus();
  for (const auto& [name, g] : corpus) {
    auto run = [&g = g](TraversalMode mode, std::size_t threads) {
      ThreadPool pool(threads);
      ClusterOptions opts;
      opts.seed = 11;
      opts.pool = &pool;
      opts.growth.mode = mode;
      return cluster(g, 4, opts);
    };
    const Clustering base = run(TraversalMode::kPushOnly, 1);
    EXPECT_TRUE(base.validate(g)) << name;
    for (const TraversalMode mode :
         {TraversalMode::kPushOnly, TraversalMode::kPullOnly,
          TraversalMode::kAuto}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        const Clustering c = run(mode, threads);
        EXPECT_EQ(base.assignment, c.assignment)
            << name << " mode=" << traversal_mode_name(mode)
            << " threads=" << threads;
        EXPECT_EQ(base.dist_to_center, c.dist_to_center) << name;
        EXPECT_EQ(base.centers, c.centers) << name;
        EXPECT_EQ(c.growth_steps, c.push_steps + c.pull_steps) << name;
      }
    }
  }
}

TEST(Cluster, DifferentSeedsGiveDifferentClusterings) {
  const Graph g = gen::grid(30, 30);
  ClusterOptions o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  const Clustering a = cluster(g, 4, o1);
  const Clustering b = cluster(g, 4, o2);
  EXPECT_NE(a.assignment, b.assignment);
}

TEST(Cluster, LargerTauNotMuchLargerRadius) {
  // Radius is (stochastically) non-increasing in τ; allow slack but catch
  // gross inversions on a long path where the effect is strong.
  const Graph g = gen::path(2000);
  ClusterOptions opts;
  opts.seed = 3;
  const Dist r_small = cluster(g, 1, opts).max_radius();
  const Dist r_large = cluster(g, 16, opts).max_radius();
  EXPECT_LE(r_large, r_small);
}

TEST(Cluster, TinyGraphDegeneratesToSingletons) {
  // n < 8·τ·log n: the loop body never runs; every node is a singleton.
  const Graph g = gen::path(10);
  const Clustering c = cluster(g, 4);
  EXPECT_EQ(c.num_clusters(), 10u);
  EXPECT_EQ(c.max_radius(), 0u);
  EXPECT_TRUE(c.validate(g));
}

TEST(Cluster, CoversExpanderPathCompositeTightly) {
  // The §3 discussion: on expander+path, batched activation keeps the
  // radius near polylog instead of the Θ(√n) path length.
  const Graph g = gen::expander_with_path(2048, 256, 4, 9);
  ClusterOptions opts;
  opts.seed = 4;
  const Clustering c = cluster(g, 32, opts);
  EXPECT_TRUE(c.validate(g));
  const Dist diam = exact_diameter(g).diameter;  // >= 256
  EXPECT_LT(c.max_radius(), diam / 2) << "radius should beat the tail";
}

TEST(Cluster, DisconnectedGraphIsHandled) {
  const Graph g = gen::disjoint_union(gen::grid(12, 12),
                                      gen::cycle(60));
  const Clustering c = cluster(g, 4);
  EXPECT_TRUE(c.validate(g));
  // No cluster may span components.
  const Components comps = connected_components(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(comps.label[v],
              comps.label[c.centers[c.assignment[v]]]);
  }
}

TEST(Cluster, ManySmallComponents) {
  Graph g = gen::disjoint_union(gen::path(7), gen::path(7));
  for (int i = 0; i < 4; ++i) g = gen::disjoint_union(g, gen::path(7));
  const Clustering c = cluster(g, 6, {});
  EXPECT_TRUE(c.validate(g));
}

TEST(Cluster, SingleNodeGraph) {
  const Graph g = gen::path(1);
  const Clustering c = cluster(g, 1);
  EXPECT_EQ(c.num_clusters(), 1u);
  EXPECT_TRUE(c.validate(g));
}

TEST(ClusterDeathTest, RejectsTauZero) {
  const Graph g = gen::path(4);
  EXPECT_DEATH((void)cluster(g, 0), "tau");
}

TEST(SelectionProbability, MatchesFormulaAndClamps) {
  // p = c·τ·log2(n)/uncovered, clamped at 1.
  EXPECT_DOUBLE_EQ(cluster_selection_probability(2, 1024, 1000, 4.0),
                   4.0 * 2 * 10 / 1000.0);
  EXPECT_DOUBLE_EQ(cluster_selection_probability(100, 1024, 10, 4.0), 1.0);
}

TEST(Cluster, IterationCountIsLogarithmic) {
  const Graph g = gen::grid(50, 50);
  const Clustering c = cluster(g, 2);
  // At most ~log2(n) + slack iterations (uncovered halves each time).
  EXPECT_LE(c.iterations,
            2 * static_cast<std::size_t>(
                    std::log2(static_cast<double>(g.num_nodes()))) + 4);
}

TEST(Cluster, ClusterCountGrowsWithTau) {
  const Graph g = gen::grid(40, 40);
  ClusterOptions opts;
  opts.seed = 6;
  const auto k1 = cluster(g, 1, opts).num_clusters();
  const auto k8 = cluster(g, 8, opts).num_clusters();
  EXPECT_GT(k8, k1);
}

void expect_same_partition(const Clustering& got, const Clustering& want,
                           const std::string& label) {
  EXPECT_EQ(got.assignment, want.assignment) << label;
  EXPECT_EQ(got.dist_to_center, want.dist_to_center) << label;
  EXPECT_EQ(got.centers, want.centers) << label;
}

// One graph on which CLUSTER's center draw takes both regimes (gap walks
// early, sweeps late), and every CLUSTER-family path stays in lockstep
// through both: pools 1/2/8, plain vs compressed CSR, MR vs shared memory
// (in memory and spilled), and weighted on unit weights vs CLUSTER.
TEST(Cluster, BothDrawRegimesKeepEveryClusterPathInLockstep) {
  const Graph g = gen::road_like(300, 300, 0.08, 0.02, 1);
  const NodeId n = g.num_nodes();
  constexpr std::uint32_t kTau = 1;
  ClusterOptions opts;
  opts.seed = 5;

  // CLUSTER's loop replayed on the engine, to read each draw's uncovered
  // count; it must reproduce cluster() byte for byte, so the regimes it
  // sees are CLUSTER's.
  std::vector<bool> gaps;
  Clustering replay;
  {
    ThreadPool pool(2);
    GrowthState state(g, pool);
    const double stop =
        opts.threshold_constant * kTau * std::log2(static_cast<double>(n));
    for (std::uint64_t it = 0; state.uncovered_count() >= stop; ++it) {
      const NodeId uncovered = state.uncovered_count();
      const double p = cluster_selection_probability(
          kTau, n, uncovered, opts.selection_constant);
      gaps.push_back(CenterDraw(opts.seed, it, p, n, uncovered).gaps());
      for (const NodeId c : sample_uncovered_centers(state, opts.seed, it, p)) {
        state.add_center(c);
      }
      if (state.frontier_empty()) state.add_center(state.first_uncovered());
      const NodeId target = (uncovered + 1) / 2;
      const NodeId covered = uncovered - state.uncovered_count();
      if (covered < target) state.grow_until_covered(target - covered);
    }
    state.add_singletons_for_uncovered();
    replay = std::move(state).finish();
  }
  ASSERT_GE(gaps.size(), 3u);
  EXPECT_TRUE(gaps.front()) << "iteration 0 should walk gaps";
  EXPECT_FALSE(gaps.back()) << "the last iteration should sweep";

  const Clustering reference = cluster(g, kTau, opts);
  ASSERT_TRUE(reference.validate(g));
  expect_same_partition(replay, reference, "replayed loop");

  ClusterOptions c2opts = opts;
  const Cluster2Result reference2 = cluster2(g, kTau, c2opts);
  ASSERT_TRUE(reference2.clustering.validate(g));
  const CompressedGraph cz = compress(g);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ClusterOptions o = opts;
    o.pool = &pool;
    const std::string at = " at " + std::to_string(threads) + " threads";
    expect_same_partition(cluster(g, kTau, o), reference, "plain" + at);
    expect_same_partition(cluster(cz, kTau, o), reference, "compressed" + at);
    expect_same_partition(cluster2(g, kTau, o).clustering,
                          reference2.clustering, "cluster2 plain" + at);
    expect_same_partition(cluster2(cz, kTau, o).clustering,
                          reference2.clustering, "cluster2 compressed" + at);
  }

  constexpr std::uint64_t kSpilled = std::uint64_t{1} << 16;
  for (const std::uint64_t spill : {mr::kSpillUnbounded, kSpilled}) {
    mr::Config cfg;
    cfg.spill_memory_bytes = spill;
    cfg.spill_strict = true;
    mr::Engine engine(cfg);
    mr_algos::MrClusterOptions mopts;
    mopts.seed = opts.seed;
    const auto mr = mr_algos::mr_cluster(engine, g, kTau, mopts);
    ASSERT_TRUE(mr.ok()) << mr.status().to_string();
    const std::string label =
        spill == mr::kSpillUnbounded ? "mr in memory" : "mr spilled";
    expect_same_partition(mr->clustering, reference, label);
    if (spill != mr::kSpillUnbounded) {
      EXPECT_GT(engine.metrics().bytes_spilled, 0u) << label;
    }
  }

  WeightedClusterOptions wopts;
  wopts.seed = opts.seed;
  const WeightedClustering w =
      weighted_cluster(WeightedGraph::from_unit_weights(g), kTau, wopts);
  EXPECT_EQ(w.assignment, reference.assignment) << "weighted";
  EXPECT_EQ(w.centers, reference.centers) << "weighted";
  EXPECT_TRUE(std::equal(w.dist_to_center.begin(), w.dist_to_center.end(),
                         reference.dist_to_center.begin()))
      << "weighted";
}

}  // namespace
}  // namespace gclus
