// Tests for the k-center approximation (§3.1/§3.2): exact-k output, the
// merging path (more clusters than k), padding (fewer), optimality ratio
// against brute force on tiny graphs and against the Theorem-2 polylog
// bound via Gonzalez on the corpus, disconnected-graph support, and the
// incremental padding's equivalence to one full sweep per padded center.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "baselines/gonzalez.hpp"
#include "core/kcenter.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

struct KCenterParam {
  std::size_t corpus_index;
  NodeId k;
};

class KCenterPropertyTest : public ::testing::TestWithParam<KCenterParam> {};

TEST_P(KCenterPropertyTest, ValidCentersWithinPolylogOfGonzalez) {
  const auto corpus = testutil::small_connected_corpus();
  const auto& [name, graph] = corpus.at(GetParam().corpus_index);
  const NodeId k = std::min<NodeId>(GetParam().k, graph.num_nodes());
  KCenterOptions opts;
  opts.seed = 3;
  const KCenterResult r = kcenter_approx(graph, k, opts);

  EXPECT_EQ(r.centers.size(), k) << name;
  const std::set<NodeId> distinct(r.centers.begin(), r.centers.end());
  EXPECT_EQ(distinct.size(), k) << name << " centers must be distinct";

  // The evaluated radius matches an independent recomputation.
  const auto [radius, owner] = evaluate_centers(graph, r.centers);
  EXPECT_EQ(radius, r.radius) << name;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    ASSERT_LT(r.nearest_center[v], k);
  }

  // Gonzalez is a 2-approximation, so OPT >= gonzalez/2.  Theorem 2 says
  // our radius is within O(log³n) of OPT; assert with explicit slack.
  const auto gz = baselines::gonzalez_kcenter(graph, k);
  const double logn =
      std::max(2.0, std::log2(static_cast<double>(graph.num_nodes())));
  const double opt_lb = std::max(1.0, gz.radius / 2.0);
  EXPECT_LE(static_cast<double>(r.radius), 8.0 * opt_lb * logn * logn * logn)
      << name;
}

std::vector<KCenterParam> kcenter_params() {
  std::vector<KCenterParam> params;
  const std::size_t corpus_size = testutil::small_connected_corpus().size();
  for (std::size_t g = 0; g < corpus_size; ++g) {
    for (const NodeId k : {1u, 4u, 16u}) params.push_back({g, k});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KCenterPropertyTest, ::testing::ValuesIn(kcenter_params()),
    [](const ::testing::TestParamInfo<KCenterParam>& info) {
      return "g" + std::to_string(info.param.corpus_index) + "_k" +
             std::to_string(info.param.k);
    });

TEST(KCenter, NearOptimalOnTinyGraphsVsBruteForce) {
  // n <= 14, k = 2: exhaustive optimum is computable; Theorem 2's factor
  // at this size is tiny, so stay within 4x of optimal.
  const Graph graphs[] = {gen::path(12), gen::cycle(14), gen::grid(3, 4),
                          gen::binary_tree(13)};
  for (const Graph& g : graphs) {
    const Dist opt = testutil::brute_force_kcenter_radius(g, 2);
    KCenterOptions opts;
    opts.seed = 5;
    const KCenterResult r = kcenter_approx(g, 2, opts);
    EXPECT_LE(r.radius, std::max<Dist>(4 * opt, opt + 3));
  }
}

TEST(KCenter, MergingPathActivatesWhenClustersExceedK) {
  // Small k on a big graph: CLUSTER returns far more than k clusters and
  // the quotient-forest merge must bring it down to exactly k.
  const Graph g = gen::grid(40, 40);
  KCenterOptions opts;
  opts.seed = 7;
  const KCenterResult r = kcenter_approx(g, 3, opts);
  EXPECT_EQ(r.centers.size(), 3u);
  EXPECT_GT(r.raw_clusters, 3u);  // merge actually happened
  EXPECT_LE(r.radius, 78u);       // never exceeds the diameter
}

TEST(KCenter, PaddingPathActivatesWhenClustersBelowK) {
  // Huge k on a small graph: CLUSTER yields fewer clusters; the
  // farthest-first padding must fill up to k.
  const Graph g = gen::path(40);
  KCenterOptions opts;
  opts.seed = 9;
  const KCenterResult r = kcenter_approx(g, 20, opts);
  EXPECT_EQ(r.centers.size(), 20u);
  // 20 centers on a 40-path: radius must be tiny.
  EXPECT_LE(r.radius, 4u);
}

TEST(KCenter, RadiusDecreasesWithK) {
  const Graph g = gen::grid(30, 30);
  KCenterOptions opts;
  opts.seed = 11;
  const Dist r2 = kcenter_approx(g, 2, opts).radius;
  const Dist r20 = kcenter_approx(g, 20, opts).radius;
  EXPECT_LT(r20, r2);
}

TEST(KCenter, DisconnectedGraphNeedsKAtLeastComponents) {
  const Graph g = gen::disjoint_union(gen::grid(8, 8), gen::cycle(30));
  KCenterOptions opts;
  opts.seed = 13;
  const KCenterResult r = kcenter_approx(g, 5, opts);
  EXPECT_EQ(r.centers.size(), 5u);
  // Every node is covered at finite distance (checked inside evaluate).
  EXPECT_GT(r.radius, 0u);
}

TEST(KCenterDeathTest, RejectsKBelowComponentCount) {
  const Graph g = gen::disjoint_union(gen::path(5), gen::path(5));
  EXPECT_DEATH((void)kcenter_approx(g, 1, {}), "components");
}

TEST(KCenter, KEqualsNIsZeroRadius) {
  const Graph g = gen::cycle(12);
  const KCenterResult r = kcenter_approx(g, 12, {});
  EXPECT_EQ(r.radius, 0u);
}

// --- Padding equivalence: kcenter_approx pads with one full sweep plus a
// pruned relax_from per added center.  The reference below is the loop it
// replaced, a full multi_source_bfs per added center; the two must agree
// byte for byte. ---

/// Pads the first k - r.padded entries of `r.centers` (the CLUSTER or
/// merged centers) farthest-first with one full BFS per added center, then
/// evaluates exactly.
KCenterResult reference_padding(const Graph& g, const KCenterResult& r) {
  const NodeId n = g.num_nodes();
  const auto k = static_cast<NodeId>(r.centers.size());
  std::vector<NodeId> centers(r.centers.begin(),
                              r.centers.begin() + (k - r.padded));
  while (centers.size() < k) {
    const auto dist = multi_source_bfs(g, centers);
    NodeId best = kInvalidNode;
    Dist best_d = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] != kInfDist && dist[v] > best_d) {
        best_d = dist[v];
        best = v;
      }
    }
    if (best == kInvalidNode) {
      for (NodeId v = 0; v < n && centers.size() < k; ++v) {
        if (std::find(centers.begin(), centers.end(), v) == centers.end()) {
          centers.push_back(v);
        }
      }
      break;
    }
    centers.push_back(best);
  }
  KCenterResult out;
  auto [radius, owner] = evaluate_centers(g, centers);
  out.centers = std::move(centers);
  out.radius = radius;
  out.nearest_center = std::move(owner);
  return out;
}

/// Runs kcenter_approx and checks it against the reference; returns the
/// result for case-specific assertions.
KCenterResult expect_matches_reference(const Graph& g, NodeId k,
                                       std::uint64_t seed,
                                       const std::string& name) {
  KCenterOptions opts;
  opts.seed = seed;
  const KCenterResult r = kcenter_approx(g, k, opts);
  const KCenterResult ref = reference_padding(g, r);
  EXPECT_EQ(r.centers, ref.centers) << name << " k=" << k;
  EXPECT_EQ(r.radius, ref.radius) << name << " k=" << k;
  EXPECT_EQ(r.nearest_center, ref.nearest_center) << name << " k=" << k;
  return r;
}

TEST(KCenterPadding, MatchesFullSweepReferenceOnCorpus) {
  NodeId padded_total = 0;
  for (const auto& [name, graph] : testutil::small_connected_corpus()) {
    const NodeId n = graph.num_nodes();
    for (const NodeId k : {1u, 4u, 16u, n / 2}) {
      padded_total +=
          expect_matches_reference(graph, std::min(k, n), 3, name).padded;
    }
  }
  EXPECT_GT(padded_total, 0u) << "the sweep never exercised the padding";
}

TEST(KCenterPadding, MatchesReferenceOnDisconnectedGraph) {
  const Graph g = gen::disjoint_union(gen::grid(8, 8), gen::cycle(30));
  NodeId padded_total = 0;
  for (const NodeId k : {2u, 5u, 20u, 47u}) {
    padded_total += expect_matches_reference(g, k, 13, "grid+cycle").padded;
  }
  EXPECT_GT(padded_total, 0u);
}

TEST(KCenterPadding, StartsFromRawClusterCentersWhenClustersFitK) {
  const Graph g = gen::expander(512, 4, 11);
  const KCenterResult r = expect_matches_reference(g, 256, 3, "expander");
  ASSERT_LE(r.raw_clusters, 256u);  // no merge: padding starts from CLUSTER
  EXPECT_EQ(r.padded, 256u - r.raw_clusters);
  // The unpadded prefix is exactly what CLUSTER returned at that τ.
  ClusterOptions copts;
  copts.seed = 3;
  const Clustering c = cluster(g, r.tau, copts);
  EXPECT_TRUE(std::equal(c.centers.begin(), c.centers.end(),
                         r.centers.begin(), r.centers.end() - r.padded));
}

TEST(KCenterPadding, KEqualsNPadsToRadiusZero) {
  const Graph g = gen::grid(30, 30);
  const KCenterResult r = expect_matches_reference(g, 900, 3, "grid-30x30");
  EXPECT_EQ(r.radius, 0u);
  EXPECT_GT(r.padded, 0u);
}

TEST(EvaluateCenters, ManualSpotCheck) {
  const Graph g = gen::path(10);
  const auto [radius, owner] = evaluate_centers(g, {0, 9});
  EXPECT_EQ(radius, 4u);
  EXPECT_EQ(owner[0], 0u);
  EXPECT_EQ(owner[9], 1u);
  EXPECT_EQ(owner[2], 0u);
}

TEST(EvaluateCentersDeathTest, UndominatedComponentAborts) {
  const Graph g = gen::disjoint_union(gen::path(4), gen::path(4));
  EXPECT_DEATH((void)evaluate_centers(g, {0}), "dominate");
}

TEST(Gonzalez, TwoApproximationOnTinyGraphs) {
  for (const Graph& g : {gen::path(12), gen::cycle(14), gen::grid(3, 4)}) {
    const Dist opt = testutil::brute_force_kcenter_radius(g, 2);
    const auto r = baselines::gonzalez_kcenter(g, 2);
    EXPECT_LE(r.radius, 2 * opt);
    EXPECT_GE(r.radius, opt);
  }
}

TEST(Gonzalez, CoversDisconnectedComponentsFirst) {
  const Graph g = gen::disjoint_union(gen::path(10), gen::path(10));
  const auto r = baselines::gonzalez_kcenter(g, 2);
  EXPECT_EQ(r.centers.size(), 2u);
  // One center per component is forced; radius <= 9.
  EXPECT_LE(r.radius, 9u);
}

TEST(GonzalezDeathTest, InsufficientKOnDisconnectedInput) {
  const Graph g = gen::disjoint_union(gen::path(4), gen::path(4));
  EXPECT_DEATH((void)baselines::gonzalez_kcenter(g, 1), "components");
}

}  // namespace
}  // namespace gclus
