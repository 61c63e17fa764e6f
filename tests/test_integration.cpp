// Integration tests: the full paper pipelines end-to-end on (scaled-down)
// workload datasets — decomposition → quotient → diameter bounds against
// exact ground truth, k-center on a real workload, oracle over a road
// network, and the MR pipeline on a workload graph.
#include <gtest/gtest.h>

#include "baselines/mpx.hpp"
#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "core/distance_oracle.hpp"
#include "core/kcenter.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "server/engine.hpp"
#include "workloads/datasets.hpp"

namespace gclus {
namespace {

/// Small stand-ins for the registry datasets (the real sizes run in the
/// bench harness; integration tests must stay fast).
Graph small_road() { return gen::road_like(40, 40, 0.08, 0.02, 3); }
Graph small_social() {
  return gen::preferential_attachment(3000, 3, 5);
}
Graph small_mesh() { return gen::grid(48, 48); }

TEST(Integration, DiameterPipelineOnRoad) {
  const Graph g = small_road();
  const Dist truth = exact_diameter(g).diameter;
  DiameterOptions opts;
  opts.seed = 1;
  const DiameterApprox a = approximate_diameter(g, 8, opts);
  EXPECT_LE(a.lower_bound, truth);
  EXPECT_GE(a.upper_bound, truth);
  // The paper observes Δ″/Δ < 2 on road networks; allow 3 for the scaled
  // instance but track the real ratio in EXPERIMENTS.md.
  EXPECT_LE(a.upper_bound, 3ULL * truth + 10);
}

TEST(Integration, DiameterPipelineOnMesh) {
  const Graph g = small_mesh();
  const Dist truth = 94;  // 48+48-2
  DiameterOptions opts;
  opts.seed = 2;
  const DiameterApprox a = approximate_diameter(g, 8, opts);
  EXPECT_GE(a.upper_bound, truth);
  EXPECT_LE(a.upper_bound, 3ULL * truth + 10);
  EXPECT_LE(a.lower_bound, truth);
}

TEST(Integration, DiameterPipelineOnSocial) {
  const Graph g = small_social();
  const Dist truth = exact_diameter(g).diameter;
  DiameterOptions opts;
  opts.seed = 3;
  const DiameterApprox a = approximate_diameter(g, 4, opts);
  EXPECT_GE(a.upper_bound, truth);
  // Low-diameter graphs: the additive 2R term dominates; stay within the
  // polylog guarantee rather than the factor-2 road observation.
  EXPECT_LE(a.upper_bound, 12ULL * truth + 16);
}

TEST(Integration, GranularityDoesNotBreakApproximation) {
  // Table 3's qualitative claim: coarser and finer clusterings both give
  // valid, similar-quality estimates.
  const Graph g = small_road();
  const Dist truth = exact_diameter(g).diameter;
  DiameterOptions opts;
  opts.seed = 4;
  const DiameterApprox coarse = approximate_diameter(g, 2, opts);
  const DiameterApprox fine = approximate_diameter(g, 16, opts);
  for (const auto& a : {coarse, fine}) {
    EXPECT_GE(a.upper_bound, truth);
    EXPECT_LE(a.upper_bound, 3ULL * truth + 10);
  }
  EXPECT_LT(coarse.quotient_nodes, fine.quotient_nodes);
}

TEST(Integration, KCenterOnMeshBeatsNaiveBaseline) {
  const Graph g = small_mesh();
  KCenterOptions opts;
  opts.seed = 5;
  const KCenterResult r = kcenter_approx(g, 16, opts);
  EXPECT_EQ(r.centers.size(), 16u);
  // 16 centers on a 48x48 grid: optimal radius ~ 12 (4x4 tiling of 12x12
  // boxes); polylog approximation should stay well under the diameter.
  EXPECT_LT(r.radius, 94u / 2);
}

TEST(Integration, OracleOnRoadNetwork) {
  const Graph g = small_road();
  DistanceOracleOptions opts;
  opts.seed = 6;
  opts.use_cluster2 = false;  // the cheaper pipeline variant
  const auto oracle = server::QueryEngine::build(Graph(g), opts).value();
  const auto exact = bfs_distances(g, 0);
  std::uint64_t max_ratio_num = 0, max_ratio_den = 1;
  for (NodeId v = 0; v < g.num_nodes(); v += 37) {
    const std::uint64_t ub = oracle.approx_distance(0, v).value();
    ASSERT_GE(ub, exact[v]);
    if (exact[v] > 10 && ub * max_ratio_den > max_ratio_num * exact[v]) {
      max_ratio_num = ub;
      max_ratio_den = exact[v];
    }
  }
  // Far-apart pairs: distortion stays single-digit in practice.
  EXPECT_LT(static_cast<double>(max_ratio_num) / max_ratio_den, 8.0);
}

TEST(Integration, MrPipelineAgreesWithSharedMemoryOnWorkload) {
  // End-to-end equivalence on a real (scaled) workload graph.
  const Graph g = small_road();
  ClusterOptions copts;
  copts.seed = 7;
  const Clustering shared = cluster(g, 4, copts);

  mr::Engine engine;
  mr_algos::MrClusterOptions mopts;
  mopts.seed = 7;
  const auto dist = mr_algos::mr_cluster(engine, g, 4, mopts).value();
  EXPECT_EQ(dist.clustering.assignment, shared.assignment);

  // Round accounting: growth rounds == growth steps, and the total round
  // count is what Lemma 3 predicts (R + selection waves) with M_L = ∞.
  EXPECT_EQ(dist.growth_rounds, shared.growth_steps);
}

TEST(Integration, MpxAndClusterBothDecomposeWorkload) {
  // The Table-2 comparison shape at integration scale: matched
  // granularity, both valid; radii recorded for the bench to analyze.
  const Graph g = small_road();
  ClusterOptions copts;
  copts.seed = 8;
  const Clustering ours = cluster(g, 4, copts);
  baselines::MpxOptions mopts;
  mopts.seed = 8;
  const double beta =
      baselines::mpx_tune_beta(g, ours.num_clusters(), mopts, 8);
  const Clustering theirs = baselines::mpx(g, beta, mopts);
  EXPECT_TRUE(ours.validate(g));
  EXPECT_TRUE(theirs.validate(g));
  EXPECT_GE(theirs.num_clusters(), ours.num_clusters());
}

TEST(Integration, TailAppendedGraphKeepsClusterRoundsStable) {
  // Figure 1's mechanism: appending a c·Δ tail multiplies BFS rounds but
  // barely moves CLUSTER's growth steps (the tail is covered by many
  // re-seeded clusters in parallel).
  const Graph base = small_social();
  const Dist base_diam = exact_diameter(base).diameter;
  const Graph tailed =
      gen::with_tail(base, static_cast<NodeId>(6 * base_diam));

  ClusterOptions opts;
  opts.seed = 9;
  const Clustering c_base = cluster(base, 8, opts);
  const Clustering c_tail = cluster(tailed, 8, opts);
  EXPECT_TRUE(c_tail.validate(tailed));

  // BFS rounds grow by ~6x diameter; CLUSTER growth steps grow far less.
  const std::size_t bfs_base = bfs_extremum(base, 0).eccentricity;
  const std::size_t bfs_tail = bfs_extremum(tailed, 0).eccentricity;
  EXPECT_GE(bfs_tail, bfs_base + 5 * base_diam);
  EXPECT_LT(c_tail.growth_steps,
            c_base.growth_steps + 3 * static_cast<std::size_t>(base_diam));
}

TEST(Integration, WorkloadsSmokeAtTinyScale) {
  // Run the decomposition across every registry dataset at whatever scale
  // the environment sets (CI default 1.0 — these graphs are modest).
  for (const auto& name : workloads::dataset_names()) {
    const workloads::Dataset d = workloads::load_dataset(name);
    ClusterOptions opts;
    opts.seed = 10;
    const std::uint32_t tau = d.large_diameter ? 32 : 8;
    const Clustering c = cluster(d.graph, tau, opts);
    EXPECT_TRUE(c.validate(d.graph)) << name;
    EXPECT_LT(c.num_clusters(), d.graph.num_nodes()) << name;
  }
}

}  // namespace
}  // namespace gclus
