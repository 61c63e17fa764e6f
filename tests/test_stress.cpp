// Randomized stress suite: random graph families × random parameters,
// validating ALL cross-cutting invariants together on every instance —
// the closest thing to fuzzing the decomposition stack end to end.
//
// Each instance checks:
//   * CLUSTER produces a valid partition whose radius <= eccentricity
//     bound, quotient is connected (for connected inputs), and the
//     diameter sandwich Δ_C <= Δ <= Δ″ holds against the exact value;
//   * the MR implementation reproduces the partition bit for bit;
//   * tight MR memory limits (M_L / M_G generous enough to pass) are not
//     recorded as exceeded, i.e. the accounting matches reality.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "core/quotient.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

/// G(n, m) clamped to the feasible edge count.
Graph erdos_renyi_helper(NodeId n, EdgeId m, std::uint64_t seed) {
  const auto max_edges =
      static_cast<EdgeId>(n) * (static_cast<EdgeId>(n) - 1) / 2;
  return gen::erdos_renyi(n, std::min(m, max_edges), seed);
}

Graph random_instance(std::uint64_t seed) {
  Rng rng(seed);
  switch (rng.next_below(6)) {
    case 0: {
      const auto n = static_cast<NodeId>(50 + rng.next_below(900));
      const auto m = static_cast<EdgeId>(n + rng.next_below(4 * n));
      return testutil::largest_component_of(erdos_renyi_helper(n, m, seed));
    }
    case 1: {
      const auto r = static_cast<NodeId>(4 + rng.next_below(30));
      const auto c = static_cast<NodeId>(4 + rng.next_below(30));
      return gen::grid(r, c);
    }
    case 2:
      return gen::random_tree(static_cast<NodeId>(20 + rng.next_below(800)),
                              seed);
    case 3:
      return gen::road_like(static_cast<NodeId>(8 + rng.next_below(25)),
                            static_cast<NodeId>(8 + rng.next_below(25)), 0.1,
                            0.03, seed);
    case 4:
      return gen::preferential_attachment(
          static_cast<NodeId>(50 + rng.next_below(600)), 2, seed);
    default:
      return gen::ring_of_cliques(
          static_cast<NodeId>(3 + rng.next_below(12)),
          static_cast<NodeId>(3 + rng.next_below(10)));
  }
}

class StressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressTest, AllInvariantsHoldOnRandomInstance) {
  const std::uint64_t seed = GetParam();
  const Graph g = random_instance(seed);
  ASSERT_TRUE(g.validate());
  const bool connected = is_connected(g);

  Rng rng(seed ^ 0xF00D);
  const auto tau = static_cast<std::uint32_t>(1 + rng.next_below(12));
  ClusterOptions opts;
  opts.seed = seed;

  const Clustering c = cluster(g, tau, opts);
  ASSERT_TRUE(c.validate(g)) << "seed " << seed;

  // Radius bounded by the graph's diameter (per component: use the
  // global diameter for connected instances only).
  if (connected) {
    const Dist diam = exact_diameter(g).diameter;
    EXPECT_LE(c.max_radius(), diam) << "seed " << seed;

    const QuotientGraph q = build_quotient(g, c);
    EXPECT_TRUE(is_connected(q.graph)) << "seed " << seed;

    const DiameterApprox a = diameter_from_clustering(g, c);
    EXPECT_LE(a.lower_bound, diam) << "seed " << seed;
    EXPECT_GE(a.upper_bound, diam) << "seed " << seed;
    EXPECT_LE(a.upper_bound, a.upper_bound_coarse) << "seed " << seed;
  }

  // MR equivalence under tight (but satisfiable) memory limits: M_L must
  // admit the largest reducer group, which is bounded by the max degree
  // (claims) and the uncovered-node count (selection waves).
  mr::Config cfg;
  cfg.local_memory_pairs =
      std::max<std::size_t>(g.num_nodes(), degree_stats(g).max_degree + 1);
  cfg.global_memory_pairs = 4 * (g.num_half_edges() + g.num_nodes() + 16);
  mr::Engine engine(cfg);
  mr_algos::MrClusterOptions mopts;
  mopts.seed = seed;
  const auto mr_result = mr_algos::mr_cluster(engine, g, tau, mopts).value();
  EXPECT_EQ(mr_result.clustering.assignment, c.assignment)
      << "seed " << seed;
  EXPECT_EQ(mr_result.clustering.dist_to_center, c.dist_to_center)
      << "seed " << seed;
  EXPECT_FALSE(engine.metrics().local_memory_exceeded) << "seed " << seed;
  EXPECT_FALSE(engine.metrics().global_memory_exceeded) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace gclus
