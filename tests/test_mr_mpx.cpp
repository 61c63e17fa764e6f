// Tests for the MR implementation of MPX: identical partitions to the
// shared-memory baseline across the corpus, and the staggered-activation
// round profile that motivates Table 2/4.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/mpx.hpp"
#include "graph/generators.hpp"
#include "mr_algos/mr_mpx.hpp"
#include "test_util.hpp"

namespace gclus::mr_algos {
namespace {

class MrMpxEquivalenceTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(MrMpxEquivalenceTest, IdenticalPartitionToSharedMemory) {
  const auto& [name, graph] = GetParam();
  const double beta = 0.5;
  const std::uint64_t seed = 7;

  baselines::MpxOptions sopts;
  sopts.seed = seed;
  const Clustering shared = baselines::mpx(graph, beta, sopts);

  mr::Engine engine;
  const MrMpxResult dist = mr_mpx(engine, graph, beta, seed).value();

  EXPECT_EQ(dist.clustering.assignment, shared.assignment) << name;
  EXPECT_EQ(dist.clustering.dist_to_center, shared.dist_to_center) << name;
  EXPECT_EQ(dist.clustering.centers, shared.centers) << name;
  EXPECT_EQ(dist.clustering.radius, shared.radius) << name;
  EXPECT_TRUE(dist.clustering.validate(graph)) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MrMpxEquivalenceTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(MrMpx, MoreRoundsThanClusterRadiusWouldSuggest) {
  // MPX's clock runs for ~max-shift + max-radius steps: the staggered
  // activations serialize growth that CLUSTER performs concurrently.
  const Graph g = gen::grid(40, 40);
  mr::Engine engine;
  const MrMpxResult r = mr_mpx(engine, g, 0.3, 3).value();
  EXPECT_GE(r.clock_rounds, r.clustering.max_radius());
  EXPECT_GT(r.clock_rounds, 0u);
}

TEST(MrMpx, SmallBetaMeansFewerClustersMoreRounds) {
  const Graph g = gen::grid(40, 40);
  mr::Engine e1, e2;
  const MrMpxResult sparse = mr_mpx(e1, g, 0.05, 5).value();
  const MrMpxResult dense = mr_mpx(e2, g, 2.0, 5).value();
  EXPECT_LT(sparse.clustering.num_clusters(),
            dense.clustering.num_clusters());
  EXPECT_GE(sparse.clustering.max_radius(), dense.clustering.max_radius());
}

TEST(MrMpx, DisconnectedSafetyValve) {
  const Graph g = gen::disjoint_union(gen::path(20), gen::grid(5, 5));
  mr::Engine engine;
  const MrMpxResult r = mr_mpx(engine, g, 0.4, 9).value();
  EXPECT_TRUE(r.clustering.validate(g));
}

TEST(MrMpxDeathTest, RejectsNonPositiveBeta) {
  const Graph g = gen::path(6);
  mr::Engine engine;
  EXPECT_DEATH((void)mr_mpx(engine, g, 0.0, 1), "beta");
}

}  // namespace
}  // namespace gclus::mr_algos
