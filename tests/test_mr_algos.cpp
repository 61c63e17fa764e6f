// Tests for the MR-backed algorithms: BFS distance equivalence, the
// CLUSTER shared-memory/MR *identical partition* equivalence, HADI sketch
// behavior and estimates, and the MR diameter pipeline's soundness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/mpx.hpp"
#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mr_algos/mr_bfs.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "mr_algos/mr_hadi.hpp"
#include "mr_algos/mr_mpx.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus::mr_algos {
namespace {

class MrBfsCorpusTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(MrBfsCorpusTest, DistancesMatchSequentialBfs) {
  const auto& [name, graph] = GetParam();
  mr::Engine engine;
  const MrBfsResult r = mr_bfs(engine, graph, 0).value();
  EXPECT_EQ(r.dist, bfs_distances(graph, 0)) << name;
  // Supersteps: ecc rounds of propagation + the final quiescence check.
  EXPECT_GE(r.supersteps, r.eccentricity) << name;
  EXPECT_LE(r.supersteps, r.eccentricity + 1u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MrBfsCorpusTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(MrBfs, RoundCountScalesWithDiameter) {
  mr::Engine engine;
  const Graph longpath = gen::path(200);
  ASSERT_TRUE(mr_bfs(engine, longpath, 0).ok());
  const std::size_t rounds_long = engine.metrics().rounds;
  engine.reset_metrics();
  const Graph expander = gen::expander(256, 4, 3);
  ASSERT_TRUE(mr_bfs(engine, expander, 0).ok());
  const std::size_t rounds_short = engine.metrics().rounds;
  EXPECT_GT(rounds_long, 10 * rounds_short);
}

TEST(MrBfs, DiameterEstimateIsTwoEcc) {
  mr::Engine engine;
  const Graph g = gen::path(100);
  const MrBfsDiameterResult r = mr_bfs_diameter(engine, g, 0).value();
  EXPECT_EQ(r.estimate, 198u);  // 2 * ecc(0) = 2 * 99
  const MrBfsDiameterResult mid = mr_bfs_diameter(engine, g, 50).value();
  EXPECT_EQ(mid.estimate, 100u);  // 2 * 50: tight from the middle
}

TEST(MrBfs, AggregateCommunicationLinearInEdges) {
  mr::Engine engine;
  const Graph g = gen::grid(30, 30);
  ASSERT_TRUE(mr_bfs(engine, g, 0).ok());
  // Every node sends along each incident edge exactly once: the shuffled
  // pair count is bounded by the directed edge count (plus the seed).
  EXPECT_LE(engine.metrics().pairs_shuffled, g.num_half_edges() + 4);
  EXPECT_GE(engine.metrics().pairs_shuffled, g.num_half_edges() / 2);
}

struct MrClusterParam {
  std::size_t corpus_index;
  std::uint32_t tau;
  std::uint64_t seed;
};

class MrClusterEquivalenceTest
    : public ::testing::TestWithParam<MrClusterParam> {};

TEST_P(MrClusterEquivalenceTest, IdenticalPartitionToSharedMemory) {
  const auto corpus = testutil::small_connected_corpus();
  const auto& [name, graph] = corpus.at(GetParam().corpus_index);

  ClusterOptions shared_opts;
  shared_opts.seed = GetParam().seed;
  const Clustering shared = cluster(graph, GetParam().tau, shared_opts);

  mr::Engine engine;
  MrClusterOptions mr_opts;
  mr_opts.seed = GetParam().seed;
  const MrClusterResult dist =
      mr_cluster(engine, graph, GetParam().tau, mr_opts).value();

  EXPECT_EQ(dist.clustering.assignment, shared.assignment) << name;
  EXPECT_EQ(dist.clustering.dist_to_center, shared.dist_to_center) << name;
  EXPECT_EQ(dist.clustering.centers, shared.centers) << name;
  EXPECT_EQ(dist.clustering.radius, shared.radius) << name;
  EXPECT_EQ(dist.clustering.growth_steps, shared.growth_steps) << name;
  EXPECT_TRUE(dist.clustering.validate(graph)) << name;
}

std::vector<MrClusterParam> mr_cluster_params() {
  std::vector<MrClusterParam> params;
  const std::size_t corpus_size = testutil::small_connected_corpus().size();
  for (std::size_t g = 0; g < corpus_size; ++g) {
    params.push_back({g, 2, 1});
  }
  // Extra seeds/τ on a couple of interesting graphs.
  params.push_back({4, 8, 5});   // grid-30x30
  params.push_back({12, 4, 9});  // expander-path
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MrClusterEquivalenceTest,
    ::testing::ValuesIn(mr_cluster_params()),
    [](const ::testing::TestParamInfo<MrClusterParam>& info) {
      return "g" + std::to_string(info.param.corpus_index) + "_tau" +
             std::to_string(info.param.tau) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(MrCluster, GrowthRoundsTrackGrowthSteps) {
  const Graph g = gen::grid(25, 25);
  mr::Engine engine;
  const MrClusterResult r = mr_cluster(engine, g, 2, {}).value();
  EXPECT_EQ(r.growth_rounds, r.clustering.growth_steps);
  EXPECT_GE(r.selection_rounds, 1u);
  EXPECT_GE(engine.metrics().rounds, r.growth_rounds + r.selection_rounds);
}

TEST(MrCluster, ChargesSortingRoundsUnderSmallLocalMemory) {
  const Graph g = gen::grid(25, 25);
  mr::Config small_ml;
  small_ml.local_memory_pairs = 64;
  mr::Engine engine_small(small_ml);
  ASSERT_TRUE(mr_cluster(engine_small, g, 2, {}).ok());
  mr::Engine engine_big;
  ASSERT_TRUE(mr_cluster(engine_big, g, 2, {}).ok());
  EXPECT_GT(engine_small.metrics().rounds, engine_big.metrics().rounds);
}

TEST(HadiSketch, InitializationIsGeometric) {
  // Across many nodes, register bit positions follow Geom(1/2): about half
  // the sketches set bit 0.
  int bit0 = 0;
  constexpr int kNodes = 4000;
  for (NodeId v = 0; v < kNodes; ++v) {
    const HadiSketch s = hadi_init_sketch(v, 1);
    for (std::size_t r = 0; r < kHadiRegisters; ++r) {
      if (s[r] & 1u) ++bit0;
    }
  }
  const double frac =
      static_cast<double>(bit0) / (kNodes * kHadiRegisters);
  EXPECT_NEAR(frac, 0.5, 0.03);
}

TEST(HadiEstimate, SingletonSketchEstimatesO1) {
  const HadiSketch s = hadi_init_sketch(7, 3);
  const double est = hadi_estimate(s);
  EXPECT_GT(est, 0.5);
  EXPECT_LT(est, 16.0);
}

TEST(MrHadi, RoundsTrackDiameterOnPath) {
  const Graph g = gen::path(60);
  mr::Engine engine;
  HadiOptions opts;
  opts.seed = 3;
  const HadiResult r = mr_hadi(engine, g, opts).value();
  // Sketch fixpoint on a path needs ~diameter rounds; the FM threshold may
  // stop a bit early.  Accept [Δ/2, Δ+2].
  EXPECT_GE(r.rounds, 30u);
  EXPECT_LE(r.rounds, 62u);
  EXPECT_GE(r.estimate, 25u);
  EXPECT_LE(r.estimate, 61u);
}

TEST(MrHadi, FewRoundsOnExpander) {
  const Graph g = gen::expander(512, 4, 7);
  mr::Engine engine;
  const HadiResult r = mr_hadi(engine, g, {}).value();
  const Dist diam = exact_diameter(g).diameter;
  EXPECT_LE(r.rounds, static_cast<std::size_t>(diam) + 2);
  EXPECT_GE(r.estimate, 2u);
}

TEST(MrHadi, NeighborhoodFunctionIsMonotone) {
  const Graph g = gen::grid(12, 12);
  mr::Engine engine;
  const HadiResult r = mr_hadi(engine, g, {}).value();
  for (std::size_t t = 1; t < r.neighborhood_function.size(); ++t) {
    EXPECT_GE(r.neighborhood_function[t], r.neighborhood_function[t - 1]);
  }
  // Final N ~ n² within FM error (generous band: factor 3).
  const double n = g.num_nodes();
  EXPECT_GT(r.neighborhood_function.back(), n * n / 3.0);
  EXPECT_LT(r.neighborhood_function.back(), n * n * 3.0);
}

TEST(MrHadi, PerRoundCommunicationLinearInEdges) {
  const Graph g = gen::grid(15, 15);
  mr::Engine engine;
  const HadiResult r = mr_hadi(engine, g, {}).value();
  // Each round ships one sketch per directed edge.
  EXPECT_EQ(engine.metrics().pairs_shuffled,
            static_cast<std::uint64_t>(r.rounds) * g.num_half_edges());
}

// --- The differential engine-mode corpus: every MR algorithm, on every
// corpus graph, must produce byte-identical results no matter how the
// engine executes the shuffle — fully in memory, spilled under budgets
// down to 1 KiB, across worker counts, with combiners on or off.  The
// shared-memory implementation is the common reference, so this is
// simultaneously the MR-vs-shared-memory differential test and the
// out-of-core/in-memory equivalence test. ---

struct EngineMode {
  const char* name;
  std::uint64_t spill_bytes;
  std::size_t workers;  // 0 = the global pool
  bool combiners;
};

constexpr EngineMode kEngineModes[] = {
    {"inmemory", mr::kSpillUnbounded, 0, true},
    {"inmemory_nocombine", mr::kSpillUnbounded, 0, false},
    {"spill4k", 4096, 0, true},
    {"spill4k_nocombine", 4096, 0, false},
    {"spill1k", 1024, 2, true},
    {"spill1k_8workers", 1024, 8, true},
};

/// The pool a mode runs on; pools are shared across tests, one per size.
ThreadPool* mode_pool(const EngineMode& mode) {
  static ThreadPool two(2);
  static ThreadPool eight(8);
  switch (mode.workers) {
    case 0: return nullptr;
    case 2: return &two;
    case 8: return &eight;
  }
  ADD_FAILURE() << "no pool for " << mode.workers << " workers";
  return nullptr;
}

mr::Engine make_mode_engine(const EngineMode& mode) {
  mr::Config cfg;
  cfg.spill_memory_bytes = mode.spill_bytes;
  cfg.pool = mode_pool(mode);
  cfg.enable_combiners = mode.combiners;
  cfg.spill_strict = true;
  return mr::Engine(cfg);
}

void expect_same_clustering(const Clustering& got, const Clustering& want,
                            const std::string& label) {
  EXPECT_EQ(got.assignment, want.assignment) << label;
  EXPECT_EQ(got.dist_to_center, want.dist_to_center) << label;
  EXPECT_EQ(got.centers, want.centers) << label;
  EXPECT_EQ(got.radius, want.radius) << label;
  EXPECT_EQ(got.sizes, want.sizes) << label;
}

class MrDifferentialCorpusTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(MrDifferentialCorpusTest, AllEngineModesMatchSharedMemory) {
  const auto& [name, graph] = GetParam();
  const std::uint64_t seed = 13;

  ClusterOptions copts;
  copts.seed = seed;
  const Clustering shared_cluster = cluster(graph, 2, copts);
  baselines::MpxOptions mopts;
  mopts.seed = seed;
  const Clustering shared_mpx = baselines::mpx(graph, 0.4, mopts);
  const std::vector<Dist> shared_bfs = bfs_distances(graph, 0);

  for (const EngineMode& mode : kEngineModes) {
    const std::string label = name + " [" + mode.name + "]";
    {
      mr::Engine engine = make_mode_engine(mode);
      MrClusterOptions o;
      o.seed = seed;
      const MrClusterResult r = mr_cluster(engine, graph, 2, o).value();
      expect_same_clustering(r.clustering, shared_cluster,
                             label + " mr_cluster");
      // Small-frontier graphs (long paths) legitimately stay under even
      // a 1 KiB budget; assert actual spilling where volume guarantees
      // it: a dense-frontier graph under a small budget.
      if (mode.spill_bytes <= 4096 && name == "expander-512") {
        EXPECT_GT(engine.metrics().bytes_spilled, 0u) << label;
      }
    }
    {
      mr::Engine engine = make_mode_engine(mode);
      const MrMpxResult r = mr_mpx(engine, graph, 0.4, seed).value();
      expect_same_clustering(r.clustering, shared_mpx, label + " mr_mpx");
    }
    {
      mr::Engine engine = make_mode_engine(mode);
      const MrBfsResult r = mr_bfs(engine, graph, 0).value();
      EXPECT_EQ(r.dist, shared_bfs) << label << " mr_bfs";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MrDifferentialCorpusTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(MrHadi, SpilledExecutionMatchesInMemory) {
  // HADI's estimate depends only on the sketches, which depend only on
  // the (deterministic) round outputs — spilling must not perturb them.
  const Graph g = gen::grid(15, 15);
  HadiOptions opts;
  opts.seed = 11;
  mr::Engine big = make_mode_engine(kEngineModes[0]);
  const HadiResult in_memory = mr_hadi(big, g, opts).value();
  for (const EngineMode& mode : {kEngineModes[2], kEngineModes[3],
                                 kEngineModes[4]}) {
    mr::Engine engine = make_mode_engine(mode);
    const HadiResult spilled = mr_hadi(engine, g, opts).value();
    EXPECT_EQ(spilled.estimate, in_memory.estimate) << mode.name;
    EXPECT_EQ(spilled.rounds, in_memory.rounds) << mode.name;
    EXPECT_EQ(spilled.neighborhood_function,
              in_memory.neighborhood_function) << mode.name;
  }
}

TEST(MrCluster, CombinerCutsShuffledSpillVolume) {
  // Same decomposition, strictly less spilled data with combiners on.
  const Graph g = gen::expander(2048, 8, 3);
  auto run = [&](bool combiners) {
    mr::Config cfg;
    cfg.spill_memory_bytes = 8192;
    cfg.enable_combiners = combiners;
    mr::Engine engine(cfg);
    MrClusterOptions o;
    o.seed = 5;
    const MrClusterResult r = mr_cluster(engine, g, 4, o).value();
    return std::make_pair(r.clustering.assignment,
                          engine.metrics().bytes_spilled);
  };
  const auto [with, with_bytes] = run(true);
  const auto [without, without_bytes] = run(false);
  EXPECT_EQ(with, without);
  EXPECT_GT(without_bytes, 0u);
  EXPECT_LT(with_bytes, without_bytes);
}

TEST(MrClusterDiameter, SoundUpperBoundOnCorpusSubset) {
  const auto corpus = testutil::small_connected_corpus();
  for (const std::size_t idx : {0ul, 3ul, 4ul, 11ul}) {
    const auto& [name, graph] = corpus.at(idx);
    mr::Engine engine;
    const MrDiameterResult r =
        mr_cluster_diameter(engine, graph, 2, {}).value();
    const Dist truth = testutil::brute_force_diameter(graph);
    EXPECT_GE(r.estimate, truth) << name;
    EXPECT_GT(r.quotient_nodes, 0u) << name;
    EXPECT_GT(r.total_rounds, 0u) << name;
  }
}

TEST(MrClusterDiameter, MatchesSharedMemoryPipelineEstimate) {
  const Graph g = gen::road_like(20, 20, 0.08, 0.02, 41);
  mr::Engine engine;
  MrClusterOptions mopts;
  mopts.seed = 43;
  const MrDiameterResult mr_result =
      mr_cluster_diameter(engine, g, 3, mopts).value();

  // The shared-memory pipeline over the same clustering must agree on the
  // Δ″ estimate (identical partition -> identical weighted quotient).
  ClusterOptions copts;
  copts.seed = 43;
  const Clustering c = cluster(g, 3, copts);
  const DiameterApprox shared = diameter_from_clustering(g, c);
  EXPECT_EQ(mr_result.estimate, shared.upper_bound);
  EXPECT_EQ(mr_result.quotient_nodes, shared.quotient_nodes);
  EXPECT_EQ(mr_result.quotient_edges, shared.quotient_edges);
  EXPECT_EQ(mr_result.max_radius, shared.max_radius);
}

}  // namespace
}  // namespace gclus::mr_algos
