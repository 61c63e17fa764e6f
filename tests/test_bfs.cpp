// Tests for the BFS kernels: sequential reference behavior, the parallel
// single-source BFS on the growth engine (swept across worker counts and
// corpus graphs), multi-source distances, and the pruned relax_from
// update with the farthest-first extension built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = gen::path(6);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, DistancesFromMiddleOfPath) {
  const Graph g = gen::path(7);
  const auto d = bfs_distances(g, 3);
  const std::vector<Dist> expected{3, 2, 1, 0, 1, 2, 3};
  EXPECT_EQ(d, expected);
}

TEST(Bfs, UnreachableNodesAreInfinite) {
  const Graph g = gen::disjoint_union(gen::path(3), gen::path(3));
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], 2u);
  EXPECT_EQ(d[3], kInfDist);
  EXPECT_EQ(d[5], kInfDist);
}

TEST(Bfs, GridDistancesAreManhattan) {
  const Graph g = gen::grid(8, 9);
  const auto d = bfs_distances(g, 0);
  for (NodeId r = 0; r < 8; ++r) {
    for (NodeId c = 0; c < 9; ++c) {
      EXPECT_EQ(d[r * 9 + c], r + c);
    }
  }
}

TEST(MultiSourceBfs, NearestSourceWins) {
  const Graph g = gen::path(10);
  const auto d = multi_source_bfs(g, {0, 9});
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[9], 0u);
  EXPECT_EQ(d[4], 4u);
  EXPECT_EQ(d[5], 4u);
}

TEST(MultiSourceBfs, DuplicateSourcesTolerated) {
  const Graph g = gen::cycle(8);
  const auto d = multi_source_bfs(g, {2, 2, 2});
  EXPECT_EQ(d[2], 0u);
  EXPECT_EQ(d[6], 4u);
}

// multi_source_bfs runs on the parallel growth engine, yet each node's
// owner must stay the lowest-index source among its nearest, whatever the
// pool size: ties abound on grids, cliques and expanders, duplicates
// resolve to the first listing, and unreached components keep UINT32_MAX.
// The 20k-node expander is large enough for push and pull steps to run on
// the workers rather than inline.
TEST(MultiSourceBfs, OwnersMatchBruteForceNearestSource) {
  struct Case {
    std::string name;
    Graph g;
    std::vector<NodeId> sources;
  };
  std::vector<Case> cases;
  for (auto& [name, g] : testutil::small_connected_corpus()) {
    Rng rng(0xb0a7 + g.num_nodes());
    std::vector<NodeId> sources;
    for (int i = 0; i < 6; ++i) {
      sources.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
    }
    cases.push_back({name, std::move(g), std::move(sources)});
  }
  // grid(8, 8) holds ids 0..63; the ring of cliques after it stays unreached.
  cases.push_back({"disjoint-union",
                   gen::disjoint_union(gen::grid(8, 8), gen::ring_of_cliques(6, 5)),
                   {27, 3, 60}});
  cases.push_back({"duplicates", gen::cycle(40), {7, 30, 7, 12, 30, 12}});
  cases.push_back({"descending", gen::grid(20, 20), {399, 250, 190, 21, 20, 3}});
  {
    Graph big = gen::expander(20000, 4, 5);
    Rng rng(0x20000);
    std::vector<NodeId> sources;
    for (int i = 0; i < 12; ++i) {
      sources.push_back(static_cast<NodeId>(rng.next_below(big.num_nodes())));
    }
    std::sort(sources.rbegin(), sources.rend());
    cases.push_back({"expander-20000", std::move(big), std::move(sources)});
  }

  for (const Case& c : cases) {
    const testutil::NearestSource ref =
        testutil::brute_force_nearest_source(c.g, c.sources);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      std::vector<std::uint32_t> owner;
      EXPECT_EQ(multi_source_bfs(c.g, c.sources, &owner, &pool), ref.dist)
          << c.name << " threads=" << threads;
      EXPECT_EQ(owner, ref.owner) << c.name << " threads=" << threads;
      EXPECT_EQ(multi_source_bfs(c.g, c.sources, nullptr, &pool), ref.dist)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(RelaxFrom, MatchesMultiSourceBfsOverAllSourcesSoFar) {
  // Corpus plus a disconnected graph, so relaxing from a source in an
  // unreached component (all kInfDist there) is covered too.
  auto graphs = testutil::small_connected_corpus();
  graphs.push_back(
      {"grid+cycle", gen::disjoint_union(gen::grid(8, 8), gen::cycle(30))});
  for (const auto& [name, g] : graphs) {
    Rng rng(0x5eed + g.num_nodes());
    std::vector<NodeId> sources;
    std::vector<Dist> dist(g.num_nodes(), kInfDist);
    for (int i = 0; i < 12; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      sources.push_back(s);
      relax_from(g, s, dist);
      ASSERT_EQ(dist, multi_source_bfs(g, sources))
          << name << " after " << sources.size() << " sources";
    }
    // A source already at distance 0 changes nothing.
    relax_from(g, sources.front(), dist);
    EXPECT_EQ(dist, multi_source_bfs(g, sources)) << name;
  }
}

TEST(ExtendFarthestFirst, PicksLowestIdAtLargestDistance) {
  const Graph g = gen::path(9);
  std::vector<NodeId> centers{0};
  std::vector<Dist> dist = bfs_distances(g, 0);
  extend_farthest_first(g, 3, centers, dist);
  EXPECT_EQ(centers, (std::vector<NodeId>{0, 8, 4}));
  EXPECT_EQ(dist, multi_source_bfs(g, centers));
}

TEST(ExtendFarthestFirst, UnreachedComponentsComeFirst) {
  const Graph g = gen::disjoint_union(gen::path(5), gen::path(3));
  std::vector<NodeId> centers{0};
  std::vector<Dist> dist = bfs_distances(g, 0);
  extend_farthest_first(g, 2, centers, dist);
  EXPECT_EQ(centers, (std::vector<NodeId>{0, 5}));
  EXPECT_EQ(dist, multi_source_bfs(g, centers));
}

TEST(BfsExtremum, FindsFarthestNode) {
  const Graph g = gen::path(20);
  const auto e = bfs_extremum(g, 3);
  EXPECT_EQ(e.eccentricity, 16u);
  EXPECT_EQ(e.farthest_node, 19u);
  EXPECT_EQ(e.reached, 20u);
}

TEST(BfsExtremum, ExplicitPoolMatchesDefault) {
  const Graph g = gen::grid(15, 17);
  ThreadPool pool(3);
  const auto with_pool = bfs_extremum(g, 4, &pool);
  const auto with_global = bfs_extremum(g, 4);
  EXPECT_EQ(with_pool.eccentricity, with_global.eccentricity);
  EXPECT_EQ(with_pool.farthest_node, with_global.farthest_node);
  EXPECT_EQ(with_pool.reached, with_global.reached);
}

TEST(BfsExtremum, DisconnectedGraphCountsOnlyReachable) {
  const Graph g = gen::disjoint_union(gen::path(5), gen::cycle(6));
  const auto e = bfs_extremum(g, 0);
  EXPECT_EQ(e.reached, 5u);
  EXPECT_EQ(e.eccentricity, 4u);
}

// Direction-optimizing BFS: push-only, pull-only, and hybrid levels must
// all reproduce the sequential distances on every corpus graph.
TEST(ParallelBfs, TraversalModesMatchSequential) {
  const auto corpus = testutil::small_connected_corpus();
  for (const auto& [name, graph] : corpus) {
    const auto seq = bfs_distances(graph, 0);
    for (const TraversalMode mode :
         {TraversalMode::kPushOnly, TraversalMode::kPullOnly,
          TraversalMode::kAuto}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        GrowthOptions opts;
        opts.mode = mode;
        const auto par = parallel_bfs(pool, graph, 0, nullptr, opts);
        EXPECT_EQ(par, seq) << name << " mode=" << traversal_mode_name(mode)
                            << " threads=" << threads;
      }
    }
  }
}

// The corpus graphs are small enough that every level runs inline on the
// caller.  These are large enough for push and pull levels to run on the
// workers, so a frontier arrives split across per-worker parts.
TEST(ParallelBfs, WorkerLevelsMatchSequential) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"expander-20k", gen::expander(20000, 8, 5)},
      {"expander-path", gen::expander_with_path(20000, 400, 6, 9)}};
  for (const auto& [name, graph] : graphs) {
    const auto seq = bfs_distances(graph, 3);
    const Dist ecc = *std::max_element(seq.begin(), seq.end());
    for (const TraversalMode mode :
         {TraversalMode::kPushOnly, TraversalMode::kPullOnly,
          TraversalMode::kAuto}) {
      for (const std::size_t threads : {2u, 8u}) {
        ThreadPool pool(threads);
        GrowthOptions opts;
        opts.mode = mode;
        std::size_t levels = 0;
        const auto par = parallel_bfs(pool, graph, 3, &levels, opts);
        EXPECT_EQ(par, seq) << name << " mode=" << traversal_mode_name(mode)
                            << " threads=" << threads;
        EXPECT_EQ(levels, ecc + 1) << name;
      }
    }
  }
}

TEST(BfsExtremum, SingletonGraph) {
  const Graph g = gen::path(1);
  const auto e = bfs_extremum(g, 0);
  EXPECT_EQ(e.eccentricity, 0u);
  EXPECT_EQ(e.farthest_node, 0u);
  EXPECT_EQ(e.reached, 1u);
}

struct ParallelBfsParam {
  std::size_t threads;
  std::size_t corpus_index;
};

class ParallelBfsTest : public ::testing::TestWithParam<ParallelBfsParam> {};

TEST_P(ParallelBfsTest, MatchesSequentialBfs) {
  const auto corpus = testutil::small_connected_corpus();
  const auto& [name, graph] = corpus.at(GetParam().corpus_index);
  ThreadPool pool(GetParam().threads);
  std::size_t levels = 0;
  DirectionCounts counts;
  const auto par = parallel_bfs(pool, graph, 0, &levels,
                                default_growth_options(), &counts);
  const auto seq = bfs_distances(graph, 0);
  EXPECT_EQ(par, seq) << name;
  // Levels = eccentricity of the source + 1 trailing empty check, each
  // run in exactly one direction.
  const Dist ecc = *std::max_element(seq.begin(), seq.end());
  EXPECT_EQ(levels, ecc + 1) << name;
  EXPECT_EQ(counts.push + counts.pull, levels) << name;
}

std::vector<ParallelBfsParam> parallel_bfs_params() {
  std::vector<ParallelBfsParam> params;
  const std::size_t corpus_size = testutil::small_connected_corpus().size();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (std::size_t i = 0; i < corpus_size; ++i) {
      params.push_back({threads, i});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBfsTest, ::testing::ValuesIn(parallel_bfs_params()),
    [](const ::testing::TestParamInfo<ParallelBfsParam>& info) {
      return "t" + std::to_string(info.param.threads) + "_g" +
             std::to_string(info.param.corpus_index);
    });

}  // namespace
}  // namespace gclus
