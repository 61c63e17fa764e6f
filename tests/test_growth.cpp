// Tests for the shared synchronous growth engine: BFS equivalence for a
// single cluster, deterministic tie-breaking, priorities, distance
// bookkeeping across staggered activations, and frontier-stall behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/growth.hpp"
#include "graph/bfs.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

TEST(GrowthState, SingleClusterGrowsLikeBfs) {
  const Graph g = gen::grid(9, 11);
  ThreadPool pool(2);
  GrowthState state(g, pool);
  state.add_center(0);
  while (state.covered_count() < g.num_nodes()) state.step();
  const Clustering c = std::move(state).finish();
  EXPECT_TRUE(c.validate(g));
  const auto bfs = bfs_distances(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(c.dist_to_center[v], bfs[v]) << "node " << v;
    EXPECT_EQ(c.assignment[v], 0u);
  }
  EXPECT_EQ(c.max_radius(), bfs_extremum(g, 0).eccentricity);
}

TEST(GrowthState, TwoCentersSplitPathAtMidpoint) {
  const Graph g = gen::path(11);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  state.add_center(10);
  while (state.covered_count() < g.num_nodes()) state.step();
  const Clustering c = std::move(state).finish();
  EXPECT_TRUE(c.validate(g));
  // Node 5 is equidistant; the lower cluster id (0) wins the tie.
  EXPECT_EQ(c.assignment[5], 0u);
  EXPECT_EQ(c.assignment[4], 0u);
  EXPECT_EQ(c.assignment[6], 1u);
  EXPECT_EQ(c.radius[0], 5u);
  EXPECT_EQ(c.radius[1], 4u);
}

TEST(GrowthState, PriorityOverridesClusterIdTieBreak) {
  const Graph g = gen::path(11);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0, /*priority=*/9);  // cluster 0, low precedence
  state.add_center(10, /*priority=*/1); // cluster 1, high precedence
  while (state.covered_count() < g.num_nodes()) state.step();
  const Clustering c = std::move(state).finish();
  // Now the tie at node 5 goes to cluster 1.
  EXPECT_EQ(c.assignment[5], 1u);
}

TEST(GrowthState, StaggeredActivationDistances) {
  // Center 0 activates at step 0; center 10 joins after two steps.  Its
  // members' distances must be relative to its own activation.
  const Graph g = gen::path(20);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  state.step();
  state.step();
  state.add_center(19);
  while (state.covered_count() < g.num_nodes()) state.step();
  const Clustering c = std::move(state).finish();
  EXPECT_TRUE(c.validate(g));
  EXPECT_EQ(c.dist_to_center[19], 0u);
  EXPECT_EQ(c.dist_to_center[18], 1u);
  EXPECT_EQ(c.assignment[18], c.assignment[19]);
}

// The direction-optimizing engine must be a pure function of (graph,
// centers, priorities): push-only, pull-only, and hybrid sweeps across
// thread counts all have to produce byte-identical partitions.
TEST(GrowthState, TraversalModesProduceIdenticalPartitions) {
  const auto corpus = testutil::small_connected_corpus();
  for (const auto& [name, g] : corpus) {
    auto run = [&g = g](TraversalMode mode, std::size_t threads) {
      ThreadPool pool(threads);
      GrowthOptions opts;
      opts.mode = mode;
      GrowthState state(g, pool, opts);
      const NodeId n = g.num_nodes();
      state.add_center(0);
      if (n > 2) state.add_center(n / 2, /*priority=*/3);
      if (n > 3) state.add_center(n - 1, /*priority=*/1);
      while (state.covered_count() < n) {
        if (state.frontier_empty()) state.add_singletons_for_uncovered();
        state.step();
      }
      return std::move(state).finish();
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
        EXPECT_EQ(base.dist_to_center, c.dist_to_center)
            << name << " mode=" << traversal_mode_name(mode)
            << " threads=" << threads;
        EXPECT_EQ(base.radius, c.radius)
            << name << " mode=" << traversal_mode_name(mode)
            << " threads=" << threads;
        EXPECT_EQ(base.centers, c.centers) << name;
      }
    }
  }
}

TEST(GrowthState, ModesAgreeWithStaggeredActivation) {
  // Centers joining mid-growth (CLUSTER's batch pattern) must not break
  // push/pull equivalence: distances stay relative to each activation.
  const Graph g = gen::expander_with_path(600, 80, 4, 13);
  auto run = [&](TraversalMode mode) {
    ThreadPool pool(2);
    GrowthOptions opts;
    opts.mode = mode;
    GrowthState state(g, pool, opts);
    state.add_center(0);
    state.grow_steps(2);
    state.add_center(state.first_uncovered(), /*priority=*/2);
    state.grow_steps(3);
    if (NodeId v = state.first_uncovered(); v != kInvalidNode) {
      state.add_center(v);
    }
    while (state.covered_count() < g.num_nodes()) {
      if (state.frontier_empty()) state.add_singletons_for_uncovered();
      state.step();
    }
    return std::move(state).finish();
  };
  const Clustering push = run(TraversalMode::kPushOnly);
  const Clustering pull = run(TraversalMode::kPullOnly);
  const Clustering hybrid = run(TraversalMode::kAuto);
  EXPECT_TRUE(push.validate(g));
  EXPECT_EQ(push.assignment, pull.assignment);
  EXPECT_EQ(push.dist_to_center, pull.dist_to_center);
  EXPECT_EQ(push.assignment, hybrid.assignment);
  EXPECT_EQ(push.dist_to_center, hybrid.dist_to_center);
}

// A growth whose center schedule does not depend on the direction: a
// center at node 0, another at the smallest uncovered node before every
// fourth step (steps 1, 5, 9, ...), and a restart there whenever the
// frontier empties.  Reports how often the kAuto direction flipped and how
// many added centers went straight into a pull step.
struct ScheduledRun {
  Clustering clustering;
  std::size_t flips = 0;
  std::size_t adds_before_pull = 0;
};

template <class G>
ScheduledRun run_center_schedule(const G& g, TraversalMode mode,
                                 ThreadPool& pool) {
  GrowthOptions opts;
  opts.mode = mode;
  opts.alpha = 40.0;
  opts.beta = 6.0;
  opts.record_step_log = true;
  GrowthStateT<G> state(g, pool, opts);
  std::vector<std::size_t> add_steps;  // steps_executed() at each add
  state.add_center(0);
  while (state.covered_count() < g.num_nodes()) {
    if (state.frontier_empty() || state.steps_executed() % 4 == 0) {
      add_steps.push_back(state.steps_executed());
      state.add_center(state.first_uncovered());
    }
    state.step();
  }
  ScheduledRun run;
  const auto& steps = state.stats().steps;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    if (steps[i].pull != steps[i - 1].pull) ++run.flips;
  }
  for (const std::size_t s : add_steps) {
    if (steps[s].pull) ++run.adds_before_pull;  // steps[s] ran right after
  }
  run.clustering = std::move(state).finish();
  return run;
}

// Push and pull must agree byte for byte, on both graph layouts, while
// directions flip and centers join mid-growth (some right before a pull
// step, whose frontier test on the coverage flags must then count the new
// center), and across 12 back-to-back states in one process, so that no
// state leaks from one run into the next.  The ring of cliques makes
// claimed nodes see two or more frontier clusters at once: ties that the
// one-pass push (the single unclaimed -> claimed transition) and the
// pull's min-key exit must resolve exactly like push-only growth.
TEST(GrowthState, DirectionsAgreeUnderMidGrowthCentersAndReuse) {
  const Graph g = gen::disjoint_union(
      gen::disjoint_union(
          gen::disjoint_union(gen::expander_with_path(1500, 60, 4, 21),
                              gen::expander(1200, 4, 3)),
          gen::disjoint_union(gen::road_like(30, 30, 0.08, 0.02, 5),
                              gen::expander(800, 6, 9))),
      gen::ring_of_cliques(40, 12));
  const CompressedGraph cz = compress(g, {.relabel = RelabelMode::kNever});
  ThreadPool serial(1);
  const ScheduledRun push =
      run_center_schedule(g, TraversalMode::kPushOnly, serial);
  ASSERT_TRUE(push.clustering.validate(g));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const TraversalMode mode :
         {TraversalMode::kAuto, TraversalMode::kPullOnly}) {
      for (const bool compressed : {false, true}) {
        const ScheduledRun r =
            compressed ? run_center_schedule(cz, mode, pool)
                       : run_center_schedule(g, mode, pool);
        const std::string where = "threads=" + std::to_string(threads) +
                                  " mode=" + traversal_mode_name(mode) +
                                  (compressed ? " compressed" : " plain");
        if (mode == TraversalMode::kAuto) {
          EXPECT_GE(r.flips, 6u) << where;
          EXPECT_GE(r.adds_before_pull, 2u) << where;
        }
        EXPECT_EQ(r.clustering.assignment, push.clustering.assignment)
            << where;
        EXPECT_EQ(r.clustering.dist_to_center, push.clustering.dist_to_center)
            << where;
        EXPECT_EQ(r.clustering.centers, push.clustering.centers) << where;
      }
    }
  }
}

TEST(GrowthState, StatsSplitStepsByDirection) {
  const Graph g = gen::expander(512, 4, 11);
  ThreadPool pool(2);
  GrowthOptions opts;
  opts.mode = TraversalMode::kPullOnly;
  opts.record_step_log = true;
  GrowthState state(g, pool, opts);
  state.add_center(0);
  state.grow_steps(100);
  EXPECT_EQ(state.stats().pull_steps, state.steps_executed());
  EXPECT_EQ(state.stats().push_steps, 0u);
  EXPECT_EQ(state.stats().steps.size(), state.steps_executed());
  for (const GrowthStepLog& log : state.stats().steps) {
    EXPECT_TRUE(log.pull);
    EXPECT_GT(log.frontier_size, 0u);
  }
}

TEST(GrowthState, FirstUncoveredMatchesLinearScan) {
  const Graph g = gen::grid(20, 20);
  ThreadPool pool(2);
  GrowthState state(g, pool);
  state.add_center(0);
  for (int i = 0; i < 5; ++i) {
    state.step();
    NodeId expected = kInvalidNode;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!state.is_covered(v)) {
        expected = v;
        break;
      }
    }
    EXPECT_EQ(state.first_uncovered(), expected);
  }
}

TEST(GrowthState, UncoveredCandidatesIsAscendingSuperset) {
  const Graph g = gen::road_like(25, 25, 0.08, 0.02, 3);
  ThreadPool pool(4);
  GrowthState state(g, pool);
  state.add_center(0);
  state.grow_until_covered(g.num_nodes() / 2);
  const auto& candidates = state.uncovered_candidates();
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
  std::size_t uncovered_in_candidates = 0;
  for (const NodeId v : candidates) {
    if (!state.is_covered(v)) ++uncovered_in_candidates;
  }
  EXPECT_EQ(uncovered_in_candidates, state.uncovered_count());
}

TEST(GrowthState, DeterministicAcrossThreadCounts) {
  const Graph g = gen::road_like(25, 25, 0.08, 0.02, 3);
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    GrowthState state(g, pool);
    state.add_center(0);
    state.add_center(g.num_nodes() / 2);
    state.add_center(g.num_nodes() - 1);
    while (state.covered_count() < g.num_nodes()) {
      if (state.frontier_empty()) state.add_singletons_for_uncovered();
      state.step();
    }
    return std::move(state).finish();
  };
  const Clustering a = run(1);
  const Clustering b = run(4);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.radius, b.radius);
}

TEST(GrowthState, GrowStepsStopsEarlyOnEmptyFrontier) {
  const Graph g = gen::path(5);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(2);
  const NodeId covered = state.grow_steps(100);
  EXPECT_EQ(covered, 4u);  // everything except the center
  EXPECT_TRUE(state.frontier_empty());
  EXPECT_LE(state.steps_executed(), 3u);
}

TEST(GrowthState, GrowUntilCoveredReachesTarget) {
  const Graph g = gen::grid(20, 20);
  ThreadPool pool(2);
  GrowthState state(g, pool);
  state.add_center(0);
  const NodeId covered = state.grow_until_covered(150);
  EXPECT_GE(covered, 150u);
  EXPECT_LT(state.covered_count(), g.num_nodes());
}

TEST(GrowthState, FrontierStallsOnDisconnectedGraph) {
  const Graph g = gen::disjoint_union(gen::path(6), gen::path(6));
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  state.grow_steps(100);
  EXPECT_EQ(state.covered_count(), 6u);  // only the first component
  EXPECT_TRUE(state.frontier_empty());
  state.add_center(6);
  state.grow_steps(100);
  EXPECT_EQ(state.covered_count(), 12u);
}

TEST(GrowthState, SingletonsForUncovered) {
  const Graph g = gen::path(6);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  state.step();  // covers node 1
  state.add_singletons_for_uncovered();
  EXPECT_EQ(state.covered_count(), 6u);
  const Clustering c = std::move(state).finish();
  EXPECT_TRUE(c.validate(g));
  EXPECT_EQ(c.num_clusters(), 5u);  // {0,1} plus four singletons
  EXPECT_EQ(c.sizes[0], 2u);
}

TEST(GrowthStateDeathTest, CenterOnCoveredNodeRejected) {
  const Graph g = gen::path(4);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  EXPECT_DEATH(state.add_center(0), "already covered");
}

TEST(GrowthStateDeathTest, FinishRequiresFullCoverage) {
  const Graph g = gen::path(4);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  EXPECT_DEATH((void)std::move(state).finish(), "full coverage");
}

TEST(ClusteringValidate, DetectsCorruptedAssignment) {
  const Graph g = gen::path(6);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  state.grow_steps(100);
  Clustering c = std::move(state).finish();
  EXPECT_TRUE(c.validate(g));
  // Break the claim-chain: distance jumps by 2.
  c.dist_to_center[3] = 5;
  EXPECT_FALSE(c.validate(g));
}

TEST(ClusteringValidate, DetectsWrongRadius) {
  const Graph g = gen::path(6);
  ThreadPool pool(1);
  GrowthState state(g, pool);
  state.add_center(0);
  state.grow_steps(100);
  Clustering c = std::move(state).finish();
  c.radius[0] = 1;  // true radius is 5
  EXPECT_FALSE(c.validate(g));
}

}  // namespace
}  // namespace gclus
