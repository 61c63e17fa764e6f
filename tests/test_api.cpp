// Tests for the unified API: the algorithm registry (schema validation,
// old-vs-new byte equivalence, corpus-wide validity and thread-count
// determinism for every registered algorithm), RunContext seed derivation
// and telemetry, and Workspace reuse (recycled scratch must be
// indistinguishable from fresh allocation — the use-after-reset hazard the
// sanitizer CI job watches).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "api/workspace.hpp"
#include "baselines/mpx.hpp"
#include "baselines/random_centers.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/growth.hpp"
#include "core/weighted_cluster.hpp"
#include "graph/bfs.hpp"
#include "graph/compressed.hpp"
#include "graph/weighted.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

/// Parameters that make every registered algorithm cheap and well-defined
/// on the small corpus (k small enough for every graph; τ small).  The
/// mr.* entries additionally run with a tiny spill budget, so the corpus
/// sweep exercises the out-of-core shuffle path end to end.
AlgoParams corpus_params(const std::string& algo) {
  AlgoParams p;
  if (algo == "mpx" || algo == "mr.mpx") {
    p.set("beta", 0.4);
  } else if (algo == "random_centers" || algo == "gonzalez" ||
             algo == "kcenter") {
    p.set("k", std::uint64_t{4});
  } else if (algo == "mr.bfs") {
    p.set("source", std::uint64_t{0});
  } else {
    p.set("tau", std::uint64_t{2});
  }
  if (algo.rfind("mr.", 0) == 0) {
    p.set("spill_bytes", std::uint64_t{4096});
  }
  return p;
}

TEST(Registry, ListsEveryBuiltinAlgorithm) {
  const std::vector<std::string> names = registry().names();
  for (const char* expected :
       {"cluster", "cluster2", "weighted_cluster", "mpx", "random_centers",
        "gonzalez", "kcenter", "mr.cluster", "mr.mpx", "mr.bfs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(registry().find("no-such-algorithm"), nullptr);
}

TEST(Registry, DeclaredSchemasRenderableAndTyped) {
  for (const std::string& name : registry().names()) {
    const AlgoInfo* info = registry().find(name);
    ASSERT_NE(info, nullptr);
    EXPECT_FALSE(info->summary.empty()) << name;
    for (const ParamSpec& spec : info->params) {
      EXPECT_FALSE(spec.key.empty()) << name;
      EXPECT_FALSE(spec.default_value.empty()) << name << "." << spec.key;
      EXPECT_NE(param_type_name(spec.type), nullptr);
    }
  }
}

TEST(Registry, RunReportsUsageErrorsAsStatus) {
  const Graph g = gen::grid(6, 6);
  RunContext ctx;
  // Selection errors come back as kInvalidArgument, so long-lived callers
  // (REPLs, servers) reject a bad request without dying.
  EXPECT_TRUE(
      testutil::fails_with(registry().run("nope", g, {}, ctx).status(),
                           StatusCode::kInvalidArgument, "unknown algorithm"));
  EXPECT_TRUE(testutil::fails_with(
      registry().run("cluster", g, AlgoParams{{"tua", "4"}}, ctx).status(),
      StatusCode::kInvalidArgument, "has no parameter"));
  EXPECT_TRUE(testutil::fails_with(
      registry().run("cluster", g, AlgoParams{{"tau", "abc"}}, ctx).status(),
      StatusCode::kInvalidArgument, "not an unsigned integer"));

  const auto good = registry().run("cluster", g, AlgoParams{{"tau", "4"}}, ctx);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().validate(g));
}

TEST(Registry, RunRejectsValuesThatDoNotParseAsTheirType) {
  const Graph g = gen::grid(6, 6);
  RunContext ctx;
  // One malformed value per ParamSpec::Type: each is refused by selection
  // with a Status naming the parameter, before any adapter runs.
  const std::vector<std::pair<std::string, AlgoParams>> bad = {
      {"cluster", AlgoParams{{"tau", "abc"}}},
      {"cluster", AlgoParams{{"tau", "99999999999"}}},  // > u32
      {"cluster", AlgoParams{{"tau", "-4"}}},
      {"mr.cluster", AlgoParams{{"spill_bytes", "18446744073709551616"}}},
      {"mpx", AlgoParams{{"beta", "0.5x"}}},
      {"mpx", AlgoParams{{"beta", ""}}},
      {"mr.cluster", AlgoParams{{"combiners", "maybe"}}},
  };
  for (const auto& [algo, params] : bad) {
    const auto r = registry().run(algo, g, params, ctx);
    const std::string key = params.entries().begin()->first;
    EXPECT_TRUE(testutil::fails_with(r.status(), StatusCode::kInvalidArgument,
                                     "parameter " + key))
        << algo;
  }
  // Well-formed values of every type still run.
  EXPECT_TRUE(registry().run("mpx", g, AlgoParams{{"beta", "0.4"}}, ctx).ok());
  EXPECT_TRUE(registry()
                  .run("mr.cluster", g,
                       AlgoParams{{"tau", "4"},
                                  {"combiners", "off"},
                                  {"spill_bytes", "4096"}},
                       ctx)
                  .ok());
  EXPECT_EQ(AlgoParams({{"tau", "4294967295"}}).get_u32("tau", 0),
            4294967295u);
}

// --- The registry is the validation boundary: input outside an
// algorithm's preconditions is kInvalidArgument on both graph
// representations, never an abort. ---

/// The same run on the plain graph and on its compressed form; both must
/// fail with kInvalidArgument mentioning `needle`.
void expect_rejected(const std::string& algo, const Graph& g,
                     const AlgoParams& params, const std::string& needle) {
  RunContext ctx;
  const auto plain = registry().run(algo, g, params, ctx);
  EXPECT_TRUE(testutil::fails_with(plain.status(),
                                   StatusCode::kInvalidArgument, needle))
      << algo << " on the plain graph";
  const auto packed = registry().run(algo, compress(g), params, ctx);
  EXPECT_TRUE(testutil::fails_with(packed.status(),
                                   StatusCode::kInvalidArgument, needle))
      << algo << " on the compressed graph";
}

TEST(RegistryBoundary, RejectsValuesBelowTheirDeclaredBound) {
  const Graph g = gen::grid(6, 6);
  for (const char* algo :
       {"cluster", "cluster2", "weighted_cluster", "mr.cluster"}) {
    expect_rejected(algo, g, AlgoParams{{"tau", "0"}},
                    "parameter tau: '0' is not a positive integer");
  }
  for (const char* algo : {"mpx", "mr.mpx"}) {
    for (const char* beta : {"0", "-0.5", "inf", "nan"}) {
      expect_rejected(algo, g, AlgoParams{{"beta", beta}}, "parameter beta");
    }
  }
  expect_rejected("mr.cluster", g, AlgoParams{{"partitions", "0"}},
                  "parameter partitions: '0' is not a positive integer");
  // tau=0 keeps its meaning where the schema gives it one: the oracle
  // picks √n/log²n.
  RunContext ctx;
  EXPECT_TRUE(registry().run("oracle", g, AlgoParams{{"tau", "0"}}, ctx).ok());
}

TEST(RegistryBoundary, RejectsTheEmptyGraph) {
  const Graph empty;
  for (const std::string& algo : registry().names()) {
    expect_rejected(algo, empty, {}, "at least one node");
  }
}

TEST(RegistryBoundary, RejectsTooFewCentersForTheComponents) {
  const Graph two = gen::disjoint_union(gen::cycle(6), gen::path(5));
  for (const char* algo : {"kcenter", "gonzalez"}) {
    expect_rejected(algo, two, AlgoParams{{"k", "1"}},
                    "cannot cover 2 connected components");
    // One center per component is enough.
    RunContext ctx;
    const auto ok = registry().run(algo, two, AlgoParams{{"k", "2"}}, ctx);
    ASSERT_TRUE(testutil::is_ok(ok.status())) << algo;
    EXPECT_TRUE(ok.value().validate(two)) << algo;
  }
  expect_rejected("mr.bfs", two, {}, "does not reach every node");
}

TEST(RegistryBoundary, ClampsAnOutOfRangeGonzalezSeed) {
  const Graph g = gen::path(9);
  RunContext ctx;
  const Clustering clamped =
      registry()
          .run("gonzalez", g, AlgoParams{{"k", "2"}, {"first", "1000"}}, ctx)
          .value();
  const Clustering last =
      registry()
          .run("gonzalez", g, AlgoParams{{"k", "2"}, {"first", "8"}}, ctx)
          .value();
  EXPECT_EQ(clamped.centers, last.centers);
  EXPECT_EQ(clamped.assignment, last.assignment);
}

// --- The registry-driven property sweep: every registered algorithm, on
// every corpus graph, must produce a valid partition, and a fixed
// RunContext must give byte-identical results on 1, 2, and 8 threads. ---

class RegistryCorpusTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(RegistryCorpusTest, AllAlgorithmsValidAndThreadCountInvariant) {
  const auto& [name, graph] = GetParam();
  for (const std::string& algo : registry().names()) {
    const AlgoParams params = corpus_params(algo);

    ThreadPool serial(1);
    RunContext ctx;
    ctx.seed = 7;
    ctx.pool = &serial;
    const Clustering reference =
        registry().run(algo, graph, params, ctx).value();
    EXPECT_TRUE(reference.validate(graph)) << algo << " on " << name;

    for (const std::size_t threads : {2u, 8u}) {
      ThreadPool pool(threads);
      RunContext tctx;
      tctx.seed = 7;
      tctx.pool = &pool;
      const Clustering c = registry().run(algo, graph, params, tctx).value();
      EXPECT_EQ(c.assignment, reference.assignment)
          << algo << " on " << name << " with " << threads << " threads";
      EXPECT_EQ(c.centers, reference.centers) << algo << " on " << name;
      EXPECT_EQ(c.dist_to_center, reference.dist_to_center)
          << algo << " on " << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RegistryCorpusTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

// --- Old API vs new API: a registry run must be byte-identical to the
// corresponding direct call with the same seed. ---

TEST(RegistryEquivalence, ClusterMatchesDirectCall) {
  const Graph g = gen::ring_of_cliques(10, 9);
  ClusterOptions opts;
  opts.seed = 5;
  const Clustering direct = cluster(g, 3, opts);

  RunContext ctx;
  ctx.seed = 5;
  const Clustering via_registry =
      registry()
          .run("cluster", g, AlgoParams{}.set("tau", std::uint64_t{3}), ctx)
          .value();
  EXPECT_EQ(via_registry.assignment, direct.assignment);
  EXPECT_EQ(via_registry.centers, direct.centers);
  EXPECT_EQ(via_registry.dist_to_center, direct.dist_to_center);
}

TEST(RegistryEquivalence, Cluster2MatchesDirectCall) {
  const Graph g = gen::grid(20, 21);
  ClusterOptions opts;
  opts.seed = 11;
  const Cluster2Result direct = cluster2(g, 2, opts);

  RunContext ctx;
  ctx.seed = 11;
  const Clustering via_registry =
      registry()
          .run("cluster2", g, AlgoParams{}.set("tau", std::uint64_t{2}), ctx)
          .value();
  EXPECT_EQ(via_registry.assignment, direct.clustering.assignment);
  EXPECT_EQ(via_registry.centers, direct.clustering.centers);
}

TEST(RegistryEquivalence, MpxMatchesDirectCall) {
  const Graph g = gen::expander(400, 4, 3);
  baselines::MpxOptions opts;
  opts.seed = 13;
  const Clustering direct = baselines::mpx(g, 0.7, opts);

  RunContext ctx;
  ctx.seed = 13;
  const Clustering via_registry =
      registry().run("mpx", g, AlgoParams{}.set("beta", 0.7), ctx).value();
  EXPECT_EQ(via_registry.assignment, direct.assignment);
  EXPECT_EQ(via_registry.centers, direct.centers);
}

TEST(RegistryEquivalence, RandomCentersMatchesDirectCall) {
  const Graph g = gen::torus(15, 16);
  baselines::RandomCentersOptions opts;
  opts.seed = 17;
  const Clustering direct = baselines::random_centers_clustering(g, 10, opts);

  RunContext ctx;
  ctx.seed = 17;
  const Clustering via_registry =
      registry()
          .run("random_centers", g, AlgoParams{}.set("k", std::uint64_t{10}),
               ctx)
          .value();
  EXPECT_EQ(via_registry.assignment, direct.assignment);
  EXPECT_EQ(via_registry.centers, direct.centers);
}

TEST(RegistryEquivalence, WeightedClusterMatchesDirectUnitLift) {
  const Graph g = gen::road_like(15, 15, 0.08, 0.02, 7);
  WeightedClusterOptions opts;
  opts.seed = 19;
  const WeightedClustering direct =
      weighted_cluster(WeightedGraph::from_unit_weights(g), 2, opts);

  RunContext ctx;
  ctx.seed = 19;
  const Clustering via_registry =
      registry()
          .run("weighted_cluster", g,
               AlgoParams{}.set("tau", std::uint64_t{2}), ctx)
          .value();
  EXPECT_EQ(via_registry.assignment, direct.assignment);
  EXPECT_EQ(via_registry.centers, direct.centers);
  EXPECT_EQ(via_registry.dist_to_center, direct.hops_to_center);
}

// --- Seed derivation. ---

TEST(DeriveSeed, PreservesLegacyPhaseStreams) {
  // The cluster2 preliminary phase historically mixed with 0xC1; derive_seed
  // with the named tag must reproduce that stream exactly, or every
  // pre-refactor decomposition changes under the same seed.
  EXPECT_EQ(derive_seed(123, kSeedTagCluster2Prelim), hash_combine(123, 0xC1));
  EXPECT_EQ(derive_seed(9, kSeedTagMrSpanner), hash_combine(9, 0x5B));
  EXPECT_NE(derive_seed(123, kSeedTagCluster2Prelim),
            derive_seed(123, kSeedTagOracleBuild));
  RunContext ctx;
  ctx.seed = 123;
  EXPECT_EQ(ctx.derived_seed(kSeedTagOracleBuild),
            derive_seed(123, kSeedTagOracleBuild));
}

// --- Telemetry. ---

TEST(Telemetry, RecordsAlgorithmInternals) {
  const Graph g = gen::grid(18, 18);
  RecordingTelemetry telemetry;
  RunContext ctx;
  ctx.seed = 3;
  ctx.telemetry = &telemetry;
  ASSERT_TRUE(registry()
                  .run("cluster2", g, AlgoParams{}.set("tau", std::uint64_t{2}),
                       ctx)
                  .ok());
  EXPECT_TRUE(telemetry.has("cluster2.r_alg"));
  EXPECT_TRUE(telemetry.has("cluster2.prelim_growth_steps"));
  EXPECT_GE(telemetry.value("cluster2.clusters"), 1.0);
  telemetry.clear();
  EXPECT_FALSE(telemetry.has("cluster2.r_alg"));
}

// --- Workspace reuse. ---

TEST(WorkspaceReuse, RecycledScratchMatchesFreshAllocation) {
  const Graph g = gen::expander(2000, 4, 5);
  RunContext fresh;
  fresh.seed = 21;
  const Clustering reference =
      registry()
          .run("cluster", g, AlgoParams{}.set("tau", std::uint64_t{2}), fresh)
          .value();

  Workspace ws;
  RunContext warm;
  warm.seed = 21;
  warm.workspace = &ws;
  for (int run = 0; run < 3; ++run) {
    const Clustering c =
        registry()
            .run("cluster", g, AlgoParams{}.set("tau", std::uint64_t{2}),
                 warm)
            .value();
    EXPECT_EQ(c.assignment, reference.assignment) << "run " << run;
    EXPECT_EQ(c.dist_to_center, reference.dist_to_center) << "run " << run;
  }
  // CLUSTER acquires once per run (cluster2 would acquire twice).
  EXPECT_EQ(ws.growth_acquires(), 3u);
  EXPECT_GT(ws.bytes(), 0u);
}

TEST(WorkspaceReuse, SurvivesSerialReuseAcrossAllAlgorithms) {
  // The cross-algorithm recycling sweep: every algorithm runs on the same
  // scratch in sequence, twice, and the second pass must reproduce the
  // first.  This is the test the ASan+UBSan CI job exists for.
  const Graph g = gen::ring_of_cliques(8, 10);
  Workspace ws;
  std::vector<Clustering> first_pass;
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t i = 0;
    for (const std::string& algo : registry().names()) {
      RunContext ctx;
      ctx.seed = 31;
      ctx.workspace = &ws;
      Clustering c = registry().run(algo, g, corpus_params(algo), ctx).value();
      EXPECT_TRUE(c.validate(g)) << algo;
      if (pass == 0) {
        first_pass.push_back(std::move(c));
      } else {
        EXPECT_EQ(c.assignment, first_pass[i].assignment) << algo;
      }
      ++i;
    }
  }
}

TEST(WorkspaceReuse, SmallerGraphAfterLargerReusesCapacity) {
  Workspace ws;
  RunContext ctx;
  ctx.seed = 9;
  ctx.workspace = &ws;
  const Graph big = gen::grid(40, 40);
  const Graph small = gen::cycle(64);
  ASSERT_TRUE(
      registry().run("cluster", big, corpus_params("cluster"), ctx).ok());
  const std::size_t bytes_after_big = ws.bytes();
  const Clustering c =
      registry().run("cluster", small, corpus_params("cluster"), ctx).value();
  EXPECT_TRUE(c.validate(small));
  // Serving a smaller graph must not grow the footprint.
  EXPECT_LE(ws.bytes(), bytes_after_big);

  RunContext fresh;
  fresh.seed = 9;
  const Clustering reference =
      registry()
          .run("cluster", small, corpus_params("cluster"), fresh)
          .value();
  EXPECT_EQ(c.assignment, reference.assignment);
}

TEST(WorkspaceReuse, OverlappingGrowthAcquireAborts) {
  const Graph g = gen::grid(8, 8);
  ThreadPool pool(1);
  Workspace ws;
  GrowthState first(g, pool, default_growth_options(), &ws);
  EXPECT_DEATH(GrowthState(g, pool, default_growth_options(), &ws),
               "already lent");
}

TEST(WorkspaceReuse, ParallelBfsMatchesFreshRun) {
  const Graph g = gen::expander_with_path(1500, 120, 4, 3);
  ThreadPool pool(2);
  const auto reference = parallel_bfs(pool, g, 0);
  Workspace ws;
  for (int run = 0; run < 3; ++run) {
    const auto dist = parallel_bfs(pool, g, 0, nullptr,
                                   default_growth_options(), nullptr, &ws);
    EXPECT_EQ(dist, reference) << "run " << run;
  }
  EXPECT_EQ(ws.growth_acquires(), 3u);
}

// BFS and decomposition borrow the same scratch, so a Workspace that
// alternates between them must reset everything the other left behind.
TEST(WorkspaceReuse, ClusterBfsClusterMatchFreshRuns) {
  const Graph g = gen::expander_with_path(1500, 120, 4, 3);
  ThreadPool pool(2);
  RunContext fresh;
  fresh.seed = 17;
  fresh.pool = &pool;
  const AlgoParams params = AlgoParams{}.set("tau", std::uint64_t{4});
  const Clustering reference =
      registry().run("cluster", g, params, fresh).value();
  const auto bfs_reference = parallel_bfs(pool, g, 7);

  Workspace ws;
  RunContext warm = fresh;
  warm.workspace = &ws;
  const Clustering first = registry().run("cluster", g, params, warm).value();
  const auto dist = parallel_bfs(pool, g, 7, nullptr, default_growth_options(),
                                 nullptr, &ws);
  const Clustering again = registry().run("cluster", g, params, warm).value();
  EXPECT_EQ(dist, bfs_reference);
  for (const Clustering* c : {&first, &again}) {
    EXPECT_EQ(c->assignment, reference.assignment);
    EXPECT_EQ(c->dist_to_center, reference.dist_to_center);
    EXPECT_EQ(c->centers, reference.centers);
  }
  EXPECT_EQ(ws.growth_acquires(), 3u);
}

TEST(WorkspaceReuse, ParallelBfsOnLentWorkspaceAborts) {
  const Graph g = gen::grid(8, 8);
  ThreadPool pool(1);
  Workspace ws;
  GrowthState live(g, pool, default_growth_options(), &ws);
  EXPECT_DEATH(static_cast<void>(parallel_bfs(pool, g, 0, nullptr,
                                              default_growth_options(),
                                              nullptr, &ws)),
               "already lent");
}

}  // namespace
}  // namespace gclus
