// Tests for the serialized distance-oracle artifact (server/artifact.hpp):
// build→write→load round trips over the whole corpus (mmap and copy
// paths), byte-identical restart answers, header/payload bit-flip
// corruption sweeps that must yield kDataLoss/kInvalidArgument — never an
// abort — the load_or_build evict+rebuild+republish discipline, and that
// the registry's "oracle" algorithm runs the artifact's decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/faultpoint.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/distance_oracle.hpp"
#include "graph/builder.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "par/thread_pool.hpp"
#include "server/artifact.hpp"
#include "server/engine.hpp"
#include "test_util.hpp"

namespace gclus::server {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// RAII temp file (the artifact plus any leftover temp siblings).
struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

DistanceOracleOptions fixed_opts() {
  DistanceOracleOptions opts;
  opts.seed = 11;
  opts.tau = 4;
  return opts;
}

template <typename T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return std::ranges::equal(a, b);
}

bool same_payload(const OracleArtifact& a, const OracleArtifact& b) {
  return same_span(a.cluster_of, b.cluster_of) &&
         same_span(a.dist_to_center, b.dist_to_center) &&
         same_span(a.centers, b.centers) &&
         same_span(a.quotient_offsets, b.quotient_offsets) &&
         same_span(a.quotient_neighbors, b.quotient_neighbors) &&
         same_span(a.quotient_weights, b.quotient_weights) &&
         same_span(a.apsp, b.apsp);
}

// ---- round trip over the corpus ---------------------------------------------

class ArtifactRoundTripTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(ArtifactRoundTripTest, WriteLoadPreservesEveryByte) {
  const auto& [name, graph] = GetParam();
  const OracleArtifact built = build_oracle_artifact(graph, fixed_opts());
  EXPECT_FALSE(built.mapped);
  EXPECT_EQ(built.meta.graph_num_nodes, graph.num_nodes());
  EXPECT_EQ(built.meta.graph_num_half_edges, graph.num_half_edges());
  EXPECT_GE(built.meta.num_clusters, 1u);
  EXPECT_NE(built.meta.tau, 0u);  // the 0 sentinel must be resolved

  TempFile file("gclus_artifact_rt_" + name + ".orc");
  ASSERT_TRUE(write_oracle_artifact(built, file.path).ok());

  auto mapped = load_oracle_artifact(file.path);
  ASSERT_TRUE(mapped.ok()) << name << ": " << mapped.status().to_string();
  EXPECT_TRUE(same_payload(built, *mapped)) << name;
  EXPECT_EQ(mapped->meta.build_seed, built.meta.build_seed);
  EXPECT_EQ(mapped->meta.max_radius, built.meta.max_radius);

  // A failed mmap degrades to the copy path.
  fault::arm("io.mmap", fault::FaultSpec::once());
  auto copied = load_oracle_artifact(file.path);
  fault::disarm_all();
  ASSERT_TRUE(copied.ok()) << name;
  EXPECT_FALSE(copied->mapped);
  EXPECT_TRUE(same_payload(built, *copied)) << name;

  EXPECT_TRUE(validate_artifact_for_graph(*mapped, graph).ok());
}

TEST_P(ArtifactRoundTripTest, LoadedEngineMatchesOracleFormula) {
  const auto& [name, graph] = GetParam();
  TempFile file("gclus_artifact_eng_" + name + ".orc");
  auto built = QueryEngine::build(Graph(graph), fixed_opts());
  ASSERT_TRUE(built.ok()) << name;
  ASSERT_TRUE(built->save(file.path).ok());
  auto loaded = QueryEngine::load(Graph(graph), file.path);
  ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().to_string();

  Rng rng(77);
  for (int q = 0; q < 200; ++q) {
    const auto u = static_cast<NodeId>(rng.next_below(graph.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(graph.num_nodes()));
    const auto fresh = built->approx_distance(u, v);
    const auto reloaded = loaded->approx_distance(u, v);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(*fresh, *reloaded) << name;
    EXPECT_EQ(*fresh, testutil::oracle_formula(built->artifact(), u, v))
        << name;
  }
}

// The registry's "oracle" algorithm and the artifact must run one
// decomposition: same labels for the same context, at every thread count
// and on either graph layout.
TEST_P(ArtifactRoundTripTest, RegistryOracleIsTheArtifactDecomposition) {
  const auto& [name, graph] = GetParam();
  const CompressedGraph packed = compress(graph);
  const AlgoParams params{{"tau", std::to_string(fixed_opts().tau)}};
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    DistanceOracleOptions opts = fixed_opts();
    opts.pool = &pool;
    const OracleArtifact a = build_oracle_artifact(graph, opts);
    RunContext ctx = opts.context();
    const Clustering plain =
        registry().run("oracle", graph, params, ctx).value();
    const Clustering compressed =
        registry().run("oracle", packed, params, ctx).value();
    for (const Clustering* c : {&plain, &compressed}) {
      const bool is_plain = c == &plain;
      EXPECT_TRUE(std::ranges::equal(c->assignment, a.cluster_of))
          << name << " threads " << threads << " plain " << is_plain;
      EXPECT_TRUE(std::ranges::equal(c->centers, a.centers))
          << name << " threads " << threads << " plain " << is_plain;
      EXPECT_TRUE(std::ranges::equal(c->dist_to_center, a.dist_to_center))
          << name << " threads " << threads << " plain " << is_plain;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ArtifactRoundTripTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

// ---- corruption must degrade to Status, never abort -------------------------

TEST(ArtifactCorruption, HeaderAndPayloadBitFlipsAreRejected) {
  const Graph g = gen::ring_of_cliques(6, 8);
  const OracleArtifact built = build_oracle_artifact(g, fixed_opts());
  TempFile file("gclus_artifact_flip.orc");
  ASSERT_TRUE(write_oracle_artifact(built, file.path).ok());
  const std::vector<char> pristine = slurp(file.path);
  ASSERT_GT(pristine.size(), 192u);

  // Flip one bit in every header byte and the first 64 payload bytes
  // (bytes 144..191 are alignment padding the checksum deliberately skips).
  // A flip either breaks the magic/version/padding (kInvalidArgument) or a
  // semantic field or the checksum (kDataLoss) — nothing slips through.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < 144; ++i) positions.push_back(i);
  for (std::size_t i = 192; i < 192 + 64 && i < pristine.size(); ++i) {
    positions.push_back(i);
  }
  for (const std::size_t i : positions) {
    std::vector<char> bytes = pristine;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    spit(file.path, bytes);
    const auto r = load_oracle_artifact(file.path);
    ASSERT_FALSE(r.ok()) << "flip at byte " << i << " was accepted";
    const StatusCode code = r.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << "flip at byte " << i << ": " << r.status().to_string();
  }

  // The pristine bytes still load — the writer really is the reader's dual.
  spit(file.path, pristine);
  EXPECT_TRUE(load_oracle_artifact(file.path).ok());
}

TEST(ArtifactCorruption, TruncationsAreDataLoss) {
  const Graph g = gen::grid(12, 12);
  const OracleArtifact built = build_oracle_artifact(g, fixed_opts());
  TempFile file("gclus_artifact_trunc.orc");
  ASSERT_TRUE(write_oracle_artifact(built, file.path).ok());
  const std::vector<char> pristine = slurp(file.path);

  for (const std::size_t keep :
       {pristine.size() - 1, pristine.size() / 2, std::size_t{200},
        std::size_t{144}, std::size_t{100}, std::size_t{8}, std::size_t{0}}) {
    std::vector<char> bytes(pristine.begin(),
                            pristine.begin() + static_cast<long>(keep));
    spit(file.path, bytes);
    const auto r = load_oracle_artifact(file.path);
    ASSERT_FALSE(r.ok()) << "truncation to " << keep << " bytes accepted";
    const StatusCode code = r.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << "truncation to " << keep << ": " << r.status().to_string();
  }
}

TEST(ArtifactCorruption, NonArtifactFileIsInvalidArgument) {
  TempFile file("gclus_artifact_notorc.orc");
  spit(file.path, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l', 'd'});
  const auto r = load_oracle_artifact(file.path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArtifactCorruption, MissingFileIsIoError) {
  const std::string path = temp_path("gclus_artifact_nope.orc");
  const auto r = load_oracle_artifact(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find(path), std::string::npos)
      << r.status().to_string();
}

// ---- wrong-graph guards -----------------------------------------------------

TEST(ArtifactValidation, WrongGraphIsInvalidArgument) {
  const Graph g = gen::grid(10, 10);
  const Graph other = gen::cycle(64);
  const OracleArtifact built = build_oracle_artifact(g, fixed_opts());
  const Status st = validate_artifact_for_graph(built, other);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  TempFile file("gclus_artifact_wronggraph.orc");
  ASSERT_TRUE(write_oracle_artifact(built, file.path).ok());
  auto engine = QueryEngine::load(Graph(other), file.path);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

// The graph checksum binds an artifact to the graph it was built over: the
// same graph with its nodes relabeled, or with one edge moved, has the
// same node and half-edge counts but is refused.  (Served, the relabeled
// pair answered 15.8% of sampled distances below the exact BFS distance.)
TEST(ArtifactValidation, SameSizeDifferentGraphIsInvalidArgument) {
  const Graph g = gen::road_like(60, 60, 0.08, 0.02, 1);
  const OracleArtifact built = build_oracle_artifact(g, fixed_opts());
  EXPECT_EQ(built.meta.graph_checksum, io::csr_checksum(g));
  ASSERT_TRUE(validate_artifact_for_graph(built, g).ok());
  TempFile file("gclus_artifact_samesize.orc");
  ASSERT_TRUE(write_oracle_artifact(built, file.path).ok());

  std::vector<NodeId> perm(g.num_nodes());
  std::iota(perm.begin(), perm.end(), NodeId{0});
  testutil::deterministic_shuffle(perm, 5);
  std::vector<Edge> relabeled;
  std::vector<Edge> moved;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u > v) continue;
      relabeled.push_back({perm[u], perm[v]});
      moved.push_back({u, v});
    }
  }
  // Move the first edge (u, v) to (u, w), w the lowest id u is not
  // adjacent to.
  const NodeId u = moved.front().first;
  NodeId w = 0;
  while (w == u || g.has_edge(u, w)) ++w;
  moved.front().second = w;

  const struct {
    const char* name;
    Graph graph;
  } others[] = {{"relabeled", build_graph(g.num_nodes(), relabeled)},
                {"one edge moved", build_graph(g.num_nodes(), moved)}};
  for (const auto& [name, other] : others) {
    ASSERT_EQ(other.num_nodes(), g.num_nodes()) << name;
    ASSERT_EQ(other.num_half_edges(), g.num_half_edges()) << name;
    EXPECT_TRUE(testutil::fails_with(validate_artifact_for_graph(built, other),
                                     StatusCode::kInvalidArgument,
                                     "different graph"))
        << name;
    EXPECT_TRUE(testutil::fails_with(
        QueryEngine::load(Graph(other), file.path).status(),
        StatusCode::kInvalidArgument, "different graph"))
        << name;
  }

  // reload binds a successor sidecar to the graph the current engine's
  // artifact records, with no graph at hand: another τ over the same graph
  // is accepted, the other graphs' sidecars are refused, and the current
  // engine answers as before after each refusal.
  auto current = QueryEngine::load(g, file.path);
  ASSERT_TRUE(current.ok()) << current.status().to_string();
  std::vector<Query> probe;
  Rng rng(29);
  for (std::uint32_t i = 0; i < 300; ++i) {
    const auto kind = static_cast<QueryKind>(i % 3);
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    probe.push_back({kind, u,
                     kind == QueryKind::kClusterNeighborhood
                         ? static_cast<std::uint32_t>(rng.next_below(4))
                         : static_cast<NodeId>(rng.next_below(g.num_nodes()))});
  }
  const auto answers = [&](const QueryEngine& e) {
    std::vector<QueryResult> out(probe.size());
    QueryScratch scratch;
    e.execute(probe, out, scratch);
    return out;
  };
  const std::vector<QueryResult> before = answers(*current);

  TempFile next("gclus_artifact_samesize_next.orc");
  DistanceOracleOptions coarser = fixed_opts();
  coarser.tau = 8;
  auto fresh = QueryEngine::build(g, coarser);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->save(next.path).ok());
  auto reloaded = current->reload(next.path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().to_string();
  EXPECT_EQ(reloaded->artifact().meta.tau, 8u);
  EXPECT_EQ(answers(*reloaded), answers(*fresh));

  for (const auto& [name, other] : others) {
    ASSERT_TRUE(write_oracle_artifact(
                    build_oracle_artifact(other, fixed_opts()), next.path)
                    .ok())
        << name;
    EXPECT_TRUE(testutil::fails_with(current->reload(next.path).status(),
                                     StatusCode::kInvalidArgument,
                                     "different graph"))
        << name;
    EXPECT_EQ(answers(*current), before) << name;
  }

  // load_or_build evicts the other graph's sidecar and republishes one
  // bound to the graph it serves.
  const Graph& served = others[0].graph;
  QueryEngine::LoadReport rep;
  auto engine =
      QueryEngine::load_or_build(Graph(served), file.path, fixed_opts(), &rep);
  ASSERT_TRUE(engine.ok()) << engine.status().to_string();
  EXPECT_TRUE(rep.evicted_corrupt);
  EXPECT_TRUE(rep.rebuilt);
  ASSERT_TRUE(rep.republished);
  EXPECT_TRUE(QueryEngine::load(Graph(served), file.path).ok());
}

// ---- load_or_build: the evict + rebuild + republish path --------------------

TEST(LoadOrBuild, MissingArtifactRebuildsAndRepublishes) {
  const Graph g = gen::ring_of_cliques(5, 10);
  TempFile file("gclus_artifact_lob_missing.orc");

  QueryEngine::LoadReport rep;
  auto first = QueryEngine::load_or_build(Graph(g), file.path, fixed_opts(),
                                          &rep);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(rep.loaded_from_artifact);
  EXPECT_FALSE(rep.evicted_corrupt);  // nothing existed to evict
  EXPECT_TRUE(rep.rebuilt);
  EXPECT_TRUE(rep.republished);
  ASSERT_TRUE(std::filesystem::exists(file.path));

  // Second call finds the published sidecar and never decomposes.
  auto second = QueryEngine::load_or_build(Graph(g), file.path, fixed_opts(),
                                           &rep);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(rep.loaded_from_artifact);
  EXPECT_FALSE(rep.rebuilt);
  EXPECT_TRUE(same_payload(first->artifact(), second->artifact()));
}

TEST(LoadOrBuild, CorruptArtifactIsEvictedAndHealed) {
  const Graph g = gen::ring_of_cliques(5, 10);
  TempFile file("gclus_artifact_lob_corrupt.orc");
  {
    auto engine = QueryEngine::build(Graph(g), fixed_opts());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->save(file.path).ok());
  }
  // Corrupt the payload (header intact, checksum now wrong).
  std::vector<char> bytes = slurp(file.path);
  bytes[300] = static_cast<char>(bytes[300] ^ 0xFF);
  spit(file.path, bytes);

  QueryEngine::LoadReport rep;
  auto healed = QueryEngine::load_or_build(Graph(g), file.path, fixed_opts(),
                                           &rep);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(rep.loaded_from_artifact);
  EXPECT_TRUE(rep.evicted_corrupt);
  EXPECT_TRUE(rep.rebuilt);
  EXPECT_TRUE(rep.republished);

  // The republished sidecar is healthy again.
  auto reloaded = QueryEngine::load(Graph(g), file.path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(same_payload(healed->artifact(), reloaded->artifact()));
}

// ---- engine construction guards ---------------------------------------------

TEST(QueryEngineBuild, EmptyGraphIsInvalidArgument) {
  auto r = QueryEngine::build(Graph(), fixed_opts());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineBuild, DisconnectedGraphIsInvalidArgument) {
  // Two cliques, no edge between them: the quotient APSP has unreachable
  // pairs, which the query formula cannot serve.
  GraphBuilder b(10);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) {
      b.add_edge(u, v);
      b.add_edge(u + 5, v + 5);
    }
  }
  auto r = QueryEngine::build(b.build(), fixed_opts());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gclus::server
