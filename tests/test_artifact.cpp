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
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/distance_oracle.hpp"
#include "graph/builder.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
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

  ArtifactLoadOptions mmap_opts;  // defaults: prefer mmap, verify
  auto mapped = load_oracle_artifact(file.path, mmap_opts);
  ASSERT_TRUE(mapped.ok()) << name << ": " << mapped.status().to_string();
  EXPECT_TRUE(same_payload(built, *mapped)) << name;
  EXPECT_EQ(mapped->meta.build_seed, built.meta.build_seed);
  EXPECT_EQ(mapped->meta.max_radius, built.meta.max_radius);

  ArtifactLoadOptions copy_opts;
  copy_opts.prefer_mmap = false;
  auto copied = load_oracle_artifact(file.path, copy_opts);
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
  EXPECT_TRUE(loaded->loaded_from_artifact());
  EXPECT_FALSE(built->loaded_from_artifact());

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
  const auto r = load_oracle_artifact(temp_path("gclus_artifact_nope.orc"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
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
  EXPECT_TRUE(second->loaded_from_artifact());
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
