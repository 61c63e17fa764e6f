// Shared helpers for the test suite: a corpus of small named graphs used
// by the parameterized property sweeps, brute-force reference
// implementations that the optimized kernels are checked against, and
// gtest predicates over Status results.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "core/clustering.hpp"
#include "core/quotient.hpp"
#include "file_mapping.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"
#include "server/artifact.hpp"
#include "server/engine.hpp"

namespace gclus::testutil {

/// Byte-identical CSR arrays — the equality the determinism and
/// round-trip sweeps assert.  (Graph accessors return spans, which have
/// no operator==, so tests compare through here.)
inline bool same_csr(const Graph& a, const Graph& b) {
  return std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.neighbor_array(), b.neighbor_array());
}

/// `ASSERT_TRUE(testutil::is_ok(io::write_csr(g, path)))`: prints the
/// Status text when the operation failed.
inline testing::AssertionResult is_ok(const Status& st) {
  if (st.ok()) return testing::AssertionSuccess();
  return testing::AssertionFailure() << st.to_string();
}

/// True when `st` failed with `code` and a message containing `needle`.
inline testing::AssertionResult fails_with(const Status& st, StatusCode code,
                                           std::string_view needle) {
  if (st.code() == code && st.message().find(needle) != std::string::npos) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "expected " << status_code_name(code) << " containing '" << needle
         << "', got " << st.to_string();
}

/// The oracle's d′(u,v) = dist(u, ctr(u)) + apsp[c(u)][c(v)] +
/// dist(v, ctr(v)) (0 for u == v), evaluated straight from an artifact's
/// label and APSP spans — the restatement QueryEngine::execute's distance
/// answers are checked against.
inline std::uint64_t oracle_formula(const server::OracleArtifact& a, NodeId u,
                                    NodeId v) {
  if (u == v) return 0;
  const std::uint64_t labels =
      std::uint64_t{a.dist_to_center[u]} + a.dist_to_center[v];
  const ClusterId cu = a.cluster_of[u];
  const ClusterId cv = a.cluster_of[v];
  if (cu == cv) return labels;
  return labels + a.apsp[std::size_t{cu} * a.meta.num_clusters + cv];
}

/// Clusters within `hops` quotient hops of cluster `start`, ascending, by
/// a plain FIFO BFS with hop counts over the artifact's quotient CSR.
std::vector<ClusterId> reference_neighborhood(const server::OracleArtifact& a,
                                              ClusterId start,
                                              std::uint32_t hops);

/// The answer to `q` over `a`'s spans, kind by kind: oracle_formula for
/// d′, a label compare for same-cluster, the size-seeded hash_combine fold
/// of reference_neighborhood for the neighborhood digest, and
/// kInvalidArgument for an out-of-range id or unknown kind — the
/// reference QueryEngine::execute is checked against entry by entry.
server::QueryResult reference_answer(const server::OracleArtifact& a,
                                     const server::Query& q);

/// Bitwise CRC32C (reflected Castagnoli polynomial 0x82F63B78, register
/// initialized and finally inverted, RFC 3720 §B.4), continuing `crc` as
/// wire::crc32c does — the independent reference both of its paths are
/// checked against.  One shift per bit: for small inputs only.
inline std::uint32_t crc32c_bitwise(std::uint32_t crc, const void* data,
                                    std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ ((c & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return ~c;
}

/// 64-bit FNV-1a of `len` bytes, continuing `h` (start from
/// kFnv1aOffsetBasis) — the hash the CSR payload golden values were
/// recorded with.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 1469598103934665603ULL;
inline std::uint64_t fnv1a64(std::uint64_t h, const void* data,
                             std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

/// Fisher–Yates driven by mix64(seed + i): the same permutation on every
/// standard library, which std::shuffle does not promise.
template <typename T>
void deterministic_shuffle(std::vector<T>& values, std::uint64_t seed) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[mix64(seed + i) % i]);
  }
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// Largest connected component of g (thin wrapper over graph/connectivity).
Graph largest_component_of(const Graph& g);

/// A corpus of small connected graphs with diverse shapes: paths, cycles,
/// grids, tori, trees, cliques, expanders, power-law, ring-of-cliques,
/// expander+path.  Every graph is connected and small enough (<= ~2500
/// nodes) for brute-force cross-checks.
std::vector<NamedGraph> small_connected_corpus();

/// Brute-force exact diameter by BFS from every node.  O(n·m).
inline Dist brute_force_diameter(const Graph& g) {
  Dist best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto e = bfs_extremum(g, v);
    if (e.eccentricity > best) best = e.eccentricity;
  }
  return best;
}

/// Brute-force exact weighted diameter: the max weighted eccentricity over
/// every node (one Dijkstra each; unreachable pairs do not count).
inline Weight brute_force_weighted_diameter(const WeightedGraph& g) {
  Weight best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    best = std::max(best, weighted_eccentricity(g, v));
  }
  return best;
}

/// Per-node nearest source: hop distance (kInfDist if unreachable) and
/// the lowest index into the source list at that distance (UINT32_MAX if
/// unreachable).
struct NearestSource {
  std::vector<Dist> dist;
  std::vector<std::uint32_t> owner;
};

/// Brute-force nearest source by one bfs_distances per source — the
/// reference for multi_source_bfs's distances and owner tie-breaking.
NearestSource brute_force_nearest_source(const Graph& g,
                                         const std::vector<NodeId>& sources);

/// Sort-and-unique CSR build: both directions of every non-loop edge as
/// pairs, std::sort, std::unique, offsets counted from the pairs — the
/// pool-free reference for GraphBuilder::build.
Graph serial_build(NodeId num_nodes, const std::vector<Edge>& edges);

/// Serial DFS sweep: components numbered in the order the sweep over node
/// ids first reaches them — the reference for connected_components.
Components serial_components(const Graph& g);

/// Serial quotient: one hash-map probe per crossing edge, in node order —
/// the reference for build_quotient.
QuotientGraph serial_quotient(const Graph& g, const Clustering& clustering,
                              bool with_weights);

/// Brute-force optimal k-center radius by trying every size-k center set —
/// exponential; only for tiny graphs (n <= ~16, k <= 3).
Dist brute_force_kcenter_radius(const Graph& g, NodeId k);

}  // namespace gclus::testutil
