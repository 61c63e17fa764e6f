// Linear-space distance oracle (§4, final remark): the decomposition step.
//
// Build: run the decomposition at granularity τ = O(√n / log⁴ n), build
// the *weighted* quotient graph, and store its dense all-pairs
// shortest-path matrix plus the per-node (cluster, dist-to-center) labels.
// Query: d′(u,v) = dist(u, ctr(u)) + apsp[ctr(u)][ctr(v)] + dist(v, ctr(v))
// is an upper bound on dist(u,v), because every weighted quotient path
// corresponds to a concrete path in G through the cluster centers.  The
// paper shows d′(u,v) = O(d(u,v)·log³ n + R_ALG2) with high probability —
// polylogarithmic distortion for far-apart node pairs.
//
// This header owns the first step only: which clustering the oracle is
// built on.  The stored oracle is server::OracleArtifact
// (server/artifact.hpp, built by build_oracle_artifact), and d′ is
// evaluated in exactly one place, server::QueryEngine::approx_distance.
#pragma once

#include <cstdint>

#include "api/run_context.hpp"
#include "core/clustering.hpp"
#include "graph/graph.hpp"

namespace gclus {

/// Execution environment plus the oracle's structural knobs.  The build's
/// decomposition runs on the derived sub-stream
/// derive_seed(seed, kSeedTagOracleBuild), so an oracle built with seed s
/// never replays the exact clustering of a user's own CLUSTER2(s) run.
/// Compatibility note: this is a deliberate break from the pre-RunContext
/// library, which passed the seed through verbatim — oracles rebuilt from
/// stored seeds will choose a different (equally valid) clustering.  All
/// quality guarantees are distribution-level, and the serialized artifact
/// (server/artifact.hpp) stores the resolved knobs, not the stream, so
/// nothing persisted depends on the old behavior.
struct DistanceOracleOptions : RunContext {
  /// 0 means "choose τ automatically" as max(1, √n / log²n) — large enough
  /// to keep the quotient near √n nodes so the APSP matrix stays linear
  /// in the input size.
  std::uint32_t tau = 0;

  /// Use CLUSTER2 (the analyzed variant) instead of plain CLUSTER.
  bool use_cluster2 = true;
};

/// The decomposition the oracle over the *connected* graph `g` is built
/// on: CLUSTER2 (or CLUSTER) at the resolved τ, seeded with
/// derive_seed(options.seed, kSeedTagOracleBuild).  Emits "oracle.tau"
/// (the resolved τ, never the 0 sentinel) after the algorithm's own
/// telemetry; `resolved_tau`, when non-null, receives the same value.
[[nodiscard]] Clustering oracle_clustering(
    const Graph& g, const DistanceOracleOptions& options = {},
    std::uint32_t* resolved_tau = nullptr);

}  // namespace gclus
