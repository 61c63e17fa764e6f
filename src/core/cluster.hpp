// Algorithm 1 (CLUSTER) from §3 of the paper.
//
// Starting from an empty clustering, the algorithm repeatedly:
//   1. selects every yet-uncovered node as a new center independently
//      with probability 4·τ·log n / |uncovered|,
//   2. grows ALL clusters — newly activated and pre-existing — in
//      synchronous parallel steps until at least half of the uncovered
//      nodes become covered,
// and stops when fewer than 8·τ·log n nodes remain, which become
// singleton clusters.  With high probability this yields O(τ·log² n)
// disjoint connected clusters whose maximum radius is within an O(log n)
// factor of the best achievable with τ clusters (Theorem 1, Lemma 1).
#pragma once

#include <cstdint>

#include "api/run_context.hpp"
#include "core/clustering.hpp"
#include "graph/graph.hpp"

namespace gclus {

class CompressedGraph;

/// Execution environment (seed, pool, growth knobs, telemetry)
/// plus CLUSTER's own constants.  Emits "cluster.iterations",
/// "cluster.clusters", "cluster.max_radius" and "cluster.growth_steps" to
/// the context's telemetry sink; with growth.record_step_log set, also
/// "cluster.push_ns" and "cluster.push_claims" (the push steps' wall time
/// and claimed nodes, which price a push claim).
struct ClusterOptions : RunContext {
  /// The constant of the selection probability 4·τ·log n / |uncovered|.
  double selection_constant = 4.0;

  /// The constant of the loop threshold 8·τ·log n.
  double threshold_constant = 8.0;
};

/// Runs CLUSTER(τ).  Works on connected and disconnected graphs (§3.2
/// requires τ at least the number of components for the guarantees, but
/// the implementation makes progress regardless: if a batch selects no
/// center reachable from an uncovered region, the next batch re-samples,
/// and a deterministic fallback center is injected whenever the frontier
/// goes quiet, so termination is unconditional).
[[nodiscard]] Clustering cluster(const Graph& g, std::uint32_t tau,
                                 const ClusterOptions& options = {});

/// CLUSTER(τ) over a compressed graph — identical semantics and output
/// (the growth engine's claim reductions are neighbor-order independent,
/// so decoding order does not matter), no decompression materialized.
[[nodiscard]] Clustering cluster(const CompressedGraph& g, std::uint32_t tau,
                                 const ClusterOptions& options = {});

/// Selection probability used in iteration `iteration` with `uncovered`
/// uncovered nodes (exposed for tests).
[[nodiscard]] double cluster_selection_probability(std::uint32_t tau,
                                                   NodeId num_nodes,
                                                   NodeId uncovered,
                                                   double selection_constant);

}  // namespace gclus
