// CLUSTER and the decomposition-based diameter pipeline expressed as MR
// rounds (§5, Lemma 3 / Theorem 4).
//
// Each cluster-growing step is one shuffle: frontier nodes send their
// claim key along every incident edge, the reducer of an uncovered node
// keeps the minimum key, and the newly covered nodes form the next
// round's frontier.  Center-selection waves are one map-style round over
// the uncovered nodes.  The additional O(log_{M_L} m) sorting rounds each
// step costs in the model are charged to the engine's metrics.
//
// The claim tie-breaking (minimum cluster id) and center id assignment
// (node order within a batch) match core/cluster.cpp exactly, so for the
// same (graph, τ, seed) this produces the *identical* partition — an
// equivalence the test suite asserts.
#pragma once

#include <cstdint>

#include "core/clustering.hpp"
#include "graph/graph.hpp"
#include "mapreduce/engine.hpp"

namespace gclus::mr_algos {

struct MrClusterOptions {
  std::uint64_t seed = 1;
  double selection_constant = 4.0;
  double threshold_constant = 8.0;

  /// Theorem 4's |E_C| <= M_L escape hatch: when the weighted quotient
  /// has more edges than this, it is sparsified with a Baswana–Sen
  /// 3-spanner before the single-reducer diameter solve (costing a
  /// constant number of extra rounds and at most a 3x looser, still
  /// sound, upper bound).  0 = never sparsify.
  EdgeId max_quotient_edges = 0;
};

struct MrClusterResult {
  Clustering clustering;
  std::size_t growth_rounds = 0;     // shuffles spent growing
  std::size_t selection_rounds = 0;  // shuffles spent selecting centers
};

/// Runs CLUSTER(τ) in MR rounds on `engine`; a failed round's Status is
/// returned.
[[nodiscard]] StatusOr<MrClusterResult> mr_cluster(
    mr::Engine& engine, const Graph& g, std::uint32_t tau,
    const MrClusterOptions& options = {});

struct MrDiameterResult {
  std::uint64_t estimate = 0;   // Δ″ = 2·R + Δ′_C
  Dist max_radius = 0;          // R of the clustering
  NodeId quotient_nodes = 0;
  EdgeId quotient_edges = 0;
  std::size_t total_rounds = 0;  // engine rounds consumed by the pipeline

  /// Set when the quotient exceeded max_quotient_edges and the diameter
  /// was solved on a spanner instead (§5 / Theorem 4).
  bool sparsified = false;
  EdgeId sparsified_edges = 0;
};

/// The Table-4 CLUSTER column: decompose at granularity τ, reduce the
/// weighted quotient in one shuffle, solve its diameter on "one reducer".
[[nodiscard]] StatusOr<MrDiameterResult> mr_cluster_diameter(
    mr::Engine& engine, const Graph& g, std::uint32_t tau,
    const MrClusterOptions& options = {});

}  // namespace gclus::mr_algos
