// Quotient graph construction (§4).
//
// Given a clustering of G, the quotient graph G_C has one node per cluster
// and an edge between two clusters whenever some G-edge crosses them.  The
// weighted variant assigns edge {A, B} the length of a concrete path
// between the two centers that stays inside A ∪ B:
//     w(A,B) = min over crossing G-edges (a,b) of
//              dist(a, center_A) + 1 + dist(b, center_B),
// using the claim-time distances recorded by the growth engine.  This is
// the weighting the paper uses for the tighter Δ″ upper bound and for the
// distance oracle.
//
// The build is parallel and deterministic: each worker aggregates the
// crossing edges of the nodes it draws into its own map from cluster pair
// to minimum weight, the maps are merged with a min, and the CSR builders
// sort, so the quotient is byte-identical for any pool.  Extra space is
// O(workers × quotient edges).
#pragma once

#include "core/clustering.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace gclus {

class ThreadPool;

struct QuotientGraph {
  /// Unweighted quotient: node c == cluster c of the clustering.
  Graph graph;

  /// Weighted variant (empty unless requested).
  WeightedGraph weighted;

  [[nodiscard]] NodeId num_clusters() const { return graph.num_nodes(); }
};

/// Builds the quotient graph of `clustering` over `g` on `pool` (nullptr:
/// the process-global pool).  When `with_weights` is set the weighted
/// variant is built as well.
[[nodiscard]] QuotientGraph build_quotient(const Graph& g,
                                           const Clustering& clustering,
                                           bool with_weights = true,
                                           ThreadPool* pool = nullptr);

}  // namespace gclus
