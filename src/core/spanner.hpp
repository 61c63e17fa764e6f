// Baswana–Sen spanner sparsification — the paper's §5 machinery.
//
// Theorem 4 handles quotient graphs whose edge count exceeds the local
// memory M_L by sparsifying them with "the technique presented in [4]"
// (Baswana & Sen, Random Struct. Algorithms 2007) before shipping them to
// a single reducer.  This module implements the randomized (2k−1)-spanner:
// k−1 clustering phases, each sampling surviving clusters with
// probability n^{-1/k}; unsampled vertices either hook onto an adjacent
// sampled cluster (keeping that edge) or keep one cheapest edge to every
// adjacent cluster and retire; a final phase keeps one cheapest edge per
// (vertex, adjacent cluster) pair.
//
// Guarantees: the spanner is a subgraph with expected O(k·n^{1+1/k})
// edges in which every distance is stretched by at most 2k−1.  Distances
// only grow in a subgraph, so a diameter computed on the spanner remains
// an upper-bound ingredient for the §4 pipeline, at most (2k−1)× looser.
#pragma once

#include <cstdint>

#include "api/run_context.hpp"
#include "graph/weighted.hpp"

namespace gclus {

/// Execution environment plus the stretch parameter.  The sparsification
/// is sequential and randomized only through counter-based draws on the
/// context seed; pool/growth are currently unused.
struct SpannerOptions : RunContext {
  /// Stretch parameter: the result is a (2k−1)-spanner.  k = 2 gives a
  /// 3-spanner with ~n^{3/2} edges; k = 3 a 5-spanner with ~n^{4/3}.
  unsigned k = 2;
};

struct SpannerResult {
  WeightedGraph spanner;
  EdgeId input_edges = 0;
  EdgeId kept_edges = 0;
  unsigned stretch = 1;  // 2k−1
};

/// Computes a Baswana–Sen (2k−1)-spanner of `g`.
[[nodiscard]] SpannerResult baswana_sen_spanner(
    const WeightedGraph& g, const SpannerOptions& options = {});

}  // namespace gclus
