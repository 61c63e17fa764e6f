// Breadth-first search kernels: the sequential reference, parallel
// single-source BFS, and owner-tracking multi-source BFS.  These are both
// building blocks and the exact-answer reference the tests and the BFS
// diameter baseline rely on.
//
// BFS is cluster growth from one center (multi-source BFS: from a center
// set), so both parallel kernels run on the growth engine (core/growth):
// one synchronous step per level, sparse levels top-down and dense levels
// bottom-up, with GrowthOptions tuning or pinning the per-level choice.
// The serial kernels (bfs_distances, relax_from) stay as the references.
#pragma once

#include <vector>

#include "common/traversal.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

/// Hop distances from `source`; kInfDist for unreachable nodes.  Serial —
/// the reference the tests check the parallel kernels against.
[[nodiscard]] std::vector<Dist> bfs_distances(const Graph& g, NodeId source);

/// Hop distance to the nearest of `sources` (kInfDist if unreachable).
/// When `owner_out` is non-null it receives, per node, the index into
/// `sources` of the lowest-index source at that nearest distance
/// (UINT32_MAX if unreachable; duplicate sources resolve to the first
/// index) — the Voronoi partition the k-center evaluation and the
/// registry's center-set adapters build on.  Claims propagate along BFS
/// tree edges, so every claimed non-source node has a same-owner neighbor
/// one hop closer.  Runs on the growth engine over `pool` (nullptr: the
/// process-global pool); the result does not depend on the pool size.
[[nodiscard]] std::vector<Dist> multi_source_bfs(
    const Graph& g, const std::vector<NodeId>& sources,
    std::vector<std::uint32_t>* owner_out = nullptr,
    ThreadPool* pool = nullptr);

/// Adds `source` to the node set whose hop distances `dist` holds (e.g. a
/// multi_source_bfs result; all kInfDist for the empty set): lowers each
/// dist[v] to d(source, v) where that is smaller, expanding only nodes that
/// strictly improve.  Exact, since every node on a shortest path from
/// `source` to an improved node is itself improved.
void relax_from(const Graph& g, NodeId source, std::vector<Dist>& dist);

/// Farthest-first (Gonzalez) extension of `centers`, whose distances
/// `dist` holds, up to `k` distinct centers: each step appends the
/// lowest-id node at the largest distance (kInfDist counts as largest, so
/// unreached components come first) and relax_from()s it.  One full sweep
/// to seed `dist`, then only the regions each new center brings closer.
void extend_farthest_first(const Graph& g, NodeId k,
                           std::vector<NodeId>& centers,
                           std::vector<Dist>& dist);

/// Level-synchronous parallel BFS: the growth engine grown from `source`
/// alone until its frontier empties.  Returns the same distances as
/// bfs_distances; also reports the number of levels (rounds) executed via
/// `levels_out` when non-null — eccentricity + 1, counting the final level
/// that finds nothing new; this is the Θ(Δ)-round cost the paper's BFS
/// baseline pays in the distributed setting.  `options` controls the
/// per-level push/pull direction choice; `counts_out` (when non-null)
/// receives the per-direction level split.
[[nodiscard]] std::vector<Dist> parallel_bfs(
    ThreadPool& pool, const Graph& g, NodeId source,
    std::size_t* levels_out = nullptr,
    const GrowthOptions& options = default_growth_options(),
    DirectionCounts* counts_out = nullptr);

/// Result of one BFS used for eccentricity-style queries.
struct BfsExtremum {
  NodeId farthest_node = kInvalidNode;
  Dist eccentricity = 0;       // max finite distance from the source
  std::size_t reached = 0;     // number of reachable nodes (incl. source)
};

/// Runs a parallel BFS from `source` and summarizes the farthest reachable
/// node.  `pool` defaults to the process-global pool; ties on the maximum
/// distance resolve to the smallest node id, matching the sequential
/// reference.
///
/// Not reentrant: because this dispatches on a ThreadPool (and pools
/// reject nested run_on_workers), do not call it from inside a parallel
/// region of the same pool — callers parallelizing an eccentricity sweep
/// must either pass a dedicated pool per thread or use the sequential
/// bfs_distances instead.
[[nodiscard]] BfsExtremum bfs_extremum(const Graph& g, NodeId source,
                                       ThreadPool* pool = nullptr);

}  // namespace gclus
