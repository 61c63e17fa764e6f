// Breadth-first search kernels: sequential, level-synchronous parallel,
// and multi-source variants.  These are both building blocks (cluster
// growth is multi-source BFS at heart) and the exact-answer reference the
// tests and the BFS diameter baseline rely on.
//
// The parallel kernel is direction-optimizing: sparse levels expand
// top-down (frontier nodes CAS their unvisited neighbors), dense levels
// bottom-up (unvisited nodes scan for a parent in the current level and
// stop at the first hit); GrowthOptions tunes or pins the per-level
// choice.
#pragma once

#include <vector>

#include "common/traversal.hpp"
#include "common/types.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

class Workspace;

/// Hop distances from `source`; kInfDist for unreachable nodes.
[[nodiscard]] std::vector<Dist> bfs_distances(const Graph& g, NodeId source);

/// Hop distance to the nearest of `sources` (kInfDist if unreachable).
/// When `owner_out` is non-null it receives, per node, the index into
/// `sources` of the source that claimed it (UINT32_MAX if unreachable;
/// duplicate sources resolve to the first index) — the Voronoi partition
/// the k-center evaluation and the registry's center-set adapters build
/// on.  Claims propagate along BFS tree edges, so every claimed non-source
/// node has a same-owner neighbor one hop closer.
[[nodiscard]] std::vector<Dist> multi_source_bfs(
    const Graph& g, const std::vector<NodeId>& sources,
    std::vector<std::uint32_t>* owner_out = nullptr);

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

/// Level-synchronous parallel BFS.  Returns the same distances as
/// bfs_distances; also reports the number of levels (rounds) executed via
/// `levels_out` when non-null — this is the Θ(Δ)-round cost the paper's
/// BFS baseline pays in the distributed setting.  `options` controls the
/// per-level push/pull direction choice; `counts_out` (when non-null)
/// receives the per-direction level split.  A non-null `workspace` lends
/// its BFS scratch (atomic distance array, worklists) for the duration of
/// the call instead of allocating per run — the win repeated traversals of
/// the same graph care about (eccentricity sweeps, serving loops).
[[nodiscard]] std::vector<Dist> parallel_bfs(
    ThreadPool& pool, const Graph& g, NodeId source,
    std::size_t* levels_out = nullptr,
    const GrowthOptions& options = default_growth_options(),
    DirectionCounts* counts_out = nullptr, Workspace* workspace = nullptr);

/// Parallel BFS over a compressed graph, same contract as above.  Both
/// level directions visit neighbors through commutative updates (push CAS,
/// pull first-hit-in-level), so the decoded adjacency order is immaterial
/// and the distances match the plain-CSR kernel exactly.
[[nodiscard]] std::vector<Dist> parallel_bfs(
    ThreadPool& pool, const CompressedGraph& g, NodeId source,
    std::size_t* levels_out = nullptr,
    const GrowthOptions& options = default_growth_options(),
    DirectionCounts* counts_out = nullptr, Workspace* workspace = nullptr);

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
                                       ThreadPool* pool = nullptr,
                                       Workspace* workspace = nullptr);

}  // namespace gclus
