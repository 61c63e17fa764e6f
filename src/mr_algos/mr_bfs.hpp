// Distributed BFS on the MR engine — the paper's first diameter baseline.
//
// Level-synchronous: each round, every frontier node messages all of its
// neighbors; a node joins the frontier the first round it is messaged.
// Costs Θ(ecc(source)) rounds but only O(m) *aggregate* communication
// (every node enters the frontier exactly once), which is why BFS beats
// HADI yet still loses to CLUSTER on large-diameter graphs (§6.2).
//
// The diameter estimate follows the paper's usage: BFS from a source u
// upper-bounds Δ by 2·ecc(u).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "mapreduce/engine.hpp"

namespace gclus::mr_algos {

struct MrBfsResult {
  std::vector<Dist> dist;
  Dist eccentricity = 0;
  std::size_t supersteps = 0;
};

/// BFS from `source` executed in MR rounds on `engine` (metrics accrue
/// into the engine's counters).  A failed round's Status is returned.
[[nodiscard]] StatusOr<MrBfsResult> mr_bfs(mr::Engine& engine,
                                           const Graph& g, NodeId source);

struct MrBfsDiameterResult {
  std::uint64_t estimate = 0;  // 2·ecc(source)
  std::size_t supersteps = 0;
};

/// The Table-4 BFS baseline: one BFS from `source`, estimate = 2·ecc.
[[nodiscard]] StatusOr<MrBfsDiameterResult> mr_bfs_diameter(
    mr::Engine& engine, const Graph& g, NodeId source = 0);

}  // namespace gclus::mr_algos
