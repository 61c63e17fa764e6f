// MPX (Miller–Peng–Xu random shifts) expressed as MR rounds.
//
// Structure mirrors mr_cluster: one shuffle per unit of the shift clock,
// frontier nodes bidding for uncovered neighbors with the key
// (fractional-shift priority << 32 | cluster id) — the identical
// tie-breaking the shared-memory baselines/mpx.cpp uses, so the two
// implementations produce the same partition for the same seed (tested).
//
// The round profile is MPX's weakness on large-diameter graphs: the
// clock must run until the LAST cluster finishes growing, and because
// activation times are staggered by the exponential shifts, early
// clusters grow large radii before late ones wake up — Θ(max radius +
// max shift) rounds in total.
#pragma once

#include <cstdint>

#include "core/clustering.hpp"
#include "graph/graph.hpp"
#include "mapreduce/engine.hpp"

namespace gclus::mr_algos {

struct MrMpxResult {
  Clustering clustering;
  std::size_t clock_rounds = 0;  // shuffles executed (time steps)
};

/// Runs MPX with rate `beta` in MR rounds on `engine`; a failed round's
/// Status is returned.
[[nodiscard]] StatusOr<MrMpxResult> mr_mpx(mr::Engine& engine,
                                           const Graph& g, double beta,
                                           std::uint64_t seed = 1);

}  // namespace gclus::mr_algos
