// HADI — the MapReduce implementation of ANF (Kang et al., TKDD'11; the
// paper's second diameter baseline).
//
// Every node keeps K Flajolet–Martin registers approximating |ball(v, t)|.
// Round t ORs each node's registers with all neighbors' registers, so
// after t rounds the sketch covers the t-hop neighborhood.  The global
// neighborhood function N(t) = Σ_v est(v, t) grows until t reaches the
// diameter; HADI stops when the relative growth drops below a threshold
// and reports the last round with significant growth.
//
// Cost profile (the point of Table 4): Θ(Δ) rounds AND Θ(m·K) shuffled
// sketch words in EVERY round — per-round communication linear in the
// graph, which is what makes HADI orders of magnitude slower than the
// decomposition approach on large-diameter graphs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "mapreduce/engine.hpp"

namespace gclus::mr_algos {

inline constexpr std::size_t kHadiRegisters = 8;

/// One node's FM sketch: K registers of 32 bits.
using HadiSketch = std::array<std::uint32_t, kHadiRegisters>;

struct HadiOptions {
  std::uint64_t seed = 1;

  /// Stop when N(t) < N(t-1) · (1 + epsilon).
  double epsilon = 1e-4;

  /// Hard round cap (safety valve; 0 = 4·n).
  std::size_t max_rounds = 0;
};

struct HadiResult {
  /// Estimated diameter: the last round with significant growth.
  std::uint64_t estimate = 0;

  /// Rounds executed (≈ Δ + 1; the dominating cost).
  std::size_t rounds = 0;

  /// Estimated neighborhood function N(t), t = 0..rounds.
  std::vector<double> neighborhood_function;

  /// FM estimate of n from the final sketches (sanity metric).
  double estimated_reachable = 0.0;
};

/// Runs HADI on the connected graph `g` over `engine`; a failed round's
/// Status is returned.
[[nodiscard]] StatusOr<HadiResult> mr_hadi(mr::Engine& engine,
                                           const Graph& g,
                                           const HadiOptions& options = {});

/// FM point estimate from one sketch (exposed for tests).
[[nodiscard]] double hadi_estimate(const HadiSketch& sketch);

/// Initial sketch of node `v`: one geometric bit per register.
[[nodiscard]] HadiSketch hadi_init_sketch(NodeId v, std::uint64_t seed);

}  // namespace gclus::mr_algos
