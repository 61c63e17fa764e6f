// Weighted-graph decomposition — the extension sketched in the paper's
// §7 ("we are currently exploring ... a preliminary decomposition
// strategy that, together with the number of clusters and their weighted
// radius, also controls their hop radius").
//
// The batched-center schedule of CLUSTER carries over unchanged; only the
// growth process generalizes: all active clusters expand their *weighted*
// radius at unit rate on a shared clock, so a cluster activated at time T
// reaches node v at time T + wdist(center, v).  Concretely this is a
// multi-source Dijkstra whose sources enter with their activation time as
// the initial offset, processed in deterministic (arrival, cluster, node)
// order.  A new batch of centers is drawn — with CLUSTER's exact
// selection probabilities — every time the uncovered set halves.
//
// On unit weights the process degenerates to CLUSTER step for step, and
// the test suite asserts the partitions are identical.  Alongside the
// weighted distance, the hop count of every growth path is recorded: the
// per-cluster hop radius is what governs the parallel depth of a
// distributed implementation (each hop is one message round regardless of
// its weight).
#pragma once

#include <cstdint>

#include "api/run_context.hpp"
#include "common/types.hpp"
#include "graph/weighted.hpp"

namespace gclus {

/// Execution environment plus CLUSTER's selection constants.  The weighted
/// growth process is a serial deterministic Dijkstra, so the context's
/// pool/growth fields are currently unused here; they exist so the
/// weighted pipeline shares the uniform front door (and gains them for
/// free once the growth process is parallelized).  The per-wave center
/// draws intentionally share CLUSTER's exact (seed, iteration, node)
/// coordinates — the unit-weight equivalence guarantee depends on it.
struct WeightedClusterOptions : RunContext {
  double selection_constant = 4.0;
  double threshold_constant = 8.0;
};

struct WeightedClustering {
  std::vector<ClusterId> assignment;

  /// Weighted length of the growth path from the cluster center.
  std::vector<Weight> dist_to_center;

  /// Hop count of that same growth path.
  std::vector<Dist> hops_to_center;

  std::vector<NodeId> centers;

  /// Per-cluster maxima of the two radii.
  std::vector<Weight> weighted_radius;
  std::vector<Dist> hop_radius;

  /// Value of the shared growth clock when the last node was covered.
  Weight final_clock = 0;

  /// Center-selection waves executed.
  std::size_t iterations = 0;

  [[nodiscard]] ClusterId num_clusters() const {
    return static_cast<ClusterId>(centers.size());
  }
  [[nodiscard]] Weight max_weighted_radius() const;
  [[nodiscard]] Dist max_hop_radius() const;

  /// Validates partition + weighted claim chains (every non-center member
  /// has a same-cluster neighbor with dist + w == its dist and hops + 1).
  [[nodiscard]] bool validate(const WeightedGraph& g) const;
};

/// Runs the weighted decomposition at granularity τ.  Edge weights must
/// be >= 1 (zero-weight edges would let clusters teleport; reject them).
[[nodiscard]] WeightedClustering weighted_cluster(
    const WeightedGraph& g, std::uint32_t tau,
    const WeightedClusterOptions& options = {});

/// Diameter approximation for weighted graphs through the weighted
/// quotient: upper = 2·R_w + diam_w(quotient), lower = quotient diameter
/// lower bound analog.  Mirrors §4 with weighted radii.
struct WeightedDiameterApprox {
  Weight upper_bound = 0;
  Weight weighted_quotient_diameter = 0;
  Weight max_weighted_radius = 0;
  Dist max_hop_radius = 0;
  NodeId quotient_nodes = 0;
  EdgeId quotient_edges = 0;
};

[[nodiscard]] WeightedDiameterApprox approximate_weighted_diameter(
    const WeightedGraph& g, std::uint32_t tau,
    const WeightedClusterOptions& options = {});

}  // namespace gclus
