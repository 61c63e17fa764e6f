#include "core/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/growth.hpp"
#include "graph/compressed.hpp"
#include "par/parallel_for.hpp"

namespace gclus {

namespace {

double log2_clamped(NodeId n) {
  return std::max(1.0, std::log2(static_cast<double>(n)));
}

}  // namespace

double cluster_selection_probability(std::uint32_t tau, NodeId num_nodes,
                                     NodeId uncovered,
                                     double selection_constant) {
  GCLUS_CHECK(uncovered > 0);
  const double p = selection_constant * tau * log2_clamped(num_nodes) /
                   static_cast<double>(uncovered);
  return std::min(1.0, p);
}

namespace {

template <class G>
Clustering cluster_impl(const G& g, std::uint32_t tau,
                        const ClusterOptions& options) {
  GCLUS_CHECK(tau >= 1, "CLUSTER requires tau >= 1");
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);

  GrowthStateT<G> state(g, options);
  const double logn = log2_clamped(n);
  const double stop_threshold = options.threshold_constant * tau * logn;

  std::size_t iteration = 0;

  while (state.uncovered_count() > 0 &&
         static_cast<double>(state.uncovered_count()) >= stop_threshold) {
    const NodeId uncovered = state.uncovered_count();
    const double p = cluster_selection_probability(
        tau, n, uncovered, options.selection_constant);

    // --- Select the new batch of centers among uncovered nodes. ---
    // The draw is keyed on (seed, iteration): deterministic and
    // schedule-independent.  While the batch is small next to the
    // uncovered count it walks geometric gaps per block of ids, costing
    // O(p·n) rather than a hash per uncovered node; late, dense draws
    // sweep the uncovered worklist.  Cluster ids are assigned in node
    // order.
    const std::vector<NodeId> selected =
        sample_uncovered_centers(state, options.seed, iteration, p);
    for (const NodeId c : selected) state.add_center(c);

    // Progress guard: with no active frontier and an empty batch the grow
    // phase below would spin forever (tiny graphs, or disconnected graphs
    // where all active clusters exhausted their components).  Inject one
    // deterministic center — the smallest uncovered node.
    if (state.frontier_empty()) {
      const NodeId v = state.first_uncovered();
      if (v != kInvalidNode) state.add_center(v);
    }

    // --- Grow all clusters until half the uncovered nodes are covered. ---
    // Centers activated this iteration already count toward coverage, so
    // the remaining target accounts for them.
    const NodeId target = (uncovered + 1) / 2;
    const NodeId covered_by_selection = uncovered - state.uncovered_count();
    if (covered_by_selection < target) {
      NodeId grown = state.grow_until_covered(target - covered_by_selection);
      // If the frontier died before reaching the target (disconnected
      // graph), fall through: the outer loop re-samples centers from the
      // remaining uncovered regions.
      (void)grown;
    }
    ++iteration;
  }

  state.add_singletons_for_uncovered();
  // With a step log, price the push claims: the push steps' wall time and
  // the nodes they claimed.
  if (options.growth.record_step_log) {
    double push_ns = 0.0;
    double push_claims = 0.0;
    for (const GrowthStepLog& log : state.stats().steps) {
      if (log.pull) continue;
      push_ns += static_cast<double>(log.ns);
      push_claims += log.newly_covered;
    }
    options.emit("cluster.push_ns", push_ns);
    options.emit("cluster.push_claims", push_claims);
  }
  const std::uint64_t sample_draws = state.stats().sample_draws;
  Clustering out = std::move(state).finish();
  out.iterations = iteration;
  options.emit("cluster.iterations", static_cast<double>(out.iterations));
  options.emit("cluster.clusters", static_cast<double>(out.num_clusters()));
  options.emit("cluster.max_radius", static_cast<double>(out.max_radius()));
  options.emit("cluster.growth_steps", static_cast<double>(out.growth_steps));
  options.emit("cluster.sample_draws", static_cast<double>(sample_draws));
  return out;
}

}  // namespace

Clustering cluster(const Graph& g, std::uint32_t tau,
                   const ClusterOptions& options) {
  return cluster_impl(g, tau, options);
}

Clustering cluster(const CompressedGraph& g, std::uint32_t tau,
                   const ClusterOptions& options) {
  return cluster_impl(g, tau, options);
}

}  // namespace gclus
