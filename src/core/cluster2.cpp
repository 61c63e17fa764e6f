#include "core/cluster2.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/growth.hpp"
#include "graph/compressed.hpp"
#include "par/parallel_for.hpp"

namespace gclus {

namespace {

template <class G>
Cluster2Result cluster2_impl(const G& g, std::uint32_t tau,
                             const ClusterOptions& options) {
  GCLUS_CHECK(tau >= 1);
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);

  // Phase 1: learn R_ALG with a plain CLUSTER(τ) run on a derived seed.
  // The full context (pool, growth knobs) carries over.
  ClusterOptions prelim = options;
  prelim.telemetry = nullptr;  // phase 1 metrics would shadow CLUSTER2's
  prelim.seed = derive_seed(options.seed, kSeedTagCluster2Prelim);
  const Clustering pre = cluster(g, tau, prelim);

  Cluster2Result result;
  result.r_alg = pre.max_radius();
  result.prelim_growth_steps = pre.growth_steps;

  // Growth quota per iteration.  R_ALG can be 0 when the preliminary run
  // degenerates to singletons (tiny graphs); one step per iteration keeps
  // the loop meaningful there while preserving 2·R_ALG everywhere else.
  const std::size_t quota =
      std::max<std::size_t>(1, 2 * static_cast<std::size_t>(result.r_alg));

  const auto log_n = static_cast<std::size_t>(
      std::ceil(std::log2(std::max<double>(2.0, n))));

  GrowthStateT<G> state(g, options);

  std::size_t iterations = 0;
  for (std::size_t i = 1; i <= log_n && state.uncovered_count() > 0; ++i) {
    ++iterations;
    const double p = std::min(
        1.0, std::ldexp(1.0, static_cast<int>(i)) / static_cast<double>(n));

    // Sample from the engine's uncovered worklist rather than rescanning
    // all n nodes; the keyed draw makes the selected set independent of
    // the sweep order.
    const std::vector<NodeId> selected =
        sample_uncovered_centers(state, options.seed, 0x5EC0 + i, p);
    for (const NodeId c : selected) state.add_center(c);

    state.grow_steps(quota);
  }

  // p reaches 1 in the final iteration, so everything is covered unless n
  // is not a power of two and rounding left a sliver — close it out.
  state.add_singletons_for_uncovered();
  result.clustering = std::move(state).finish();
  result.clustering.iterations = iterations;
  options.emit("cluster2.r_alg", static_cast<double>(result.r_alg));
  options.emit("cluster2.prelim_growth_steps",
               static_cast<double>(result.prelim_growth_steps));
  options.emit("cluster2.clusters",
               static_cast<double>(result.clustering.num_clusters()));
  options.emit("cluster2.max_radius",
               static_cast<double>(result.clustering.max_radius()));
  return result;
}

}  // namespace

Cluster2Result cluster2(const Graph& g, std::uint32_t tau,
                        const ClusterOptions& options) {
  return cluster2_impl(g, tau, options);
}

Cluster2Result cluster2(const CompressedGraph& g, std::uint32_t tau,
                        const ClusterOptions& options) {
  return cluster2_impl(g, tau, options);
}

}  // namespace gclus
