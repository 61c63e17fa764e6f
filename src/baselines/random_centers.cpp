#include "baselines/random_centers.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/growth.hpp"
#include "graph/compressed.hpp"

namespace gclus::baselines {

namespace {

template <class G>
Clustering random_centers_impl(const G& g, NodeId k,
                               const RandomCentersOptions& options) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(k >= 1 && k <= n);

  // Sample k distinct nodes (Floyd's algorithm would also do; with k << n
  // rejection is cheap and deterministic given the seed).
  Rng rng(options.seed);
  std::vector<NodeId> centers;
  {
    std::vector<char> used(n, 0);
    while (centers.size() < k) {
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (!used[v]) {
        used[v] = 1;
        centers.push_back(v);
      }
    }
  }
  std::sort(centers.begin(), centers.end());

  GrowthStateT<G> state(g, options);
  for (const NodeId c : centers) state.add_center(c);
  while (state.covered_count() < n) {
    if (state.frontier_empty()) {
      // A component with no sampled center: cover it with a fallback.
      state.add_center(state.first_uncovered());
    }
    state.step();
  }
  return std::move(state).finish();
}

}  // namespace

Clustering random_centers_clustering(const Graph& g, NodeId k,
                                     const RandomCentersOptions& options) {
  return random_centers_impl(g, k, options);
}

Clustering random_centers_clustering(const CompressedGraph& g, NodeId k,
                                     const RandomCentersOptions& options) {
  return random_centers_impl(g, k, options);
}

}  // namespace gclus::baselines
