#include "baselines/mpx.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/growth.hpp"
#include "graph/compressed.hpp"

namespace gclus::baselines {

namespace {

template <class G>
Clustering mpx_impl(const G& g, double beta, const MpxOptions& options) {
  GCLUS_CHECK(beta > 0.0, "MPX needs beta > 0");
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);

  // Draw shifts; start time of u is delta_max - delta_u.
  std::vector<double> delta(n);
  double delta_max = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    delta[v] = keyed_exponential(options.seed, v, beta);
    delta_max = std::max(delta_max, delta[v]);
  }

  // Bucket nodes by integer start step; remember fractional priority.
  const auto max_step = static_cast<std::size_t>(delta_max) + 1;
  std::vector<std::vector<NodeId>> starts(max_step + 1);
  std::vector<std::uint32_t> frac_priority(n);
  for (NodeId v = 0; v < n; ++v) {
    const double start = delta_max - delta[v];
    const auto step = static_cast<std::size_t>(start);
    starts[step].push_back(v);
    // Smaller fractional part of the start time wins same-step ties.
    const double frac = start - std::floor(start);
    frac_priority[v] =
        static_cast<std::uint32_t>(frac * 4294967295.0);
  }
  // Activation order within a step must be deterministic for reproducible
  // cluster ids (node order, like CLUSTER's batches).
  for (auto& bucket : starts) std::sort(bucket.begin(), bucket.end());

  GrowthStateT<G> state(g, options);
  std::size_t t = 0;
  while (state.covered_count() < n) {
    if (t < starts.size()) {
      for (const NodeId v : starts[t]) {
        if (!state.is_covered(v)) state.add_center(v, frac_priority[v]);
      }
    } else if (state.frontier_empty()) {
      // All scheduled starts exhausted and growth stalled: only possible
      // on disconnected graphs (every component eventually schedules its
      // own starts; this is a safety valve).
      state.add_singletons_for_uncovered();
      break;
    }
    state.step();
    ++t;
  }
  Clustering out = std::move(state).finish();
  out.iterations = t;
  return out;
}

}  // namespace

Clustering mpx(const Graph& g, double beta, const MpxOptions& options) {
  return mpx_impl(g, beta, options);
}

Clustering mpx(const CompressedGraph& g, double beta,
               const MpxOptions& options) {
  return mpx_impl(g, beta, options);
}

double mpx_tune_beta(const Graph& g, ClusterId min_clusters,
                     const MpxOptions& options, int runs) {
  GCLUS_CHECK(min_clusters >= 1);
  // #clusters grows monotonically with beta (in expectation): bracket then
  // bisect.  beta is a rate, so search in log space.
  double lo = 1e-4, hi = 64.0;
  double best = hi;
  for (int i = 0; i < runs; ++i) {
    const double mid = std::sqrt(lo * hi);
    const Clustering c = mpx(g, mid, options);
    if (c.num_clusters() >= min_clusters) {
      best = mid;
      hi = mid;  // enough clusters: try smaller beta
    } else {
      lo = mid;
    }
  }
  return best;
}

}  // namespace gclus::baselines
