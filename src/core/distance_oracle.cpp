#include "core/distance_oracle.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/cluster.hpp"
#include "core/cluster2.hpp"

namespace gclus {

namespace {

/// τ actually used for an n-node build when `tau` may be the 0 sentinel.
std::uint32_t resolve_oracle_tau(NodeId n, std::uint32_t tau) {
  if (tau != 0) return tau;
  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  return static_cast<std::uint32_t>(
      std::max(1.0, std::sqrt(static_cast<double>(n)) / (logn * logn)));
}

}  // namespace

Clustering oracle_clustering(const Graph& g,
                             const DistanceOracleOptions& options,
                             std::uint32_t* resolved_tau) {
  GCLUS_CHECK(g.num_nodes() >= 1);
  const std::uint32_t tau = resolve_oracle_tau(g.num_nodes(), options.tau);

  ClusterOptions copts;
  copts.context() = options.context();
  copts.seed = derive_seed(options.seed, kSeedTagOracleBuild);
  Clustering c = options.use_cluster2 ? cluster2(g, tau, copts).clustering
                                      : cluster(g, tau, copts);
  options.emit("oracle.tau", static_cast<double>(tau));
  if (resolved_tau != nullptr) *resolved_tau = tau;
  return c;
}

}  // namespace gclus
