#include "mr_algos/mr_mpx.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mapreduce/superstep.hpp"

namespace gclus::mr_algos {

StatusOr<MrMpxResult> mr_mpx(mr::Engine& engine, const Graph& g,
                             double beta, std::uint64_t seed) {
  GCLUS_CHECK(beta > 0.0, "MPX needs beta > 0");
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);

  // Shift draws — identical to baselines/mpx.cpp.
  std::vector<double> delta(n);
  double delta_max = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    delta[v] = keyed_exponential(seed, v, beta);
    delta_max = std::max(delta_max, delta[v]);
  }
  const auto max_step = static_cast<std::size_t>(delta_max) + 1;
  std::vector<std::vector<NodeId>> starts(max_step + 1);
  std::vector<std::uint32_t> frac_priority(n);
  for (NodeId v = 0; v < n; ++v) {
    const double start = delta_max - delta[v];
    starts[static_cast<std::size_t>(start)].push_back(v);
    frac_priority[v] = static_cast<std::uint32_t>(
        (start - std::floor(start)) * 4294967295.0);
  }
  for (auto& bucket : starts) std::sort(bucket.begin(), bucket.end());

  // Sharded-at-the-reducers state (cf. mr_cluster.cpp).
  std::vector<std::uint8_t> covered(n, 0);
  std::vector<ClusterId> claim(n, kNoCluster);
  std::vector<Dist> dist(n, kInfDist);
  std::vector<NodeId> centers;
  std::vector<std::uint32_t> activation;
  std::vector<std::uint32_t> cluster_priority;
  NodeId covered_count = 0;

  std::vector<NodeId> frontier;
  MrMpxResult result;
  const std::size_t growth_charge = mr::rounds_per_superstep(
      engine.config().local_memory_pairs, g.num_half_edges());

  std::size_t t = 0;
  std::size_t steps = 0;
  while (covered_count < n) {
    if (t < starts.size()) {
      for (const NodeId v : starts[t]) {
        if (covered[v]) continue;
        const auto cid = static_cast<ClusterId>(centers.size());
        centers.push_back(v);
        activation.push_back(static_cast<std::uint32_t>(steps));
        cluster_priority.push_back(frac_priority[v]);
        covered[v] = 1;
        claim[v] = cid;
        dist[v] = 0;
        ++covered_count;
        frontier.push_back(v);
      }
    } else if (frontier.empty()) {
      // Disconnected-graph safety valve, as in the baseline.
      for (NodeId v = 0; v < n; ++v) {
        if (!covered[v]) {
          const auto cid = static_cast<ClusterId>(centers.size());
          centers.push_back(v);
          activation.push_back(static_cast<std::uint32_t>(steps));
          cluster_priority.push_back(0);
          covered[v] = 1;
          claim[v] = cid;
          dist[v] = 0;
          ++covered_count;
        }
      }
      break;
    }

    // A quiet clock tick (no frontier) advances time without a shuffle —
    // GrowthState::step() no-ops the same way, keeping the activation
    // bookkeeping of the two implementations aligned.
    if (frontier.empty()) {
      ++t;
      continue;
    }

    // One claim shuffle: key = (frac priority << 32) | cluster id, min
    // wins — byte-identical to GrowthState's key order.
    ++steps;
    const auto step_index = static_cast<std::uint32_t>(steps);
    ++result.clock_rounds;
    engine.mutable_metrics().rounds += growth_charge - 1;

    std::vector<std::pair<NodeId, std::uint64_t>> claims;
    for (const NodeId u : frontier) {
      const ClusterId cu = claim[u];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(cluster_priority[cu]) << 32) | cu;
      for (const NodeId w : g.neighbors(u)) claims.emplace_back(w, key);
    }
    // Combiner: the packed (priority << 32 | id) key makes "smallest bid
    // wins" a plain min-fold, exactly what the reducer computes.
    const auto newly =
        engine.round<NodeId, std::uint64_t, NodeId, std::uint64_t>(
            std::move(claims),
            [&](const NodeId& w, std::span<std::uint64_t> bids,
                mr::Emitter<NodeId, std::uint64_t>& emit) {
              if (covered[w]) return;
              const std::uint64_t win =
                  *std::min_element(bids.begin(), bids.end());
              const auto cid = static_cast<ClusterId>(win & 0xffffffffULL);
              covered[w] = 1;
              claim[w] = cid;
              dist[w] = static_cast<Dist>(step_index - activation[cid]);
              emit.emit(w, win);
            },
            [](const std::uint64_t& a, const std::uint64_t& b) {
              return std::min(a, b);
            });
    GCLUS_RETURN_IF_ERROR(newly.status());
    frontier.clear();
    for (const auto& [w, key] : *newly) frontier.push_back(w);
    covered_count += static_cast<NodeId>(newly->size());
    ++t;
  }

  Clustering& c = result.clustering;
  c.assignment = std::move(claim);
  c.dist_to_center = std::move(dist);
  c.centers = std::move(centers);
  c.growth_steps = steps;
  c.iterations = t;
  finalize_cluster_stats(c);
  return result;
}

}  // namespace gclus::mr_algos
