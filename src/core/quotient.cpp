#include "core/quotient.hpp"

#include <algorithm>
#include <atomic>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "graph/builder.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

namespace {

/// Minimal crossing weight per unordered cluster pair, keyed by packed
/// (min,max) cluster ids.
using PairWeights = std::unordered_map<std::uint64_t, Weight>;

void keep_min(PairWeights& best, std::uint64_t key, Weight w) {
  // try_emplace looks up first: no node is allocated for a present key.
  const auto [it, inserted] = best.try_emplace(key, w);
  if (!inserted && w < it->second) it->second = w;
}

}  // namespace

QuotientGraph build_quotient(const Graph& g, const Clustering& clustering,
                             bool with_weights, ThreadPool* pool) {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(clustering.assignment.size() == n,
              "clustering does not match graph");
  const ClusterId k = clustering.num_clusters();

  // Each worker aggregates the crossing edges of the chunks of nodes it
  // draws into its own map; the maps are then merged with a min.
  std::vector<PairWeights> best(p.num_threads());
  std::atomic<std::size_t> cursor{0};
  p.run_on_workers([&](std::size_t worker) {
    PairWeights& mine = best[worker];
    constexpr std::size_t kGrain = 512;
    for (;;) {
      const std::size_t lo =
          cursor.fetch_add(kGrain, std::memory_order_relaxed);
      if (lo >= n) break;
      const auto hi =
          static_cast<NodeId>(std::min<std::size_t>(lo + kGrain, n));
      for (auto u = static_cast<NodeId>(lo); u < hi; ++u) {
        const ClusterId cu = clustering.assignment[u];
        for (const NodeId v : g.neighbors(u)) {
          if (u >= v) continue;  // visit each undirected edge once
          const ClusterId cv = clustering.assignment[v];
          if (cu == cv) continue;
          const std::uint64_t key =
              (static_cast<std::uint64_t>(std::min(cu, cv)) << 32) |
              std::max(cu, cv);
          const Weight w = static_cast<Weight>(clustering.dist_to_center[u]) +
                           1 + clustering.dist_to_center[v];
          keep_min(mine, key, w);
        }
      }
    }
  });
  PairWeights& merged = best[0];
  for (std::size_t i = 1; i < best.size(); ++i) {
    for (const auto& [key, w] : best[i]) keep_min(merged, key, w);
  }

  // Both builders sort, so the map's (schedule-dependent) order is lost.
  std::vector<Edge> edges;
  edges.reserve(merged.size());
  std::vector<std::tuple<NodeId, NodeId, Weight>> weighted_edges;
  if (with_weights) weighted_edges.reserve(merged.size());
  for (const auto& [key, w] : merged) {
    const auto a = static_cast<ClusterId>(key >> 32);
    const auto b = static_cast<ClusterId>(key & 0xffffffffULL);
    edges.emplace_back(a, b);
    if (with_weights) weighted_edges.emplace_back(a, b, w);
  }

  QuotientGraph out;
  GraphBuilder builder(k);
  builder.adopt_edges(std::move(edges));
  out.graph = builder.build(p);
  if (with_weights) {
    out.weighted = WeightedGraph::from_edges(k, std::move(weighted_edges));
  }
  return out;
}

}  // namespace gclus
