#include "core/kcenter.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/quotient.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"

namespace gclus {

namespace {

/// Partitions the spanning forest of `q` into at most `max_parts`
/// connected parts and returns a part id per quotient node.  Components of
/// `q` always start their own part; the remaining budget is spent cutting
/// subtrees of at least ceil(W / max_parts) nodes.
std::vector<std::uint32_t> partition_forest(const Graph& q,
                                            std::uint32_t max_parts) {
  const NodeId w = q.num_nodes();
  std::vector<std::uint32_t> part(w, UINT32_MAX);
  if (w == 0) return part;

  // Build a BFS spanning forest: parent pointers + children lists.
  std::vector<NodeId> parent(w, kInvalidNode);
  std::vector<std::vector<NodeId>> children(w);
  std::vector<NodeId> order;  // BFS order, per tree
  order.reserve(w);
  std::vector<NodeId> roots;
  {
    std::vector<char> visited(w, 0);
    std::vector<NodeId> queue;
    for (NodeId r = 0; r < w; ++r) {
      if (visited[r]) continue;
      roots.push_back(r);
      visited[r] = 1;
      queue.clear();
      queue.push_back(r);
      for (std::size_t qi = 0; qi < queue.size(); ++qi) {
        const NodeId u = queue[qi];
        order.push_back(u);
        for (const NodeId v : q.neighbors(u)) {
          if (!visited[v]) {
            visited[v] = 1;
            parent[v] = u;
            children[u].push_back(v);
            queue.push_back(v);
          }
        }
      }
    }
  }

  const auto h = static_cast<std::uint32_t>(roots.size());
  GCLUS_CHECK(max_parts >= h, "need at least one part per component");
  std::uint32_t cut_budget = max_parts - h;
  const NodeId threshold =
      std::max<NodeId>(1, (w + max_parts - 1) / max_parts);

  // Post-order accumulation (reverse BFS order visits children first):
  // when a subtree gathers >= threshold uncut nodes and budget remains,
  // cut it into a fresh part.
  std::vector<NodeId> pending(w, 0);  // uncut nodes in the subtree
  std::uint32_t next_part = 0;
  std::vector<std::uint32_t> cut_part(w, UINT32_MAX);  // part id at cut node
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId u = *it;
    NodeId acc = 1;
    for (const NodeId c : children[u]) acc += pending[c];
    if (parent[u] != kInvalidNode && cut_budget > 0 && acc >= threshold) {
      cut_part[u] = next_part++;
      --cut_budget;
      pending[u] = 0;
    } else {
      pending[u] = acc;
    }
  }
  // Every root owns whatever was not cut below it.
  for (const NodeId r : roots) cut_part[r] = next_part++;

  // Downward sweep: nodes inherit the nearest cut ancestor's part.
  for (const NodeId u : order) {
    part[u] = cut_part[u] != UINT32_MAX ? cut_part[u] : part[parent[u]];
  }
  return part;
}

}  // namespace

std::pair<Dist, std::vector<std::uint32_t>> evaluate_centers(
    const Graph& g, const std::vector<NodeId>& centers, ThreadPool* pool) {
  GCLUS_CHECK(!centers.empty());
  std::vector<std::uint32_t> owner;
  const std::vector<Dist> dist = multi_source_bfs(g, centers, &owner, pool);
  Dist radius = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    GCLUS_CHECK(dist[v] != kInfDist,
                "center set does not dominate all components");
    radius = std::max(radius, dist[v]);
  }
  return {radius, std::move(owner)};
}

KCenterResult kcenter_approx(const Graph& g, NodeId k,
                             const KCenterOptions& options) {
  return kcenter_approx(g, k, connected_components(g, options.pool), options);
}

KCenterResult kcenter_approx(const Graph& g, NodeId k, const Components& comps,
                             const KCenterOptions& options) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(k >= 1 && k <= n);
  GCLUS_CHECK(k >= comps.count,
              "k-center needs k >= number of connected components");

  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  const auto tau_from_k = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(options.tau_scale * k / (logn * logn))));
  const std::uint32_t tau = std::max<std::uint32_t>(tau_from_k, comps.count);

  ClusterOptions copts;
  copts.context() = options.context();
  const Clustering clustering = cluster(g, tau, copts);

  KCenterResult result;
  result.raw_clusters = clustering.num_clusters();
  result.tau = tau;

  std::vector<NodeId> centers;
  if (clustering.num_clusters() <= k) {
    centers.assign(clustering.centers.begin(), clustering.centers.end());
  } else {
    // Merge clusters along the quotient spanning forest (Theorem 2).
    const QuotientGraph q =
        build_quotient(g, clustering, /*with_weights=*/false, options.pool);
    const std::vector<std::uint32_t> part = partition_forest(q.graph, k);
    std::uint32_t num_parts = 0;
    for (const auto p : part) num_parts = std::max(num_parts, p + 1);
    // One center per part: the center of its lowest-id member cluster.
    std::vector<NodeId> part_center(num_parts, kInvalidNode);
    for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
      auto& slot = part_center[part[c]];
      if (slot == kInvalidNode) slot = clustering.centers[c];
    }
    for (const NodeId pc : part_center) {
      GCLUS_CHECK(pc != kInvalidNode);
      centers.push_back(pc);
    }
  }

  // Pad to exactly k centers, farthest-first: strictly no worse than the
  // paper's arbitrary padding.  One full sweep from the centers so far,
  // then a pruned relaxation per added center keeps `dist` exact.
  result.padded = k - static_cast<NodeId>(centers.size());
  std::vector<Dist> dist;
  if (result.padded > 0) {
    dist = multi_source_bfs(g, centers, nullptr, options.pool);
    extend_farthest_first(g, k, centers, dist);
  }
  GCLUS_CHECK(centers.size() == k);

  // The final evaluation defines nearest_center's tie-breaking.
  auto [radius, owner] = evaluate_centers(g, centers, options.pool);
  GCLUS_DCHECK(dist.empty() ||
                   radius == *std::max_element(dist.begin(), dist.end()),
               "padding distances diverged from the evaluated radius");
  result.centers = std::move(centers);
  result.radius = radius;
  result.nearest_center = std::move(owner);
  return result;
}

}  // namespace gclus
