#include "graph/weighted.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

namespace gclus {

WeightedGraph WeightedGraph::from_edges(
    NodeId num_nodes, std::vector<std::tuple<NodeId, NodeId, Weight>> edges) {
  // Normalize to half-edges with both directions, keep min weight per pair.
  std::vector<std::tuple<NodeId, NodeId, Weight>> halves;
  halves.reserve(edges.size() * 2);
  for (const auto& [u, v, w] : edges) {
    GCLUS_CHECK(u < num_nodes && v < num_nodes);
    if (u == v) continue;
    halves.emplace_back(u, v, w);
    halves.emplace_back(v, u, w);
  }
  std::sort(halves.begin(), halves.end());
  // After sorting, the first occurrence of each (u,v) carries the minimum
  // weight; drop the rest.
  std::vector<std::tuple<NodeId, NodeId, Weight>> dedup;
  dedup.reserve(halves.size());
  for (const auto& h : halves) {
    if (!dedup.empty() && std::get<0>(dedup.back()) == std::get<0>(h) &&
        std::get<1>(dedup.back()) == std::get<1>(h)) {
      continue;
    }
    dedup.push_back(h);
  }

  WeightedGraph g;
  g.offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [u, v, w] : dedup) g.offsets_[u + 1]++;
  for (NodeId u = 0; u < num_nodes; ++u) g.offsets_[u + 1] += g.offsets_[u];
  g.adj_.resize(dedup.size());
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    g.adj_[i] = {std::get<1>(dedup[i]), std::get<2>(dedup[i])};
  }
  return g;
}

WeightedGraph WeightedGraph::from_unit_weights(const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v, Weight{1});
    }
  }
  return from_edges(g.num_nodes(), std::move(edges));
}

std::vector<Weight> dijkstra(const WeightedGraph& g, NodeId source) {
  GCLUS_CHECK(source < g.num_nodes());
  std::vector<Weight> dist(g.num_nodes(), kInfWeight);
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;  // stale entry
    for (const auto& [v, w] : g.neighbors(u)) {
      const Weight nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.emplace(nd, v);
      }
    }
  }
  return dist;
}

Weight weighted_eccentricity(const WeightedGraph& g, NodeId source) {
  const auto dist = dijkstra(g, source);
  Weight ecc = 0;
  for (const Weight d : dist) {
    if (d != kInfWeight) ecc = std::max(ecc, d);
  }
  return ecc;
}

Weight weighted_diameter_exact(const WeightedGraph& g) {
  // Takes–Kosters bounding.  lo[v] <= ecc(v) <= hi[v] for every node; the
  // best lower bound `diam` is the max over all lo.  A Dijkstra from v with
  // eccentricity e tightens each w it reaches by the triangle inequality:
  // ecc(w) >= max(e - d(v,w), d(v,w)) and ecc(w) <= e + d(v,w).  Nodes it
  // does not reach lie in another component and learn nothing.  A
  // candidate whose hi no longer exceeds `diam` cannot raise it and is
  // dropped; the source itself always drops (lo = hi = e), so the loop runs
  // at most n Dijkstras and ends with diam = max ecc exactly.
  const NodeId n = g.num_nodes();
  std::vector<Weight> lo(n, 0);
  std::vector<Weight> hi(n, kInfWeight);
  std::vector<NodeId> candidates;
  candidates.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    // An isolated node has eccentricity 0 and can never raise the diameter.
    if (!g.neighbors(v).empty()) candidates.push_back(v);
  }
  Weight diam = 0;
  bool pick_high = true;
  while (!candidates.empty()) {
    // Alternate between the largest upper bound (a likely periphery node,
    // raising lo) and the smallest lower bound (a likely central node,
    // cutting hi); ties go to the lowest id.
    NodeId source = candidates.front();
    for (const NodeId v : candidates) {
      if (pick_high ? hi[v] > hi[source] : lo[v] < lo[source]) source = v;
    }
    pick_high = !pick_high;

    const auto dist = dijkstra(g, source);
    Weight ecc = 0;
    for (const Weight d : dist) {
      if (d != kInfWeight) ecc = std::max(ecc, d);
    }
    for (const NodeId v : candidates) {
      const Weight d = dist[v];
      if (d == kInfWeight) continue;
      lo[v] = std::max({lo[v], ecc - d, d});
      hi[v] = std::min(hi[v], ecc + d);
      diam = std::max(diam, lo[v]);
    }
    std::erase_if(candidates, [&](NodeId v) { return hi[v] <= diam; });
  }
  return diam;
}

namespace {

/// Linear-scan Dijkstra writing distances directly into `dist` (length n,
/// pre-filled with kInfWeight).  See kApspSmallGraphNodes for why this
/// exists; the settled mask fits a single 64-bit word at that size.
void dijkstra_small_into(const WeightedGraph& g, NodeId source,
                         std::span<Weight> dist) {
  const NodeId n = g.num_nodes();
  std::uint64_t settled = 0;
  dist[source] = 0;
  for (NodeId round = 0; round < n; ++round) {
    NodeId u = n;
    Weight best = kInfWeight;
    for (NodeId v = 0; v < n; ++v) {
      if ((settled & (1ULL << v)) == 0 && dist[v] < best) {
        best = dist[v];
        u = v;
      }
    }
    if (u == n) break;  // only unreachable nodes left
    settled |= 1ULL << u;
    for (const auto& [v, w] : g.neighbors(u)) {
      dist[v] = std::min(dist[v], best + w);
    }
  }
}

}  // namespace

std::vector<Weight> apsp_matrix(const WeightedGraph& g, NodeId max_nodes) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n <= max_nodes,
              "apsp_matrix: quotient graph too large for dense APSP");
  std::vector<Weight> mat(static_cast<std::size_t>(n) * n, kInfWeight);
  for (NodeId v = 0; v < n; ++v) {
    const std::span<Weight> row{mat.data() + static_cast<std::size_t>(v) * n,
                                n};
    if (n <= kApspSmallGraphNodes) {
      dijkstra_small_into(g, v, row);
    } else {
      const auto dist = dijkstra(g, v);
      std::copy(dist.begin(), dist.end(), row.begin());
    }
  }
  return mat;
}

}  // namespace gclus
