#include "test_util.hpp"

#include <algorithm>
#include <deque>
#include <tuple>
#include <unordered_map>

#include "graph/builder.hpp"

namespace gclus::testutil {

Graph largest_component_of(const Graph& g) {
  return largest_component(g).graph;
}

std::vector<NamedGraph> small_connected_corpus() {
  std::vector<NamedGraph> out;
  out.push_back({"path-64", gen::path(64)});
  out.push_back({"path-257", gen::path(257)});
  out.push_back({"cycle-100", gen::cycle(100)});
  out.push_back({"grid-12x17", gen::grid(12, 17)});
  out.push_back({"grid-30x30", gen::grid(30, 30)});
  out.push_back({"torus-10x11", gen::torus(10, 11)});
  out.push_back({"binary-tree-255", gen::binary_tree(255)});
  out.push_back({"random-tree-400", gen::random_tree(400, 7)});
  out.push_back({"complete-25", gen::complete(25)});
  out.push_back({"star-80", gen::star(80)});
  out.push_back({"expander-512", gen::expander(512, 4, 11)});
  out.push_back({"ring-of-cliques-12x8", gen::ring_of_cliques(12, 8)});
  out.push_back({"expander-path", gen::expander_with_path(600, 80, 4, 13)});
  out.push_back({"pa-500", gen::preferential_attachment(500, 3, 17)});
  out.push_back(
      {"rmat-1024", largest_component_of(gen::rmat(1024, 4096, 19))});
  out.push_back({"road-like-24x24", gen::road_like(24, 24, 0.08, 0.02, 23)});
  return out;
}

NearestSource brute_force_nearest_source(const Graph& g,
                                         const std::vector<NodeId>& sources) {
  NearestSource out{std::vector<Dist>(g.num_nodes(), kInfDist),
                    std::vector<std::uint32_t>(g.num_nodes(), UINT32_MAX)};
  for (std::uint32_t i = 0; i < sources.size(); ++i) {
    const std::vector<Dist> d = bfs_distances(g, sources[i]);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      // Strictly closer only: an equal distance keeps the lower index.
      if (d[v] < out.dist[v]) {
        out.dist[v] = d[v];
        out.owner[v] = i;
      }
    }
  }
  return out;
}

Graph serial_build(NodeId num_nodes, const std::vector<Edge>& edges) {
  std::vector<Edge> halves;
  halves.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    halves.emplace_back(u, v);
    halves.emplace_back(v, u);
  }
  std::sort(halves.begin(), halves.end());
  halves.erase(std::unique(halves.begin(), halves.end()), halves.end());
  std::vector<EdgeId> offsets(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [u, v] : halves) offsets[u + 1]++;
  for (NodeId u = 0; u < num_nodes; ++u) offsets[u + 1] += offsets[u];
  std::vector<NodeId> neighbors(halves.size());
  for (std::size_t i = 0; i < halves.size(); ++i) {
    neighbors[i] = halves[i].second;
  }
  return Graph(std::move(offsets), std::move(neighbors));
}

Components serial_components(const Graph& g) {
  const NodeId n = g.num_nodes();
  Components out;
  out.label.assign(n, kInvalidNode);
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (out.label[s] != kInvalidNode) continue;
    const NodeId comp = out.count++;
    NodeId size = 0;
    stack.push_back(s);
    out.label[s] = comp;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      ++size;
      for (const NodeId v : g.neighbors(u)) {
        if (out.label[v] == kInvalidNode) {
          out.label[v] = comp;
          stack.push_back(v);
        }
      }
    }
    out.sizes.push_back(size);
  }
  return out;
}

QuotientGraph serial_quotient(const Graph& g, const Clustering& clustering,
                              bool with_weights) {
  const ClusterId k = clustering.num_clusters();
  std::unordered_map<std::uint64_t, Weight> best;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const ClusterId cu = clustering.assignment[u];
    for (const NodeId v : g.neighbors(u)) {
      if (u >= v) continue;
      const ClusterId cv = clustering.assignment[v];
      if (cu == cv) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(std::min(cu, cv)) << 32) |
          std::max(cu, cv);
      const Weight w = Weight{clustering.dist_to_center[u]} + 1 +
                       clustering.dist_to_center[v];
      const auto [it, inserted] = best.try_emplace(key, w);
      if (!inserted) it->second = std::min(it->second, w);
    }
  }
  std::vector<Edge> edges;
  std::vector<std::tuple<NodeId, NodeId, Weight>> weighted_edges;
  for (const auto& [key, w] : best) {
    const auto a = static_cast<ClusterId>(key >> 32);
    const auto b = static_cast<ClusterId>(key & 0xffffffffULL);
    edges.emplace_back(a, b);
    weighted_edges.emplace_back(a, b, w);
  }
  QuotientGraph out;
  out.graph = build_graph(k, edges);
  if (with_weights) {
    out.weighted = WeightedGraph::from_edges(k, std::move(weighted_edges));
  }
  return out;
}

Dist brute_force_kcenter_radius(const Graph& g, NodeId k) {
  const NodeId n = g.num_nodes();
  // Enumerate size-k subsets with a simple odometer.
  std::vector<NodeId> idx(k);
  for (NodeId i = 0; i < k; ++i) idx[i] = i;
  Dist best = kInfDist;
  for (;;) {
    const auto dist = multi_source_bfs(g, idx);
    Dist radius = 0;
    bool feasible = true;
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == kInfDist) {
        feasible = false;
        break;
      }
      radius = std::max(radius, dist[v]);
    }
    if (feasible) best = std::min(best, radius);
    // Advance the odometer.
    int pos = static_cast<int>(k) - 1;
    while (pos >= 0 &&
           idx[pos] == n - k + static_cast<NodeId>(pos)) {
      --pos;
    }
    if (pos < 0) break;
    ++idx[pos];
    for (NodeId j = static_cast<NodeId>(pos) + 1; j < k; ++j) {
      idx[j] = idx[j - 1] + 1;
    }
  }
  return best;
}

std::vector<ClusterId> reference_neighborhood(const server::OracleArtifact& a,
                                              ClusterId start,
                                              std::uint32_t hops) {
  const std::size_t k = a.meta.num_clusters;
  std::vector<std::uint64_t> level(k, kInfWeight);
  std::deque<ClusterId> queue{start};
  level[start] = 0;
  while (!queue.empty()) {
    const ClusterId c = queue.front();
    queue.pop_front();
    if (level[c] == hops) continue;
    for (EdgeId e = a.quotient_offsets[c]; e < a.quotient_offsets[c + 1];
         ++e) {
      const ClusterId d = a.quotient_neighbors[e];
      if (level[d] == kInfWeight) {
        level[d] = level[c] + 1;
        queue.push_back(d);
      }
    }
  }
  std::vector<ClusterId> out;
  for (ClusterId c = 0; c < k; ++c) {
    if (level[c] != kInfWeight) out.push_back(c);
  }
  return out;
}

server::QueryResult reference_answer(const server::OracleArtifact& a,
                                     const server::Query& q) {
  using server::QueryKind;
  const std::size_t n = a.cluster_of.size();
  const bool arg_in_range = q.arg < n;
  if (q.u >= n) return {StatusCode::kInvalidArgument, 0};
  switch (q.kind) {
    case QueryKind::kApproxDistance:
      if (!arg_in_range) return {StatusCode::kInvalidArgument, 0};
      return {StatusCode::kOk, oracle_formula(a, q.u, q.arg)};
    case QueryKind::kSameCluster:
      if (!arg_in_range) return {StatusCode::kInvalidArgument, 0};
      return {StatusCode::kOk,
              a.cluster_of[q.u] == a.cluster_of[q.arg] ? 1U : 0U};
    case QueryKind::kClusterNeighborhood: {
      const std::vector<ClusterId> list =
          reference_neighborhood(a, a.cluster_of[q.u], q.arg);
      std::uint64_t h = list.size();
      for (const ClusterId c : list) h = hash_combine(h, c);
      return {StatusCode::kOk, h};
    }
  }
  return {StatusCode::kInvalidArgument, 0};
}

}  // namespace gclus::testutil
