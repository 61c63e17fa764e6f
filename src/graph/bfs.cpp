#include "graph/bfs.hpp"

#include "common/check.hpp"
#include "core/growth.hpp"
#include "par/parallel_for.hpp"

namespace gclus {

std::vector<Dist> bfs_distances(const Graph& g, NodeId source) {
  std::vector<Dist> dist(g.num_nodes(), kInfDist);
  relax_from(g, source, dist);
  return dist;
}

std::vector<Dist> multi_source_bfs(const Graph& g,
                                   const std::vector<NodeId>& sources,
                                   std::vector<std::uint32_t>* owner_out,
                                   ThreadPool* pool) {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  GrowthState state(g, p);
  // Cluster c grows from the c-th distinct source; a later duplicate is
  // skipped, so source_of[c] is the index of that source's first listing.
  // Cluster ids double as claim priorities, so the engine's claim minimum
  // hands every node the lowest-index source among its nearest.
  std::vector<std::uint32_t> source_of;
  source_of.reserve(sources.size());
  for (std::uint32_t i = 0; i < sources.size(); ++i) {
    GCLUS_CHECK(sources[i] < g.num_nodes(), "BFS source out of range");
    if (state.is_covered(sources[i])) continue;
    state.add_center(sources[i]);
    source_of.push_back(i);
  }
  while (!state.frontier_empty()) state.step();
  std::vector<Dist> dist = std::move(state).take_distances(owner_out);
  if (owner_out != nullptr && source_of.size() < sources.size()) {
    parallel_for(p, 0, owner_out->size(), [&](std::size_t v) {
      std::uint32_t& o = (*owner_out)[v];
      if (o != kNoCluster) o = source_of[o];
    });
  }
  return dist;
}

void relax_from(const Graph& g, NodeId source, std::vector<Dist>& dist) {
  GCLUS_CHECK(source < g.num_nodes() && dist.size() == g.num_nodes());
  if (dist[source] == 0) return;
  dist[source] = 0;
  std::vector<NodeId> frontier{source};
  std::vector<NodeId> next;
  for (Dist level = 1; !frontier.empty(); ++level) {
    next.clear();
    for (const NodeId u : frontier) {
      for (const NodeId v : g.neighbors(u)) {
        if (level < dist[v]) {
          dist[v] = level;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
}

void extend_farthest_first(const Graph& g, NodeId k,
                           std::vector<NodeId>& centers,
                           std::vector<Dist>& dist) {
  GCLUS_CHECK(k <= g.num_nodes() && dist.size() == g.num_nodes());
  while (centers.size() < k) {
    NodeId best = kInvalidNode;
    Dist best_d = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] > best_d) {
        best_d = dist[v];
        best = v;
      }
    }
    // Only centers sit at distance 0, so fewer than k <= n distinct
    // centers always leave a farthest node.
    GCLUS_CHECK(best != kInvalidNode, "centers are not distinct");
    centers.push_back(best);
    relax_from(g, best, dist);
  }
}

std::vector<Dist> parallel_bfs(ThreadPool& pool, const Graph& g, NodeId source,
                               std::size_t* levels_out,
                               const GrowthOptions& options,
                               DirectionCounts* counts_out,
                               Workspace* workspace) {
  GCLUS_CHECK(source < g.num_nodes(), "BFS source out of range");
  GrowthState state(g, pool, options, workspace);
  state.add_center(source);
  while (!state.frontier_empty()) state.step();
  // The last step claims nothing: it is the level that finds the traversal
  // done, so the level count is the eccentricity + 1.
  if (levels_out != nullptr) *levels_out = state.steps_executed();
  if (counts_out != nullptr) {
    *counts_out = {state.stats().push_steps, state.stats().pull_steps};
  }
  return std::move(state).take_distances(nullptr);
}

BfsExtremum bfs_extremum(const Graph& g, NodeId source, ThreadPool* pool,
                         Workspace* workspace) {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const auto dist = parallel_bfs(p, g, source, nullptr,
                                 default_growth_options(), nullptr, workspace);
  BfsExtremum out;
  out.farthest_node = source;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] == kInfDist) continue;
    ++out.reached;
    if (dist[v] > out.eccentricity) {
      out.eccentricity = dist[v];
      out.farthest_node = v;
    }
  }
  return out;
}

}  // namespace gclus
