#include "graph/bfs.hpp"

#include <atomic>

#include "api/workspace.hpp"
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
  // Cluster ids double as claim priorities, so the engine's fetch-min
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

namespace {

/// The level-synchronous kernel, generic over the graph representation
/// (plain CSR or CompressedGraph) — both claim directions are neighbor-
/// order independent, so a compressed decode order yields identical
/// distances.  The public overloads below pin the instantiations.
template <class G>
std::vector<Dist> parallel_bfs_impl(ThreadPool& pool, const G& g,
                                    NodeId source, std::size_t* levels_out,
                                    const GrowthOptions& options,
                                    DirectionCounts* counts_out,
                                    Workspace* workspace) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(source < n);
  const std::size_t workers = pool.num_threads();
  // Scratch: borrowed from the workspace when one is supplied (the
  // repeated-traversal case), otherwise stack-owned for this call.
  BfsScratch local;
  BfsScratch* b;
  if (workspace != nullptr) {
    b = workspace->acquire_bfs(n, workers);
  } else {
    local.ensure(n, workers);
    b = &local;
  }
  // Distances double as the visited set; claims race benignly because all
  // writers of a node in one level write the same value — but push uses a
  // CAS so each node enters the next frontier exactly once, and pull
  // writes are owner-only.
  std::vector<std::atomic<Dist>>& dist = b->dist;
  parallel_for(pool, 0, n, [&](std::size_t i) {
    dist[i].store(kInfDist, std::memory_order_relaxed);
  });
  dist[source].store(0, std::memory_order_relaxed);

  std::vector<NodeId>& frontier = b->frontier;
  frontier.clear();
  frontier.push_back(source);
  // Ascending superset of the unvisited nodes, compacted lazily; pull
  // levels iterate this instead of the full node range.  Built on the
  // first pull level so push-only traversals (pinned mode, or sparse
  // frontiers under kAuto — eccentricity sweeps over road-like graphs
  // run thousands of these) never pay the O(n) initialization.
  std::vector<NodeId>& candidates = b->candidates;
  candidates.clear();

  std::uint64_t frontier_deg = g.degree(source);
  std::uint64_t unvisited_deg = g.num_half_edges() - g.degree(source);
  NodeId visited = 1;
  bool pulling = false;

  std::size_t levels = 0;
  DirectionCounts counts;
  std::vector<std::vector<NodeId>>& local_next = b->local_next;
  for (auto& buf : local_next) buf.clear();

  while (!frontier.empty()) {
    ++levels;
    const Dist cur_level = static_cast<Dist>(levels - 1);
    const Dist next_level = static_cast<Dist>(levels);

    pulling = decide_direction(pulling, frontier.size(), n, frontier_deg,
                               unvisited_deg, options);
    if (pulling) {
      ++counts.pull;
    } else {
      ++counts.push;
    }

    for (auto& buf : local_next) buf.clear();
    std::uint64_t next_deg = 0;

    // Bottom-up: each unvisited node looks for any neighbor in the
    // current level and stops at the first hit.  Testing dist == the
    // exact level excludes nodes visited concurrently this level, so no
    // deferred commit is needed.
    const auto pull_range = [&](std::size_t lo, std::size_t hi,
                                std::vector<NodeId>& out) {
      std::uint64_t deg = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId v = candidates[i];
        if (dist[v].load(std::memory_order_relaxed) != kInfDist) continue;
        for (const NodeId u : g.neighbors(v)) {
          if (dist[u].load(std::memory_order_relaxed) != cur_level) continue;
          dist[v].store(next_level, std::memory_order_relaxed);
          out.push_back(v);
          deg += g.degree(v);
          break;
        }
      }
      return deg;
    };
    // Top-down: frontier nodes CAS their unvisited neighbors into the
    // next level; the CAS admits each node exactly once.
    const auto push_range = [&](std::size_t lo, std::size_t hi,
                                std::vector<NodeId>& out) {
      std::uint64_t deg = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        for (const NodeId v : g.neighbors(frontier[i])) {
          Dist expected = kInfDist;
          if (dist[v].compare_exchange_strong(expected, next_level,
                                              std::memory_order_relaxed)) {
            out.push_back(v);
            deg += g.degree(v);
          }
        }
      }
      return deg;
    };
    // Runs a level body either inline (too little work to amortize a pool
    // dispatch — matters for eccentricity sweeps over small graphs) or
    // across the workers via the guided-self-scheduling cursor.
    const auto run_level = [&](std::size_t total, std::size_t grain,
                               bool inline_serial, const auto& range_body) {
      if (inline_serial) {
        next_deg = range_body(0, total, local_next[0]);
        return;
      }
      std::atomic<std::uint64_t> deg_sum{0};
      std::atomic<std::size_t> cursor{0};
      pool.run_on_workers([&](std::size_t worker) {
        std::uint64_t local_deg = 0;
        for (;;) {
          const std::size_t lo =
              cursor.fetch_add(grain, std::memory_order_relaxed);
          if (lo >= total) break;
          const std::size_t hi = std::min(lo + grain, total);
          local_deg += range_body(lo, hi, local_next[worker]);
        }
        deg_sum.fetch_add(local_deg, std::memory_order_relaxed);
      });
      next_deg = deg_sum.load();
    };

    if (pulling) {
      if (candidates.empty() && visited < n) {
        candidates.resize(n);
        parallel_for(pool, 0, n, [&](std::size_t i) {
          candidates[i] = static_cast<NodeId>(i);
        });
      }
      // Drop visited entries once more than half the candidates are stale.
      if (worklist_needs_compaction(candidates.size(),
                                    static_cast<std::size_t>(n - visited))) {
        parallel_compact(pool, candidates, [&](NodeId v) {
          return dist[v].load(std::memory_order_relaxed) == kInfDist;
        });
      }
      run_level(candidates.size(), /*grain=*/256,
                pool.num_threads() == 1 ||
                    unvisited_deg + candidates.size() <= 4 * kSerialPushCutoff,
                pull_range);
    } else {
      run_level(frontier.size(), /*grain=*/64,
                pool.num_threads() == 1 || frontier_deg <= kSerialPushCutoff,
                push_range);
    }

    parallel_concat(pool, local_next, frontier);
    frontier_deg = next_deg;
    unvisited_deg -= next_deg;
    visited += static_cast<NodeId>(frontier.size());
  }
  if (levels_out != nullptr) *levels_out = levels;
  if (counts_out != nullptr) *counts_out = counts;

  std::vector<Dist> result(n);
  parallel_for(pool, 0, n, [&](std::size_t i) {
    result[i] = dist[i].load(std::memory_order_relaxed);
  });
  if (workspace != nullptr) workspace->release_bfs(b);
  return result;
}

}  // namespace

std::vector<Dist> parallel_bfs(ThreadPool& pool, const Graph& g, NodeId source,
                               std::size_t* levels_out,
                               const GrowthOptions& options,
                               DirectionCounts* counts_out,
                               Workspace* workspace) {
  return parallel_bfs_impl(pool, g, source, levels_out, options, counts_out,
                           workspace);
}

std::vector<Dist> parallel_bfs(ThreadPool& pool, const CompressedGraph& g,
                               NodeId source, std::size_t* levels_out,
                               const GrowthOptions& options,
                               DirectionCounts* counts_out,
                               Workspace* workspace) {
  return parallel_bfs_impl(pool, g, source, levels_out, options, counts_out,
                           workspace);
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
