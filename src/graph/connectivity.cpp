#include "graph/connectivity.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/subgraph.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

namespace {

// Afforest (Sutton, Ben-Nun and Barak, IPDPS 2018): a union-find whose
// forest `parent` only ever points from a node to a smaller one.  Every
// link hooks the larger of two roots under the smaller, so once all edges
// are linked each tree's root is the smallest node of its component.
// Concurrent links touch only roots, through a compare-and-swap.

NodeId load(std::vector<NodeId>& parent, NodeId v) {
  return std::atomic_ref(parent[v]).load(std::memory_order_relaxed);
}

/// Joins the trees of u and v, retrying when a concurrent link hooked
/// either root first.
void link(std::vector<NodeId>& parent, NodeId u, NodeId v) {
  NodeId a = load(parent, u);
  NodeId b = load(parent, v);
  while (a != b) {
    const NodeId high = std::max(a, b);
    const NodeId low = std::min(a, b);
    NodeId above = load(parent, high);
    if (above == low) return;
    if (above == high &&
        std::atomic_ref(parent[high])
            .compare_exchange_strong(above, low, std::memory_order_relaxed)) {
      return;
    }
    a = load(parent, load(parent, high));
    b = load(parent, low);
  }
}

/// Points every node straight at its root.  Runs between link phases, so
/// the roots hold still while the paths above them shorten.
void compress(ThreadPool& pool, std::vector<NodeId>& parent) {
  parallel_for(pool, 0, parent.size(), [&](std::size_t v) {
    NodeId p = load(parent, static_cast<NodeId>(v));
    for (NodeId up = load(parent, p); up != p; up = load(parent, p)) p = up;
    std::atomic_ref(parent[v]).store(p, std::memory_order_relaxed);
  });
}

/// Root most frequent among a fixed set of sampled nodes: whp the giant
/// component's, whose nodes then skip their remaining neighbours.
NodeId sample_frequent_root(std::vector<NodeId>& parent) {
  constexpr std::uint64_t kSamples = 1024;
  std::vector<NodeId> roots(kSamples);
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    roots[i] = parent[mix64(i) % parent.size()];
  }
  std::sort(roots.begin(), roots.end());
  NodeId best = roots[0];
  std::size_t best_run = 0;
  for (std::size_t lo = 0, hi = 0; lo < roots.size(); lo = hi) {
    while (hi < roots.size() && roots[hi] == roots[lo]) ++hi;
    if (hi - lo > best_run) {
      best_run = hi - lo;
      best = roots[lo];
    }
  }
  return best;
}

}  // namespace

Components connected_components(const Graph& g, ThreadPool* pool) {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const NodeId n = g.num_nodes();
  Components out;
  if (n == 0) return out;

  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), NodeId{0});

  // Link every node to its first two neighbours; most of a component's
  // tree forms here, from a sparse sample of its edges.
  constexpr std::size_t kNeighborRounds = 2;
  for (std::size_t r = 0; r < kNeighborRounds; ++r) {
    parallel_for(p, 0, n, [&](std::size_t u) {
      const auto nbrs = g.neighbors(static_cast<NodeId>(u));
      if (r < nbrs.size()) link(parent, static_cast<NodeId>(u), nbrs[r]);
    });
    compress(p, parent);
  }

  // Then every node outside the largest partial component links its
  // remaining neighbours.  An edge neither round linked lies inside that
  // component when both its ends skip; otherwise an end that does not
  // skip links it here.
  const NodeId giant = sample_frequent_root(parent);
  parallel_for(p, 0, n, [&](std::size_t u) {
    if (load(parent, static_cast<NodeId>(u)) == giant) return;
    const auto nbrs = g.neighbors(static_cast<NodeId>(u));
    for (std::size_t i = kNeighborRounds; i < nbrs.size(); ++i) {
      link(parent, static_cast<NodeId>(u), nbrs[i]);
    }
  });
  compress(p, parent);

  // Roots are the components' smallest nodes; numbering them in id order
  // numbers the components by smallest node.
  out.label.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] == v) out.label[v] = out.count++;
  }
  parallel_for(p, 0, n, [&](std::size_t v) {
    if (parent[v] != v) out.label[v] = out.label[parent[v]];
  });
  out.sizes.assign(out.count, 0);
  for (const NodeId c : out.label) ++out.sizes[c];
  return out;
}

ExtractedComponent largest_component(const Graph& g) {
  GCLUS_CHECK(g.num_nodes() > 0);
  const Components comps = connected_components(g);
  const NodeId best = static_cast<NodeId>(
      std::max_element(comps.sizes.begin(), comps.sizes.end()) -
      comps.sizes.begin());
  std::vector<NodeId> keep;
  keep.reserve(comps.sizes[best]);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (comps.label[v] == best) keep.push_back(v);
  }
  ExtractedComponent out;
  out.graph = induced_subgraph(g, keep);
  out.original_id = std::move(keep);
  return out;
}

}  // namespace gclus
