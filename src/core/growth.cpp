#include "core/growth.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/compressed.hpp"
#include "par/parallel_for.hpp"

namespace gclus {

template <class G>
GrowthStateT<G>::GrowthStateT(const G& g, ThreadPool& pool,
                              GrowthOptions options, Workspace* workspace)
    : g_(&g),
      pool_(&pool),
      options_(options),
      workspace_(workspace),
      uncovered_degree_sum_(g.num_half_edges()) {
  const NodeId n = g.num_nodes();
  if (workspace_ != nullptr) {
    b_ = workspace_->acquire_growth(n, pool.num_threads());
  } else {
    owned_ = std::make_unique<GrowthScratch>();
    owned_->ensure(n, pool.num_threads());
    b_ = owned_.get();
  }
  // Reset every per-node slot: the scratch may carry a previous run's
  // state (that is the point of reuse).  One fused parallel sweep — the
  // writes stream into warm pages when the scratch is recycled.
  parallel_for(pool, 0, n, [&](std::size_t v) {
    b_->claim[v].store(kUnclaimed, std::memory_order_relaxed);
    b_->covered[v] = 0;
    b_->dist[v] = kInfDist;
    b_->uncovered_candidates[v] = static_cast<NodeId>(v);
  });
  b_->frontier.clear();
  for (auto& p : b_->next_frontier) p.clear();
}

template <class G>
GrowthStateT<G>::GrowthStateT(const G& g, const RunContext& ctx)
    : GrowthStateT(g, ctx.pool_or_global(), ctx.growth, ctx.workspace) {}

template <class G>
GrowthStateT<G>::~GrowthStateT() {
  if (workspace_ != nullptr && b_ != nullptr) workspace_->release_growth(b_);
}

template <class G>
ClusterId GrowthStateT<G>::add_center(NodeId v, std::uint64_t priority) {
  GCLUS_CHECK(v < g_->num_nodes());
  GCLUS_CHECK(b_->covered[v] == 0, "center ", v, " already covered");
  const auto cid = static_cast<ClusterId>(centers_.size());
  GCLUS_CHECK(centers_.size() < (1ULL << 32), "cluster id overflow");
  const std::uint64_t prio =
      priority == kPriorityFromClusterId ? cid : priority;
  GCLUS_CHECK(prio < (1ULL << 32), "priority must fit in 32 bits");
  const std::uint64_t key = make_key(cid, prio);
  b_->claim[v].store(key, std::memory_order_relaxed);
  min_key_ = std::min(min_key_, key);
  b_->covered[v] = 1;
  b_->dist[v] = 0;
  centers_.push_back(v);
  activation_.push_back(static_cast<std::uint32_t>(steps_executed_));
  b_->frontier.push_back(v);
  frontier_degree_sum_ += g_->degree(v);
  uncovered_degree_sum_ -= g_->degree(v);
  ++covered_count_;
  return cid;
}

template <class G>
bool GrowthStateT<G>::decide_pull() {
  pulling_ = decide_direction(pulling_, b_->frontier.size(), g_->num_nodes(),
                              frontier_degree_sum_, uncovered_degree_sum_,
                              options_);
  return pulling_;
}

template <class G>
NodeId GrowthStateT<G>::step() {
  if (b_->frontier.empty()) return 0;
  ++steps_executed_;
  const auto step_index = static_cast<std::uint32_t>(steps_executed_);

  const bool pull = decide_pull();
  GrowthStepLog log;
  if (options_.record_step_log) {
    log.step = step_index;
    log.pull = pull;
    log.frontier_size = static_cast<NodeId>(b_->frontier.size());
    log.frontier_degree_sum = frontier_degree_sum_;
    log.uncovered_degree_sum = uncovered_degree_sum_;
  }

  for (auto& nf : b_->next_frontier) nf.clear();
  if (pull) {
    claim_pull();
  } else {
    claim_push();
  }
  const NodeId newly = install_next_frontier(step_index);

  if (options_.record_step_log) {
    log.newly_covered = newly;
    stats_.steps.push_back(log);
  }
  if (pull) {
    ++stats_.pull_steps;
  } else {
    ++stats_.push_steps;
  }
  covered_count_ += newly;
  return newly;
}

namespace {

/// Runs one claim pass over items [0, total): `claim_range(lo, hi, out)`
/// handles a chunk, appends the nodes it claims to `out` (the worker's
/// next-frontier buffer) and returns the edges it scanned.  Workers drain
/// a shared cursor; a pass too light to amortize a pool dispatch runs on
/// the caller alone.  Returns the edges scanned.
template <class ClaimRange>
std::uint64_t run_claim_pass(ThreadPool& pool,
                             std::vector<std::vector<NodeId>>& next,
                             std::size_t total, std::size_t grain,
                             bool inline_pass, const ClaimRange& claim_range) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> edges_scanned{0};
  const auto scan = [&](std::size_t worker) {
    std::uint64_t scanned = 0;
    for (;;) {
      const std::size_t lo = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= total) break;
      scanned += claim_range(lo, std::min(lo + grain, total), next[worker]);
    }
    edges_scanned.fetch_add(scanned, std::memory_order_relaxed);
  };
  if (inline_pass) {
    scan(0);
  } else {
    pool.run_on_workers(scan);
  }
  return edges_scanned.load();
}

}  // namespace

template <class G>
void GrowthStateT<G>::claim_push() {
  // Every frontier node bids for its uncovered neighbors with its cluster's
  // claim key; fetch-min keeps the best bid.  The bid that finds a node
  // unclaimed is the only one to see that value, so its thread alone
  // appends the node to the next frontier.
  const std::vector<NodeId>& frontier = b_->frontier;
  const auto claim_range = [&](std::size_t lo, std::size_t hi,
                               std::vector<NodeId>& out) {
    const auto claim_for = [&](NodeId u) {
      const std::uint64_t key = b_->claim[u].load(std::memory_order_relaxed);
      return [&, key](NodeId v) {
        if (b_->covered[v] != 0) return;
        if (atomic_fetch_min(b_->claim[v], key) == kUnclaimed) {
          out.push_back(v);
        }
      };
    };
    std::uint64_t scanned = 0;
    // Frontier vertices are scanned in adjacent pairs so the compressed
    // representation can interleave the two independent decode chains
    // (visit_neighbors2); for plain CSR the pair visit compiles to two
    // plain loops.  Claims are commutative fetch-mins, so the visit order
    // across the pair is immaterial.
    std::size_t i = lo;
    for (; i + 1 < hi; i += 2) {
      const NodeId u0 = frontier[i];
      const NodeId u1 = frontier[i + 1];
      scanned += g_->degree(u0) + g_->degree(u1);
      visit_neighbors2(*g_, u0, u1, claim_for(u0), claim_for(u1));
    }
    if (i < hi) {
      const NodeId u = frontier[i];
      scanned += g_->degree(u);
      const auto claim = claim_for(u);
      for (const NodeId v : g_->neighbors(u)) claim(v);
    }
    return scanned;
  };
  stats_.push_edges_scanned += run_claim_pass(
      *pool_, b_->next_frontier, frontier.size(), /*grain=*/64,
      frontier_degree_sum_ <= kSerialPushCutoff, claim_range);
}

template <class G>
void GrowthStateT<G>::claim_pull() {
  maybe_compact_candidates();

  // Every uncovered node takes the minimum claim key over its covered
  // neighbors, which between steps are exactly its frontier neighbors (see
  // the header), so this minimum equals the push-side fetch-min.  Coverage
  // flips only in the flag pass after this pass's barrier, so a node
  // claimed here is never mistaken for a frontier node in the same step.
  const std::vector<NodeId>& candidates = b_->uncovered_candidates;
  const std::uint64_t min_key = min_key_;
  const auto claim_range = [&](std::size_t lo, std::size_t hi,
                               std::vector<NodeId>& out) {
    std::uint64_t scanned = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = candidates[i];
      if (b_->covered[v] != 0) continue;
      std::uint64_t best = kUnclaimed;
      for (const NodeId u : g_->neighbors(v)) {
        ++scanned;
        if (b_->covered[u] == 0) continue;
        best = std::min(best, b_->claim[u].load(std::memory_order_relaxed));
        if (best == min_key) break;
      }
      if (best == kUnclaimed) continue;
      b_->claim[v].store(best, std::memory_order_relaxed);
      out.push_back(v);
    }
    return scanned;
  };
  stats_.pull_edges_scanned += run_claim_pass(
      *pool_, b_->next_frontier, candidates.size(), /*grain=*/256,
      uncovered_degree_sum_ + candidates.size() <= 4 * kSerialPushCutoff,
      claim_range);
}

template <class G>
NodeId GrowthStateT<G>::install_next_frontier(std::uint32_t step_index) {
  // Claims are final behind the claim pass's barrier: each new frontier
  // node is covered once, at the distance its winning cluster has grown
  // since activation.
  parallel_concat(*pool_, b_->next_frontier, b_->frontier);
  frontier_degree_sum_ = parallel_sum<std::uint64_t>(
      *pool_, 0, b_->frontier.size(), [&](std::size_t i) -> std::uint64_t {
        const NodeId v = b_->frontier[i];
        const ClusterId c =
            key_cluster(b_->claim[v].load(std::memory_order_relaxed));
        b_->covered[v] = 1;
        b_->dist[v] = static_cast<Dist>(step_index - activation_[c]);
        return g_->degree(v);
      });
  uncovered_degree_sum_ -= frontier_degree_sum_;
  return static_cast<NodeId>(b_->frontier.size());
}

template <class G>
void GrowthStateT<G>::maybe_compact_candidates() {
  if (!worklist_needs_compaction(b_->uncovered_candidates.size(),
                                 uncovered_count())) {
    return;
  }
  parallel_compact(*pool_, b_->uncovered_candidates,
                   [&](NodeId v) { return b_->covered[v] == 0; });
}

template <class G>
const std::vector<NodeId>& GrowthStateT<G>::uncovered_candidates() {
  maybe_compact_candidates();
  return b_->uncovered_candidates;
}

template <class G>
NodeId GrowthStateT<G>::first_uncovered() {
  for (const NodeId v : b_->uncovered_candidates) {
    if (b_->covered[v] == 0) return v;
  }
  return kInvalidNode;
}

template <class G>
NodeId GrowthStateT<G>::grow_steps(std::size_t steps) {
  NodeId total = 0;
  for (std::size_t s = 0; s < steps && !b_->frontier.empty(); ++s) {
    total += step();
  }
  return total;
}

template <class G>
NodeId GrowthStateT<G>::grow_until_covered(NodeId target_new) {
  NodeId total = 0;
  while (total < target_new && !b_->frontier.empty()) {
    total += step();
  }
  return total;
}

template <class G>
void GrowthStateT<G>::add_singletons_for_uncovered() {
  // The candidate list is an ascending superset of the uncovered set, so
  // singleton cluster ids are assigned in node order, exactly as a full
  // range scan would.
  for (const NodeId v : uncovered_candidates()) {
    if (b_->covered[v] == 0) add_center(v);
  }
}

template <class G>
std::vector<Dist> GrowthStateT<G>::take_distances(
    std::vector<ClusterId>* cluster_out) && {
  static_assert(key_cluster(kUnclaimed) == kNoCluster,
                "an unclaimed node must decode to no cluster");
  if (cluster_out != nullptr) {
    cluster_out->resize(g_->num_nodes());
    parallel_for(*pool_, 0, g_->num_nodes(), [&](std::size_t v) {
      (*cluster_out)[v] =
          key_cluster(b_->claim[v].load(std::memory_order_relaxed));
    });
  }
  // Moving the distance buffer out is right even for workspace-backed
  // runs: the result needs fresh n-sized storage either way, so a copy
  // would pay the same allocation *plus* the copy, while the workspace
  // re-grows this one buffer on the next acquire at exactly the cost the
  // copy destination would have paid here.
  return std::move(b_->dist);
}

template <class G>
Clustering GrowthStateT<G>::finish() && {
  GCLUS_CHECK(covered_count_ == g_->num_nodes(),
              "finish() requires full coverage; uncovered nodes remain");
  Clustering out;
  out.centers = std::move(centers_);
  out.growth_steps = steps_executed_;
  out.push_steps = stats_.push_steps;
  out.pull_steps = stats_.pull_steps;
  out.dist_to_center = std::move(*this).take_distances(&out.assignment);
  finalize_cluster_stats(out);
  return out;
}

template <class G2>
std::vector<NodeId> sample_uncovered_centers(GrowthStateT<G2>& state,
                                             ThreadPool& pool,
                                             std::uint64_t seed,
                                             std::uint64_t draw_key,
                                             double p) {
  const auto& candidates = state.uncovered_candidates();
  // Per-worker buffers come from the engine's scratch so a warm workspace
  // also serves the selection sweeps.  All buffers are cleared (not just
  // the first num_threads) because parallel_concat reads every one.
  std::vector<std::vector<NodeId>>& per_worker = state.b_->sample;
  if (per_worker.size() < pool.num_threads()) {
    per_worker.resize(pool.num_threads());
  }
  for (auto& out : per_worker) out.clear();
  std::atomic<std::size_t> cursor{0};
  pool.run_on_workers([&](std::size_t worker) {
    auto& out = per_worker[worker];
    constexpr std::size_t kGrain = 2048;
    for (;;) {
      const std::size_t lo = cursor.fetch_add(kGrain, std::memory_order_relaxed);
      if (lo >= candidates.size()) break;
      const std::size_t hi = std::min(lo + kGrain, candidates.size());
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId v = candidates[i];
        if (state.is_covered(v)) continue;
        if (keyed_bernoulli(seed, draw_key, v, p)) out.push_back(v);
      }
    }
  });
  std::vector<NodeId> selected;
  parallel_concat(pool, per_worker, selected);
  std::sort(selected.begin(), selected.end());
  return selected;
}

template class GrowthStateT<Graph>;
template class GrowthStateT<CompressedGraph>;

template std::vector<NodeId> sample_uncovered_centers<Graph>(
    GrowthStateT<Graph>&, ThreadPool&, std::uint64_t, std::uint64_t, double);
template std::vector<NodeId> sample_uncovered_centers<CompressedGraph>(
    GrowthStateT<CompressedGraph>&, ThreadPool&, std::uint64_t, std::uint64_t,
    double);

}  // namespace gclus
