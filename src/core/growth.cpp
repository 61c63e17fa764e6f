#include "core/growth.hpp"

#include <algorithm>
#include <array>

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
  // Reset the per-node state: the scratch may carry a previous run's
  // (that is the point of reuse), or none at all when freshly allocated.
  parallel_for(pool, 0, n, [&](std::size_t v) {
    b_->level[v] = kInfDist;
    b_->cluster[v] = kNoCluster;
  });
  for (auto& part : b_->frontier) part.clear();
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
  GCLUS_CHECK(!is_covered(v), "center ", v, " already covered");
  const auto cid = static_cast<ClusterId>(centers_.size());
  GCLUS_CHECK(centers_.size() < kNoCluster, "cluster id overflow");
  const std::uint64_t prio =
      priority == kPriorityFromClusterId ? cid : priority;
  GCLUS_CHECK(prio < (1ULL << 32), "priority must fit in 32 bits");
  const std::uint64_t key = (prio << 32) | cid;
  b_->level[v] = static_cast<Dist>(steps_executed_);
  b_->cluster[v] = cid;
  min_key_ = std::min(min_key_, key);
  centers_.push_back(v);
  activation_.push_back(static_cast<std::uint32_t>(steps_executed_));
  key_.push_back(key);
  b_->frontier[0].push_back(v);
  ++frontier_size_;
  frontier_degree_sum_ += g_->degree(v);
  uncovered_degree_sum_ -= g_->degree(v);
  ++covered_count_;
  return cid;
}

template <class G>
bool GrowthStateT<G>::decide_pull() {
  pulling_ = decide_direction(pulling_, frontier_size_, g_->num_nodes(),
                              frontier_degree_sum_, uncovered_degree_sum_,
                              options_);
  return pulling_;
}

template <class G>
NodeId GrowthStateT<G>::step() {
  if (frontier_size_ == 0) return 0;
  ++steps_executed_;

  const bool pull = decide_pull();
  GrowthStepLog log;
  if (options_.record_step_log) {
    log.step = static_cast<std::uint32_t>(steps_executed_);
    log.pull = pull;
    log.frontier_size = static_cast<NodeId>(frontier_size_);
    log.frontier_degree_sum = frontier_degree_sum_;
    log.uncovered_degree_sum = uncovered_degree_sum_;
  }

  for (auto& part : b_->next_frontier) part.clear();
  const std::uint64_t next_degree_sum = pull ? claim_pull() : claim_push();
  // Claims are final behind the claim pass's barrier and already carry
  // this step's level, so the per-worker output buffers are the next
  // frontier as they stand.
  std::swap(b_->frontier, b_->next_frontier);
  frontier_size_ = 0;
  for (const auto& part : b_->frontier) frontier_size_ += part.size();
  frontier_degree_sum_ = next_degree_sum;
  uncovered_degree_sum_ -= next_degree_sum;
  const auto newly = static_cast<NodeId>(frontier_size_);

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
/// next-frontier buffer) and returns their degree sum.  Workers drain a
/// shared cursor; a pass too light to amortize a pool dispatch runs on the
/// caller alone.  Returns the degree sum of all claimed nodes.
template <class ClaimRange>
std::uint64_t run_claim_pass(ThreadPool& pool,
                             std::vector<std::vector<NodeId>>& next,
                             std::size_t total, std::size_t grain,
                             bool inline_pass, const ClaimRange& claim_range) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> degree_sum{0};
  const auto scan = [&](std::size_t worker) {
    std::uint64_t sum = 0;
    for (;;) {
      const std::size_t lo = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= total) break;
      sum += claim_range(lo, std::min(lo + grain, total), next[worker]);
    }
    degree_sum.fetch_add(sum, std::memory_order_relaxed);
  };
  if (inline_pass) {
    scan(0);
  } else {
    pool.run_on_workers(scan);
  }
  return degree_sum.load();
}

}  // namespace

template <class G>
std::uint64_t GrowthStateT<G>::claim_push() {
  // Every frontier node bids its cluster for its uncovered neighbors; the
  // compare-and-swap loop keeps the cluster with the smallest key.  The
  // bid that finds a node unclaimed is the only one to see that value, so
  // its thread alone stamps the node's level and appends it to the next
  // frontier.  The stamp is this step, so later (smaller) bids still land.
  const auto level = static_cast<Dist>(steps_executed_);
  Dist* const levels = b_->level.get();
  ClusterId* const clusters = b_->cluster.get();
  const std::uint64_t* const keys = key_.data();
  const auto claim_range = [&](std::size_t lo, std::size_t hi,
                               std::vector<NodeId>& out) {
    std::uint64_t degree_sum = 0;
    const auto bid_for = [&](NodeId u) {
      const ClusterId c = load(clusters[u]);
      const std::uint64_t key = keys[c];
      return [&, c, key](NodeId v) {
        if (load(levels[v]) < level) return;  // covered before this step
        ClusterId cur = load(clusters[v]);
        do {
          if (cur != kNoCluster && keys[cur] <= key) return;
        } while (!std::atomic_ref(clusters[v])
                      .compare_exchange_weak(cur, c,
                                             std::memory_order_relaxed));
        if (cur == kNoCluster) {
          store(levels[v], level);
          out.push_back(v);
          degree_sum += g_->degree(v);
        }
      };
    };
    // The frontier is the previous pass's per-worker parts, read in place
    // as one sequence: find the part holding `lo`, then walk forward.
    const std::vector<std::size_t>& offset = frontier_offset_;
    auto p = static_cast<std::size_t>(
        std::upper_bound(offset.begin(), offset.end(), lo) - offset.begin() -
        1);
    for (; lo < hi; ++p) {
      const std::vector<NodeId>& part = b_->frontier[p];
      const std::size_t end = std::min(hi, offset[p + 1]) - offset[p];
      std::size_t i = lo - offset[p];
      // Frontier vertices are scanned in adjacent pairs so the compressed
      // representation can interleave the two independent decode chains
      // (visit_neighbors2); for plain CSR the pair visit compiles to two
      // plain loops.  Bids are commutative minima, so the visit order
      // across the pair is immaterial.
      for (; i + 1 < end; i += 2) {
        visit_neighbors2(*g_, part[i], part[i + 1], bid_for(part[i]),
                         bid_for(part[i + 1]));
      }
      if (i < end) {
        const auto bid = bid_for(part[i]);
        for (const NodeId v : g_->neighbors(part[i])) bid(v);
      }
      lo = offset[p] + end;
    }
    return degree_sum;
  };
  frontier_offset_.assign(1, 0);
  for (const auto& part : b_->frontier) {
    frontier_offset_.push_back(frontier_offset_.back() + part.size());
  }
  return run_claim_pass(*pool_, b_->next_frontier, frontier_size_,
                        /*grain=*/64, frontier_degree_sum_ <= kSerialPushCutoff,
                        claim_range);
}

template <class G>
std::uint64_t GrowthStateT<G>::claim_pull() {
  // Every uncovered node takes the minimum key over its neighbors covered
  // before this step, which are exactly its frontier neighbors (see the
  // header), so this minimum equals the push-side one.  A node claimed in
  // this pass carries this step's level, so no other node mistakes it for
  // a frontier node in the same step.
  //
  // A chunk runs in two passes.  The first finds each candidate's first
  // frontier neighbor and prefetches that neighbor's cluster; the second
  // reads those clusters, which by then arrive together instead of one
  // cache miss at a time.  A cluster holding the smallest key any cluster
  // has settles the claim (for a single center: BFS's first-hit exit);
  // otherwise the second pass rescans for the minimum.
  constexpr std::size_t kGrain = 256;
  const std::vector<NodeId>& candidates = uncovered_candidates();
  const auto level = static_cast<Dist>(steps_executed_);
  const std::uint64_t min_key = min_key_;
  Dist* const levels = b_->level.get();
  ClusterId* const clusters = b_->cluster.get();
  const std::uint64_t* const keys = key_.data();
  const auto claim_range = [&](std::size_t lo, std::size_t hi,
                               std::vector<NodeId>& out) {
    std::array<NodeId, kGrain> claimant{};
    std::array<NodeId, kGrain> first_parent{};
    std::size_t found = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = candidates[i];
      if (load(levels[v]) != kInfDist) continue;
      for (const NodeId u : g_->neighbors(v)) {
        if (load(levels[u]) >= level) continue;
        __builtin_prefetch(&clusters[u]);
        claimant[found] = v;
        first_parent[found] = u;
        ++found;
        break;
      }
    }
    std::uint64_t degree_sum = 0;
    for (std::size_t h = 0; h < found; ++h) {
      const NodeId v = claimant[h];
      std::uint64_t best = keys[load(clusters[first_parent[h]])];
      if (best != min_key) {
        for (const NodeId u : g_->neighbors(v)) {
          if (load(levels[u]) >= level) continue;
          best = std::min(best, keys[load(clusters[u])]);
          if (best == min_key) break;
        }
      }
      store(clusters[v], key_cluster(best));
      store(levels[v], level);
      out.push_back(v);
      degree_sum += g_->degree(v);
    }
    return degree_sum;
  };
  return run_claim_pass(
      *pool_, b_->next_frontier, candidates.size(), kGrain,
      uncovered_degree_sum_ + candidates.size() <= 4 * kSerialPushCutoff,
      claim_range);
}

template <class G>
void GrowthStateT<G>::maybe_compact_candidates() {
  if (!worklist_needs_compaction(b_->uncovered_candidates.size(),
                                 uncovered_count())) {
    return;
  }
  parallel_compact(*pool_, b_->uncovered_candidates,
                   [&](NodeId v) { return !is_covered(v); });
}

template <class G>
const std::vector<NodeId>& GrowthStateT<G>::uncovered_candidates() {
  std::vector<NodeId>& candidates = b_->uncovered_candidates;
  if (!candidates_built_) {
    // Built on first use, so runs that never pull or sample (push-only
    // BFS over a high-diameter graph) skip the O(n) fill.
    candidates.resize(g_->num_nodes());
    parallel_for(*pool_, 0, candidates.size(), [&](std::size_t v) {
      candidates[v] = static_cast<NodeId>(v);
    });
    candidates_built_ = true;
  }
  maybe_compact_candidates();
  return candidates;
}

template <class G>
NodeId GrowthStateT<G>::first_uncovered() {
  for (const NodeId v : uncovered_candidates()) {
    if (!is_covered(v)) return v;
  }
  return kInvalidNode;
}

template <class G>
NodeId GrowthStateT<G>::grow_steps(std::size_t steps) {
  NodeId total = 0;
  for (std::size_t s = 0; s < steps && frontier_size_ != 0; ++s) {
    total += step();
  }
  return total;
}

template <class G>
NodeId GrowthStateT<G>::grow_until_covered(NodeId target_new) {
  NodeId total = 0;
  while (total < target_new && frontier_size_ != 0) {
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
    if (!is_covered(v)) add_center(v);
  }
}

template <class G>
std::vector<Dist> GrowthStateT<G>::take_distances(
    std::vector<ClusterId>* cluster_out) && {
  // A covered node's distance is the number of steps its cluster had grown
  // when it claimed the node: its level minus the cluster's activation.
  const NodeId n = g_->num_nodes();
  std::vector<Dist> dist(n);
  if (cluster_out != nullptr) cluster_out->resize(n);
  parallel_for(*pool_, 0, n, [&](std::size_t v) {
    const ClusterId c = b_->cluster[v];
    if (cluster_out != nullptr) (*cluster_out)[v] = c;
    const Dist level = b_->level[v];
    dist[v] = level == kInfDist ? kInfDist : level - activation_[c];
  });
  return dist;
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
  // Between steps the engine's next-frontier buffers are idle, so the
  // selection sweeps borrow them as per-worker output.  All buffers are
  // cleared (not just the first num_threads) because parallel_concat reads
  // every one.
  std::vector<std::vector<NodeId>>& per_worker = state.b_->next_frontier;
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
