#include "core/growth.hpp"

#include <algorithm>
#include <cstdio>

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
    b_->committing[v].clear(std::memory_order_relaxed);
    b_->dist[v] = kInfDist;
    b_->uncovered_candidates[v] = static_cast<NodeId>(v);
  });
  // frontier_bits needs no reset: every pull step clears the bits it set,
  // so the bitmap is all-zero between steps and across runs.
  GCLUS_DCHECK(std::all_of(b_->frontier_bits.begin(), b_->frontier_bits.end(),
                           [](const std::atomic<std::uint64_t>& w) {
                             return w.load(std::memory_order_relaxed) == 0;
                           }),
               "frontier bitmap left dirty by a previous run");
  b_->frontier.clear();
  for (auto& p : b_->proposals) p.clear();
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
  b_->claim[v].store(make_key(cid, prio), std::memory_order_relaxed);
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
  if (options_.log_decisions) {
    std::fprintf(stderr,
                 "[growth] step=%u mode=%s frontier=%zu fdeg=%llu udeg=%llu\n",
                 step_index, pull ? "pull" : "push", b_->frontier.size(),
                 static_cast<unsigned long long>(frontier_degree_sum_),
                 static_cast<unsigned long long>(uncovered_degree_sum_));
  }
  GrowthStepLog log;
  if (options_.record_step_log) {
    log.step = step_index;
    log.pull = pull;
    log.frontier_size = static_cast<NodeId>(b_->frontier.size());
    log.frontier_degree_sum = frontier_degree_sum_;
    log.uncovered_degree_sum = uncovered_degree_sum_;
  }

  const NodeId newly = pull ? step_pull(step_index) : step_push(step_index);

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

template <class G>
NodeId GrowthStateT<G>::step_push(std::uint32_t step_index) {
  // Phase 1 — proposals: every frontier node bids for its uncovered
  // neighbors with its cluster's claim key; fetch-min keeps the best bid.
  for (auto& p : b_->proposals) p.clear();
  std::atomic<std::uint64_t> edges_scanned{0};
  {
    std::atomic<std::size_t> cursor{0};
    pool_->run_on_workers([&](std::size_t worker) {
      auto& out = b_->proposals[worker];
      std::uint64_t scanned = 0;
      constexpr std::size_t kGrain = 64;
      for (;;) {
        const std::size_t lo =
            cursor.fetch_add(kGrain, std::memory_order_relaxed);
        if (lo >= b_->frontier.size()) break;
        const std::size_t hi = std::min(lo + kGrain, b_->frontier.size());
        // Frontier vertices are scanned in adjacent pairs so the
        // compressed representation can interleave the two independent
        // decode chains (visit_neighbors2); for plain CSR the pair visit
        // compiles to the same two loops as before.  Claims are
        // commutative fetch-mins, so the visit order across the pair is
        // immaterial.
        const auto claim_for = [&](std::uint64_t key) {
          return [&, key](NodeId v) {
            if (b_->covered[v] != 0) return;
            if (atomic_fetch_min(b_->claim[v], key)) out.push_back(v);
          };
        };
        std::size_t i = lo;
        for (; i + 1 < hi; i += 2) {
          const NodeId u0 = b_->frontier[i];
          const NodeId u1 = b_->frontier[i + 1];
          const std::uint64_t key0 =
              b_->claim[u0].load(std::memory_order_relaxed);
          const std::uint64_t key1 =
              b_->claim[u1].load(std::memory_order_relaxed);
          scanned += g_->degree(u0) + g_->degree(u1);
          visit_neighbors2(*g_, u0, u1, claim_for(key0), claim_for(key1));
        }
        if (i < hi) {
          const NodeId u = b_->frontier[i];
          const std::uint64_t key =
              b_->claim[u].load(std::memory_order_relaxed);
          scanned += g_->degree(u);
          for (const NodeId v : g_->neighbors(u)) claim_for(key)(v);
        }
      }
      edges_scanned.fetch_add(scanned, std::memory_order_relaxed);
    });
  }
  stats_.push_edges_scanned += edges_scanned.load();

  // Phase 2 — commit: each proposed node is finalized exactly once (the
  // atomic-flag latch dedups multi-worker proposals), its distance derived
  // from the winning cluster's activation step.
  for (auto& nf : b_->next_frontier) nf.clear();
  std::atomic<NodeId> newly{0};
  std::atomic<std::uint64_t> next_degree_sum{0};
  {
    pool_->run_on_workers([&](std::size_t worker) {
      auto& in = b_->proposals[worker];
      auto& out = b_->next_frontier[worker];
      NodeId local_new = 0;
      std::uint64_t local_deg = 0;
      for (const NodeId v : in) {
        if (b_->committing[v].test_and_set(std::memory_order_relaxed)) {
          continue;
        }
        const std::uint64_t key = b_->claim[v].load(std::memory_order_relaxed);
        const ClusterId c = key_cluster(key);
        b_->covered[v] = 1;
        b_->dist[v] = static_cast<Dist>(step_index - activation_[c]);
        out.push_back(v);
        ++local_new;
        local_deg += g_->degree(v);
      }
      newly.fetch_add(local_new, std::memory_order_relaxed);
      next_degree_sum.fetch_add(local_deg, std::memory_order_relaxed);
    });
  }

  install_next_frontier(next_degree_sum.load());
  return newly.load();
}

template <class G>
NodeId GrowthStateT<G>::step_pull(std::uint32_t step_index) {
  maybe_compact_candidates();

  // The frontier bitmap lives only for this step: set here, cleared before
  // the next frontier is installed, so push steps and add_center never
  // touch it.
  parallel_for(*pool_, 0, b_->frontier.size(),
               [&](std::size_t i) { set_frontier_bit(b_->frontier[i]); });

  // Scan phase: every uncovered node takes the minimum claim key over its
  // frontier neighbors, tested against the packed frontier bitmap (stable
  // for the whole scan, behind pool barriers on both sides).  Between steps
  // every covered neighbor of an uncovered node belongs to the current
  // frontier (see the header), so this minimum equals the push-side
  // fetch-min, and same-step multi-hop claims are impossible because newly
  // claimed nodes are not in the bitmap.
  for (auto& nf : b_->next_frontier) nf.clear();
  std::atomic<NodeId> newly{0};
  std::atomic<std::uint64_t> next_degree_sum{0};
  std::atomic<std::uint64_t> edges_scanned{0};
  {
    std::atomic<std::size_t> cursor{0};
    pool_->run_on_workers([&](std::size_t worker) {
      auto& out = b_->next_frontier[worker];
      NodeId local_new = 0;
      std::uint64_t local_deg = 0;
      std::uint64_t scanned = 0;
      constexpr std::size_t kGrain = 256;
      for (;;) {
        const std::size_t lo =
            cursor.fetch_add(kGrain, std::memory_order_relaxed);
        if (lo >= b_->uncovered_candidates.size()) break;
        const std::size_t hi =
            std::min(lo + kGrain, b_->uncovered_candidates.size());
        // Uncovered candidates are scanned in pairs for the same reason
        // as the push phase: the compressed overload of visit_neighbors2
        // interleaves the two decode chains.  The min over frontier
        // claims is commutative, so pairing cannot change any result.
        const auto gather_for = [&](std::uint64_t& best) {
          return [&](NodeId u) {
            if (!in_frontier(u)) return;
            best = std::min(best,
                            b_->claim[u].load(std::memory_order_relaxed));
          };
        };
        const auto commit = [&](NodeId v, std::uint64_t best) {
          if (best == kUnclaimed) return;
          b_->claim[v].store(best, std::memory_order_relaxed);
          b_->dist[v] = static_cast<Dist>(step_index -
                                          activation_[key_cluster(best)]);
          out.push_back(v);
          ++local_new;
          local_deg += g_->degree(v);
        };
        NodeId pending = kInvalidNode;
        for (std::size_t i = lo; i < hi; ++i) {
          const NodeId v = b_->uncovered_candidates[i];
          if (b_->covered[v] != 0) continue;
          if (pending == kInvalidNode) {
            pending = v;
            continue;
          }
          scanned += g_->degree(pending) + g_->degree(v);
          std::uint64_t best0 = kUnclaimed;
          std::uint64_t best1 = kUnclaimed;
          visit_neighbors2(*g_, pending, v, gather_for(best0),
                           gather_for(best1));
          commit(pending, best0);
          commit(v, best1);
          pending = kInvalidNode;
        }
        if (pending != kInvalidNode) {
          scanned += g_->degree(pending);
          std::uint64_t best = kUnclaimed;
          for (const NodeId u : g_->neighbors(pending)) gather_for(best)(u);
          commit(pending, best);
        }
      }
      newly.fetch_add(local_new, std::memory_order_relaxed);
      next_degree_sum.fetch_add(local_deg, std::memory_order_relaxed);
      edges_scanned.fetch_add(scanned, std::memory_order_relaxed);
    });
  }
  stats_.pull_edges_scanned += edges_scanned.load();

  // Commit phase: leave the bitmap clean, then flip the coverage flags
  // behind the barrier.
  parallel_for(*pool_, 0, b_->frontier.size(),
               [&](std::size_t i) { clear_frontier_bit(b_->frontier[i]); });
  install_next_frontier(next_degree_sum.load());
  parallel_for(*pool_, 0, b_->frontier.size(),
               [&](std::size_t i) { b_->covered[b_->frontier[i]] = 1; });
  return newly.load();
}

template <class G>
void GrowthStateT<G>::install_next_frontier(std::uint64_t next_degree_sum) {
  parallel_concat(*pool_, b_->next_frontier, b_->frontier);
  frontier_degree_sum_ = next_degree_sum;
  uncovered_degree_sum_ -= next_degree_sum;
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
Clustering GrowthStateT<G>::finish() && {
  const NodeId n = g_->num_nodes();
  GCLUS_CHECK(covered_count_ == n,
              "finish() requires full coverage; uncovered nodes remain");
  Clustering out;
  out.assignment.resize(n);
  // Moving the distance buffer out is right even for workspace-backed
  // runs: the result needs fresh n-sized storage either way, so a copy
  // would pay the same allocation *plus* the copy, while the workspace
  // re-grows this one buffer on the next acquire at exactly the cost the
  // copy destination would have paid here.
  out.dist_to_center = std::move(b_->dist);
  out.centers = std::move(centers_);
  out.growth_steps = steps_executed_;
  out.push_steps = stats_.push_steps;
  out.pull_steps = stats_.pull_steps;
  parallel_for(*pool_, 0, n, [&](std::size_t v) {
    out.assignment[v] =
        key_cluster(b_->claim[v].load(std::memory_order_relaxed));
  });
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
