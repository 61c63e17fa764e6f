#include "core/growth.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "graph/compressed.hpp"
#include "par/parallel_for.hpp"

namespace gclus {

template <class G>
GrowthStateT<G>::GrowthStateT(const G& g, ThreadPool& pool,
                              GrowthOptions options)
    : g_(&g),
      pool_(&pool),
      options_(options),
      cluster_(std::make_unique_for_overwrite<ClusterId[]>(g.num_nodes())),
      level_(std::make_unique_for_overwrite<Dist[]>(g.num_nodes())),
      frontier_(pool.num_threads()),
      next_frontier_(pool.num_threads()),
      uncovered_degree_sum_(g.num_half_edges()) {
  // The per-node arrays were allocated uninitialized: this parallel reset
  // is their first touch.
  parallel_for(pool, 0, g.num_nodes(), [&](std::size_t v) {
    level_[v] = kInfDist;
    cluster_[v] = kNoCluster;
  });
}

template <class G>
GrowthStateT<G>::GrowthStateT(const G& g, const RunContext& ctx)
    : GrowthStateT(g, ctx.pool_or_global(), ctx.growth) {}

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
  level_[v] = static_cast<Dist>(steps_executed_);
  cluster_[v] = cid;
  min_key_ = std::min(min_key_, key);
  centers_.push_back(v);
  activation_.push_back(static_cast<std::uint32_t>(steps_executed_));
  key_.push_back(key);
  frontier_[0].push_back(v);
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

  const Timer timer;
  const bool pull = decide_pull();
  GrowthStepLog log;
  if (options_.record_step_log) {
    log.step = static_cast<std::uint32_t>(steps_executed_);
    log.pull = pull;
    log.frontier_size = static_cast<NodeId>(frontier_size_);
    log.frontier_degree_sum = frontier_degree_sum_;
    log.uncovered_degree_sum = uncovered_degree_sum_;
  }

  for (auto& part : next_frontier_) part.clear();
  const std::uint64_t next_degree_sum = pull ? claim_pull() : claim_push();
  // Claims are final behind the claim pass's barrier and already carry
  // this step's level, so the per-worker output buffers are the next
  // frontier as they stand.
  std::swap(frontier_, next_frontier_);
  frontier_size_ = 0;
  for (const auto& part : frontier_) frontier_size_ += part.size();
  frontier_degree_sum_ = next_degree_sum;
  uncovered_degree_sum_ -= next_degree_sum;
  const auto newly = static_cast<NodeId>(frontier_size_);

  if (options_.record_step_log) {
    log.newly_covered = newly;
    log.ns = static_cast<std::uint64_t>(timer.elapsed_ns());
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

/// Runs one claim pass over items [0, bounds.back()), which `bounds` cuts
/// into one slice per pool worker: `claim_range(slice, lo, hi, out)`
/// handles the chunk [lo, hi) of a slice, appends the nodes it claims to
/// `out` and returns their degree sum.  Each worker drains its own slice a
/// grain at a time, then helps drain the others'; a pass too light to
/// amortize a pool dispatch runs every slice on the caller.  Returns the
/// degree sum of all claimed nodes; each worker's claims are appended to
/// its buffer in `next`.  Why slices and stack buffers: see the header.
template <class ClaimRange>
std::uint64_t run_claim_pass(ThreadPool& pool,
                             std::vector<std::vector<NodeId>>& next,
                             std::span<const std::size_t> bounds,
                             std::size_t grain, bool inline_pass,
                             const ClaimRange& claim_range) {
  struct alignas(64) Cursor {
    std::atomic<std::size_t> pos;
  };
  const std::size_t slices = bounds.size() - 1;
  const auto cursor = std::make_unique<Cursor[]>(slices);
  for (std::size_t s = 0; s < slices; ++s) cursor[s].pos = bounds[s];
  std::atomic<std::uint64_t> degree_sum{0};
  const auto scan = [&](std::size_t worker) {
    std::vector<NodeId> out = std::move(next[worker]);
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < slices; ++k) {
      const std::size_t s = (worker + k) % slices;
      const std::size_t end = bounds[s + 1];
      for (;;) {
        const std::size_t lo =
            cursor[s].pos.fetch_add(grain, std::memory_order_relaxed);
        if (lo >= end) break;
        sum += claim_range(s, lo, std::min(lo + grain, end), out);
      }
    }
    next[worker] = std::move(out);
    degree_sum.fetch_add(sum, std::memory_order_relaxed);
  };
  if (inline_pass) {
    scan(0);
  } else {
    pool.run_on_workers(scan);
  }
  return degree_sum.load();
}

/// Cuts [0, total) into `parts` slices of near-equal size.
std::vector<std::size_t> even_bounds(std::size_t total, std::size_t parts) {
  std::vector<std::size_t> bounds(parts + 1);
  for (std::size_t s = 0; s <= parts; ++s) bounds[s] = s * total / parts;
  return bounds;
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
  Dist* const levels = level_.get();
  ClusterId* const clusters = cluster_.get();
  const std::uint64_t* const keys = key_.data();
  const auto claim_range = [&](std::size_t part, std::size_t lo,
                               std::size_t hi, std::vector<NodeId>& out) {
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
    // The frontier is the previous pass's per-worker parts, read in place:
    // slice `part` of the pass is frontier part `part`.
    const std::vector<NodeId>& nodes = frontier_[part];
    const std::size_t end = hi - frontier_offset_[part];
    // Frontier vertices are scanned in adjacent pairs so the compressed
    // representation can interleave the two independent decode chains
    // (visit_neighbors2); for plain CSR the pair visit compiles to two
    // plain loops.  Bids are commutative minima, so the visit order across
    // the pair is immaterial.
    std::size_t i = lo - frontier_offset_[part];
    for (; i + 1 < end; i += 2) {
      visit_neighbors2(*g_, nodes[i], nodes[i + 1], bid_for(nodes[i]),
                       bid_for(nodes[i + 1]));
    }
    if (i < end) {
      const auto bid = bid_for(nodes[i]);
      for (const NodeId v : g_->neighbors(nodes[i])) bid(v);
    }
    return degree_sum;
  };
  frontier_offset_.assign(1, 0);
  for (const auto& part : frontier_) {
    frontier_offset_.push_back(frontier_offset_.back() + part.size());
  }
  return run_claim_pass(*pool_, next_frontier_, frontier_offset_,
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
  Dist* const levels = level_.get();
  ClusterId* const clusters = cluster_.get();
  const std::uint64_t* const keys = key_.data();
  const auto claim_range = [&](std::size_t /*slice*/, std::size_t lo,
                               std::size_t hi, std::vector<NodeId>& out) {
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
      *pool_, next_frontier_,
      even_bounds(candidates.size(), pool_->num_threads()), kGrain,
      uncovered_degree_sum_ + candidates.size() <= 4 * kSerialPushCutoff,
      claim_range);
}

template <class G>
void GrowthStateT<G>::maybe_compact_candidates() {
  if (!worklist_needs_compaction(uncovered_candidates_.size(),
                                 uncovered_count())) {
    return;
  }
  parallel_compact(*pool_, uncovered_candidates_,
                   [&](NodeId v) { return !is_covered(v); });
}

template <class G>
const std::vector<NodeId>& GrowthStateT<G>::uncovered_candidates() {
  std::vector<NodeId>& candidates = uncovered_candidates_;
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
    const ClusterId c = cluster_[v];
    if (cluster_out != nullptr) (*cluster_out)[v] = c;
    const Dist level = level_[v];
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
                                             std::uint64_t seed,
                                             std::uint64_t draw_key,
                                             double p) {
  ThreadPool& pool = *state.pool_;
  const CenterDraw draw(seed, draw_key, p, state.g_->num_nodes(),
                        state.uncovered_count());
  // Between steps the engine's next-frontier buffers are idle, so the
  // selection borrows them as per-worker output.
  std::vector<std::vector<NodeId>>& per_worker = state.next_frontier_;
  for (auto& out : per_worker) out.clear();
  std::atomic<std::size_t> cursor{0};
  if (draw.gaps()) {
    // Workers claim whole blocks; a block's ids come out ascending.
    const std::uint64_t blocks = draw.num_blocks();
    std::atomic<std::uint64_t> draws{0};
    pool.run_on_workers([&](std::size_t worker) {
      auto& out = per_worker[worker];
      std::uint64_t local = 0;
      for (;;) {
        const std::size_t b = cursor.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks) break;
        local += draw.for_each_in_block(b, [&](std::uint64_t v) {
          const auto id = static_cast<NodeId>(v);
          if (!state.is_covered(id)) out.push_back(id);
        });
      }
      draws.fetch_add(local, std::memory_order_relaxed);
    });
    state.stats_.sample_draws += draws.load(std::memory_order_relaxed);
  } else {
    const auto& candidates = state.uncovered_candidates();
    pool.run_on_workers([&](std::size_t worker) {
      auto& out = per_worker[worker];
      constexpr std::size_t kGrain = 2048;
      for (;;) {
        const std::size_t lo =
            cursor.fetch_add(kGrain, std::memory_order_relaxed);
        if (lo >= candidates.size()) break;
        const std::size_t hi = std::min(lo + kGrain, candidates.size());
        for (std::size_t i = lo; i < hi; ++i) {
          const NodeId v = candidates[i];
          if (state.is_covered(v)) continue;
          if (draw.selects(v)) out.push_back(v);
        }
      }
    });
    // One uniform per uncovered node.
    state.stats_.sample_draws += state.uncovered_count();
  }
  std::vector<NodeId> selected;
  parallel_concat(pool, per_worker, selected);
  std::sort(selected.begin(), selected.end());
  return selected;
}

template class GrowthStateT<Graph>;
template class GrowthStateT<CompressedGraph>;

template std::vector<NodeId> sample_uncovered_centers<Graph>(
    GrowthStateT<Graph>&, std::uint64_t, std::uint64_t, double);
template std::vector<NodeId> sample_uncovered_centers<CompressedGraph>(
    GrowthStateT<CompressedGraph>&, std::uint64_t, std::uint64_t, double);

}  // namespace gclus
