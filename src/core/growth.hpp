// The synchronous cluster-growing engine.
//
// All decomposition algorithms in this library (CLUSTER, CLUSTER2, the MPX
// and random-centers baselines) and every parallel BFS (graph/bfs: the
// single-source parallel_bfs and the owner-tracking multi-source BFS)
// share the same primitive: a set of clusters, each with a frontier,
// grows one hop per step, claiming uncovered nodes; concurrent claims on
// a node are resolved by an atomic minimum over a per-cluster priority
// key.  BFS is the one-center case.  Because the minimum is commutative,
// the final partition is a pure function of (graph, centers, priorities)
// — independent of thread schedule — which is what the determinism and
// MR-equivalence tests rely on.
//
// Each node holds its cluster and its level: the step that claimed it (a
// center's is its activation step).  During step s a node counts as
// covered iff its level is below s, so a claim made in step s never reads
// as coverage within the same step: a step is a single claim pass, and
// same-step multi-hop claims are impossible.
//
// The engine is direction-optimizing.  Every step is one claim pass in
// one of two directions, with identical claim semantics:
//   * push (top-down): every frontier node bids its cluster to its
//     uncovered neighbors; a compare-and-swap loop keeps the cluster with
//     the smallest key — work proportional to the frontier's degree sum.
//     The one bid that moves a node off "unclaimed" (exactly one thread
//     observes that transition) admits it to the next frontier, so no
//     commit phase has to deduplicate;
//   * pull (bottom-up): every uncovered node scans its own neighbors for
//     covered ones and takes the minimum key locally, contention-free
//     because each node writes only itself.  The scan stops early once it
//     holds the smallest key any cluster has (for a single center this is
//     BFS's first-hit exit).
// Between steps every covered neighbor of an uncovered node is a member of
// the current frontier (it was covered in the immediately preceding step
// or activated as a center since), so the pull-side coverage test is an
// exact frontier test and the pull-side minimum equals the push-side one.
// The claimed nodes' per-worker buffers become the next frontier as they
// are, read in place by the next pass.
//
// A claim pass keeps the cache lines of the per-node words with one core.
// Each worker first drains its own slice of the pass: in a push step the
// frontier part it claimed itself one step before, in a pull step one
// range of node ids.  Only then does it take chunks from the other
// workers' slices.  So on a graph with locality (a road grid) a worker
// keeps growing the same regions, and the level/cluster lines it writes
// stay in its cache.  Claims are appended to a buffer on the worker's own
// stack, never to a vector whose header shares a line with another
// worker's.  On road_like(1400, 1400) with a pool of 3, the stack buffers
// took CLUSTER(τ=1)'s push steps from 87 to 70 ns per claimed node, and
// the slices then from 59 to 48 (medians of 15 runs, alternated in one
// process per comparison, on a noisy shared host).  Prefetching every bid
// target's level and cluster before the bids moved that by 1-3%, either
// way, at 1 and at 3 threads, so the misses are not what a claim waits on.
//
// GrowthOptions picks the direction per step with the classic degree-sum
// heuristic, or pins it for tests.  A step lighter than kSerialPushCutoff
// (common/traversal.hpp) runs inline on the caller thread: a pool dispatch
// would cost more than the edges.
//
// Per-step work is proportional to the cheaper of the two degree sums; a
// full growth to cover the graph costs O(n + m) total claims.
// Memory: each GrowthState owns its per-node and per-worker buffers, O(n)
// words in all.  The per-node arrays are allocated uninitialized and the
// constructor's parallel reset is their first touch, so a run writes them
// once, not twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/run_context.hpp"
#include "common/traversal.hpp"
#include "common/types.hpp"
#include "core/clustering.hpp"
#include "graph/graph.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

/// One per-step record of the direction decision and the degree sums that
/// drove it (the raw data behind the bench JSON's decision log).
struct GrowthStepLog {
  std::uint32_t step = 0;
  bool pull = false;
  NodeId frontier_size = 0;
  std::uint64_t frontier_degree_sum = 0;
  std::uint64_t uncovered_degree_sum = 0;
  NodeId newly_covered = 0;
  /// Wall time of the whole step (direction decision, claim pass and
  /// frontier swap) in nanoseconds: with newly_covered it prices a claim.
  std::uint64_t ns = 0;
};

struct GrowthStats {
  std::size_t push_steps = 0;
  std::size_t pull_steps = 0;
  std::vector<GrowthStepLog> steps;
  /// Uniforms the center sampler evaluated, summed over its draws.
  std::uint64_t sample_draws = 0;
};

/// The engine is generic over the graph representation `G` — plain CSR
/// (Graph) or the Rice-coded CompressedGraph — through the shared accessor
/// surface (num_nodes/num_half_edges/degree/neighbors).  Both claim
/// directions reduce neighbors with commutative minima, so the decode
/// order of a compressed (relabeled) adjacency list is immaterial and the
/// final partition is byte-identical across representations.  Members are
/// defined in growth.cpp and explicitly instantiated for Graph and
/// CompressedGraph; GrowthState below keeps every existing call site
/// unchanged.
template <class G>
class GrowthStateT {
 public:
  /// Starts with every node uncovered and no clusters.
  explicit GrowthStateT(const G& g, ThreadPool& pool,
                        GrowthOptions options = default_growth_options());

  /// Resolves pool and growth options from the context.
  GrowthStateT(const G& g, const RunContext& ctx);

  GrowthStateT(const GrowthStateT&) = delete;
  GrowthStateT& operator=(const GrowthStateT&) = delete;

  /// Registers a new singleton cluster centered at `v` (must be uncovered).
  /// `priority` resolves multi-cluster claims: smaller wins.  Defaults to
  /// the cluster id, i.e. earlier-activated clusters win ties.
  /// Returns the new cluster's id.
  ClusterId add_center(NodeId v,
                       std::uint64_t priority = kPriorityFromClusterId);

  /// One synchronous growth step over all active frontiers.
  /// Returns the number of newly covered nodes.
  NodeId step();

  /// Grows for exactly `steps` steps (stops early only if the frontier
  /// empties).  Returns nodes covered.
  NodeId grow_steps(std::size_t steps);

  /// Grows until at least `target_new` additional nodes are covered or the
  /// frontier empties.  Returns nodes covered.
  NodeId grow_until_covered(NodeId target_new);

  [[nodiscard]] NodeId covered_count() const { return covered_count_; }
  [[nodiscard]] NodeId uncovered_count() const {
    return static_cast<NodeId>(g_->num_nodes() - covered_count_);
  }
  [[nodiscard]] bool frontier_empty() const { return frontier_size_ == 0; }
  [[nodiscard]] std::size_t steps_executed() const { return steps_executed_; }
  [[nodiscard]] ClusterId num_clusters() const {
    return static_cast<ClusterId>(centers_.size());
  }
  [[nodiscard]] bool is_covered(NodeId v) const {
    return load(level_[v]) != kInfDist;
  }

  /// Per-step direction decisions and per-direction step counts.
  [[nodiscard]] const GrowthStats& stats() const { return stats_; }

  /// An ascending superset of the uncovered nodes, built on first use and
  /// compacted lazily as coverage grows — center sampling and pull steps
  /// iterate this instead of rescanning the full node range every round.
  /// Entries may be stale (already covered); callers must re-check
  /// is_covered().
  [[nodiscard]] const std::vector<NodeId>& uncovered_candidates();

  /// Smallest uncovered node, or kInvalidNode when fully covered.
  [[nodiscard]] NodeId first_uncovered();

  /// Turns every still-uncovered node into a singleton cluster.
  void add_singletons_for_uncovered();

  /// Returns the per-node hop distances to the claiming centers and, when
  /// `cluster_out` is non-null, fills it with each node's cluster id.
  /// Valid at any coverage, unlike finish(): an uncovered node reads
  /// kInfDist and kNoCluster.  The BFS kernels read their result here,
  /// since unreached components stay uncovered.
  [[nodiscard]] std::vector<Dist> take_distances(
      std::vector<ClusterId>* cluster_out) &&;

  /// Extracts the final Clustering.  All nodes must be covered.
  [[nodiscard]] Clustering finish() &&;

  static constexpr std::uint64_t kPriorityFromClusterId = ~std::uint64_t{0};

 private:
  /// Applies GrowthOptions to pick this step's direction, with hysteresis
  /// between the push->pull and pull->push thresholds.
  [[nodiscard]] bool decide_pull();

  /// Top-down claim pass: frontier nodes bid their clusters to uncovered
  /// neighbors; a node joins the next frontier on its unclaimed -> claimed
  /// transition.  Worker w starts on frontier part w, the nodes it claimed
  /// itself.  Returns the claimed nodes' degree sum.
  std::uint64_t claim_push();

  /// Bottom-up claim pass: uncovered nodes take the minimum key over their
  /// covered (== frontier) neighbors.  Returns the claimed nodes' degree
  /// sum.
  std::uint64_t claim_pull();

  /// Drops covered entries from the candidate worklist once more than half
  /// are stale; amortized O(n) over a full growth.
  void maybe_compact_candidates();

  const G* g_;
  ThreadPool* pool_;
  GrowthOptions options_;

  /// Per node, the claiming cluster and the step of the claim (see the
  /// file comment); kNoCluster / kInfDist while unclaimed, so between
  /// steps exactly the uncovered nodes read kInfDist.
  std::unique_ptr<ClusterId[]> cluster_;
  std::unique_ptr<Dist[]> level_;
  /// Ascending superset of the uncovered nodes (see
  /// uncovered_candidates()), valid once candidates_built_.
  std::vector<NodeId> uncovered_candidates_;
  /// The current frontier, split into per-worker parts (the previous claim
  /// pass's output), and the per-worker output buffers of the running
  /// pass, lent to the center sampler between steps.
  std::vector<std::vector<NodeId>> frontier_;
  std::vector<std::vector<NodeId>> next_frontier_;

  std::vector<NodeId> centers_;            // per cluster
  std::vector<std::uint32_t> activation_;  // per cluster: steps_executed_
                                           // at activation time
  std::vector<std::uint64_t> key_;         // per cluster: claim priority,
                                           // (priority << 32) | cluster id
  std::vector<std::size_t> frontier_offset_;  // prefix sums of part sizes:
                                              // the push pass's slices

  std::size_t frontier_size_ = 0;           // over all frontier parts
  std::uint64_t frontier_degree_sum_ = 0;   // over current frontier
  std::uint64_t uncovered_degree_sum_ = 0;  // over uncovered nodes
  bool pulling_ = false;                    // hysteresis state for kAuto
  bool candidates_built_ = false;

  NodeId covered_count_ = 0;
  std::size_t steps_executed_ = 0;
  GrowthStats stats_;

  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  /// Smallest claim key of any cluster so far: a pull scan that holds it
  /// cannot do better and stops.
  std::uint64_t min_key_ = kNoKey;

  [[nodiscard]] static constexpr ClusterId key_cluster(std::uint64_t key) {
    return static_cast<ClusterId>(key & 0xffffffffULL);
  }

  /// Relaxed access to the per-node words a claim pass shares between
  /// workers.
  [[nodiscard]] static std::uint32_t load(std::uint32_t& word) {
    return std::atomic_ref(word).load(std::memory_order_relaxed);
  }
  static void store(std::uint32_t& word, std::uint32_t value) {
    std::atomic_ref(word).store(value, std::memory_order_relaxed);
  }

  // The center sampler borrows the pool and the idle next-frontier buffers.
  template <class G2>
  friend std::vector<NodeId> sample_uncovered_centers(GrowthStateT<G2>& state,
                                                      std::uint64_t seed,
                                                      std::uint64_t draw_key,
                                                      double p);
};

/// The historical name: the engine over the plain CSR Graph.
using GrowthState = GrowthStateT<Graph>;

/// Samples every uncovered node independently with probability `p`
/// through CenterDraw(seed, draw_key, p, n, uncovered_count()): the
/// selected set depends only on those inputs, never on the schedule.  In
/// the gap regime the engine's pool walks the draw's blocks and drops
/// covered ids; in the sweep regime it sweeps the engine's uncovered
/// worklist.  Returns the selected nodes in ascending order, ready for
/// add_center in node order, and adds the uniforms evaluated to
/// stats().sample_draws.  Shared by CLUSTER's and CLUSTER2's batch
/// selection.
template <class G2>
[[nodiscard]] std::vector<NodeId> sample_uncovered_centers(
    GrowthStateT<G2>& state, std::uint64_t seed, std::uint64_t draw_key,
    double p);

}  // namespace gclus
