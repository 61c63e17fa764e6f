#include "mr_algos/mr_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/spanner.hpp"
#include "graph/weighted.hpp"
#include "mapreduce/superstep.hpp"

namespace gclus::mr_algos {

namespace {

double log2_clamped(NodeId n) {
  return std::max(1.0, std::log2(static_cast<double>(n)));
}

/// Mutable decomposition state shared by the rounds.  In a genuine
/// distributed run this state lives sharded at the reducers (each reducer
/// owns the nodes that hash to it); the arrays model exactly that — every
/// reducer invocation touches only the state of its own key.
struct State {
  explicit State(NodeId n)
      : covered(n, 0), claim(n, kNoCluster), dist(n, kInfDist) {}

  std::vector<std::uint8_t> covered;
  std::vector<ClusterId> claim;
  std::vector<Dist> dist;
  std::vector<NodeId> centers;
  std::vector<std::uint32_t> activation;
  NodeId covered_count = 0;
  std::size_t steps = 0;

  ClusterId add_center(NodeId v) {
    const auto cid = static_cast<ClusterId>(centers.size());
    covered[v] = 1;
    claim[v] = cid;
    dist[v] = 0;
    centers.push_back(v);
    activation.push_back(static_cast<std::uint32_t>(steps));
    ++covered_count;
    return cid;
  }
};

}  // namespace

StatusOr<MrClusterResult> mr_cluster(mr::Engine& engine, const Graph& g,
                                     std::uint32_t tau,
                                     const MrClusterOptions& options) {
  GCLUS_CHECK(tau >= 1);
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);

  State st(n);
  MrClusterResult result;
  const double logn = log2_clamped(n);
  const double stop_threshold = options.threshold_constant * tau * logn;

  // Frontier = nodes covered in the previous step (or fresh centers).
  std::vector<NodeId> frontier;

  const std::size_t growth_charge = mr::rounds_per_superstep(
      engine.config().local_memory_pairs, g.num_half_edges());

  std::size_t iteration = 0;
  while (st.covered_count < n &&
         static_cast<double>(n - st.covered_count) >= stop_threshold) {
    const NodeId uncovered = n - st.covered_count;
    const double p =
        std::min(1.0, options.selection_constant * tau * logn / uncovered);

    // --- Selection wave: one map-style round over uncovered nodes. ---
    std::vector<std::pair<NodeId, std::uint8_t>> probe;
    probe.reserve(uncovered);
    for (NodeId v = 0; v < n; ++v) {
      if (!st.covered[v]) probe.emplace_back(v, std::uint8_t{0});
    }
    const auto selected_pairs =
        engine.round<NodeId, std::uint8_t, NodeId, std::uint8_t>(
            std::move(probe),
            [&](const NodeId& v, std::span<std::uint8_t>,
                mr::Emitter<NodeId, std::uint8_t>& emit) {
              if (keyed_bernoulli(options.seed, iteration, v, p)) {
                emit.emit(v, std::uint8_t{1});
              }
            });
    GCLUS_RETURN_IF_ERROR(selected_pairs.status());
    ++result.selection_rounds;
    std::vector<NodeId> selected;
    selected.reserve(selected_pairs->size());
    for (const auto& [v, tag] : *selected_pairs) selected.push_back(v);
    std::sort(selected.begin(), selected.end());
    for (const NodeId v : selected) {
      st.add_center(v);
      frontier.push_back(v);
    }

    if (frontier.empty()) {
      // Same deterministic progress guard as the shared-memory version.
      for (NodeId v = 0; v < n; ++v) {
        if (!st.covered[v]) {
          st.add_center(v);
          frontier.push_back(v);
          break;
        }
      }
    }

    // --- Growth: one shuffle per step until half the uncovered covered. ---
    const NodeId target = (uncovered + 1) / 2;
    NodeId covered_this_iter = uncovered - (n - st.covered_count);
    while (covered_this_iter < target && !frontier.empty()) {
      ++st.steps;
      const auto step_index = static_cast<std::uint32_t>(st.steps);
      ++result.growth_rounds;
      engine.mutable_metrics().rounds += growth_charge - 1;

      std::vector<std::pair<NodeId, ClusterId>> claims;
      for (const NodeId u : frontier) {
        for (const NodeId w : g.neighbors(u)) {
          claims.emplace_back(w, st.claim[u]);
        }
      }
      // Combiner: claim ties break to the minimum cluster id, a fold the
      // reducer's min_element is invariant to.
      const auto newly = engine.round<NodeId, ClusterId, NodeId, ClusterId>(
          std::move(claims),
          [&](const NodeId& w, std::span<ClusterId> bids,
              mr::Emitter<NodeId, ClusterId>& emit) {
            if (st.covered[w]) return;
            const ClusterId win = *std::min_element(bids.begin(), bids.end());
            st.covered[w] = 1;
            st.claim[w] = win;
            st.dist[w] = static_cast<Dist>(step_index - st.activation[win]);
            emit.emit(w, win);
          },
          [](const ClusterId& a, const ClusterId& b) {
            return std::min(a, b);
          });
      GCLUS_RETURN_IF_ERROR(newly.status());

      frontier.clear();
      frontier.reserve(newly->size());
      for (const auto& [w, cid] : *newly) frontier.push_back(w);
      st.covered_count += static_cast<NodeId>(newly->size());
      covered_this_iter += static_cast<NodeId>(newly->size());
    }
    ++iteration;
  }

  for (NodeId v = 0; v < n; ++v) {
    if (!st.covered[v]) st.add_center(v);
  }

  Clustering& c = result.clustering;
  c.assignment = std::move(st.claim);
  c.dist_to_center = std::move(st.dist);
  c.centers = std::move(st.centers);
  c.growth_steps = st.steps;
  c.iterations = iteration;
  finalize_cluster_stats(c);
  return result;
}

StatusOr<MrDiameterResult> mr_cluster_diameter(
    mr::Engine& engine, const Graph& g, std::uint32_t tau,
    const MrClusterOptions& options) {
  const std::size_t rounds_before = engine.metrics().rounds;
  GCLUS_ASSIGN_OR_RETURN(const MrClusterResult decomposition,
                         mr_cluster(engine, g, tau, options));
  const Clustering& c = decomposition.clustering;
  const ClusterId k = c.num_clusters();

  // --- One shuffle reduces crossing edges to weighted quotient edges. ---
  // Key: packed (min cluster, max cluster); value: the §4 connection
  // length dist(a, ctr) + 1 + dist(b, ctr).
  std::vector<std::pair<std::uint64_t, Weight>> crossing;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const ClusterId cu = c.assignment[u];
    for (const NodeId v : g.neighbors(u)) {
      if (u >= v) continue;
      const ClusterId cv = c.assignment[v];
      if (cu == cv) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(std::min(cu, cv)) << 32) |
          std::max(cu, cv);
      crossing.emplace_back(
          key, static_cast<Weight>(c.dist_to_center[u]) + 1 +
                   c.dist_to_center[v]);
    }
  }
  // Combiner: the quotient keeps the shortest connection per cluster pair,
  // so mapper-side min-folding is exact.
  const auto reduced =
      engine.round<std::uint64_t, Weight, std::uint64_t, Weight>(
          std::move(crossing),
          [&](const std::uint64_t& key, std::span<Weight> ws,
              mr::Emitter<std::uint64_t, Weight>& emit) {
            emit.emit(key, *std::min_element(ws.begin(), ws.end()));
          },
          [](const Weight& a, const Weight& b) { return std::min(a, b); });
  GCLUS_RETURN_IF_ERROR(reduced.status());

  std::vector<std::tuple<NodeId, NodeId, Weight>> qedges;
  qedges.reserve(reduced->size());
  for (const auto& [key, w] : *reduced) {
    qedges.emplace_back(static_cast<NodeId>(key >> 32),
                        static_cast<NodeId>(key & 0xffffffffULL), w);
  }
  const EdgeId quotient_edges = qedges.size();
  WeightedGraph quotient = WeightedGraph::from_edges(k, std::move(qedges));

  MrDiameterResult out;
  // --- Theorem 4: if the quotient exceeds the reducer budget, shrink it
  // with a Baswana–Sen 3-spanner (a constant number of extra rounds; the
  // spanner only lengthens distances, so the estimate stays an upper
  // bound, at most 3x looser).
  if (options.max_quotient_edges > 0 &&
      quotient_edges > options.max_quotient_edges) {
    SpannerOptions sopts;
    sopts.k = 2;
    sopts.seed = derive_seed(options.seed, kSeedTagMrSpanner);
    SpannerResult sp = baswana_sen_spanner(quotient, sopts);
    quotient = std::move(sp.spanner);
    out.sparsified = true;
    out.sparsified_edges = sp.kept_edges;
    engine.mutable_metrics().rounds += 2;  // the [4] clustering rounds
  }

  // --- Final round: the whole quotient lands on one reducer, which
  // solves the weighted diameter locally (Theorem 4's small-|E_C| case).
  Weight quotient_diameter = 0;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> gather;
  gather.reserve(reduced->size());
  for (const auto& [key, w] : *reduced) gather.emplace_back(0, key);
  const auto solved =
      engine.round<std::uint8_t, std::uint64_t, std::uint8_t, std::uint8_t>(
          std::move(gather),
          [&](const std::uint8_t&, std::span<std::uint64_t>,
              mr::Emitter<std::uint8_t, std::uint8_t>&) {
            quotient_diameter = weighted_diameter_exact(quotient);
          });
  GCLUS_RETURN_IF_ERROR(solved.status());

  out.max_radius = c.max_radius();
  out.quotient_nodes = k;
  out.quotient_edges = quotient_edges;
  out.estimate = 2ULL * out.max_radius + quotient_diameter;
  out.total_rounds = engine.metrics().rounds - rounds_before;
  return out;
}

}  // namespace gclus::mr_algos
