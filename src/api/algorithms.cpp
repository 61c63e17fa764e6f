// Built-in registrations for the algorithm registry.
//
// Every adapter follows the same recipe: copy the caller's RunContext into
// the algorithm's native options struct (options *are* RunContexts, so
// this is one slice assignment — same seed, pool, growth knobs,
// telemetry), read declared parameters out of the AlgoParams bag, and call
// the existing entry point.  No randomness is re-derived here: a registry
// run is byte-identical to the corresponding direct call with the same
// context.
//
// Center-set algorithms (gonzalez, kcenter) are registered through a
// shared owner-propagating multi-source BFS that turns their center sets
// into full Clusterings (the nearest-center Voronoi partition), so the
// registry's uniform return type covers them too.
#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "api/registry.hpp"
#include "baselines/gonzalez.hpp"
#include "baselines/mpx.hpp"
#include "baselines/random_centers.hpp"
#include "common/check.hpp"
#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/distance_oracle.hpp"
#include "core/kcenter.hpp"
#include "core/weighted_cluster.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/weighted.hpp"
#include "mapreduce/engine.hpp"
#include "mr_algos/mr_bfs.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "mr_algos/mr_mpx.hpp"

namespace gclus {
namespace {

using Type = ParamSpec::Type;

const ParamSpec kTauSpec{"tau", Type::kU32, "8",
                         "decomposition granularity (Theorem 1's τ)",
                         /*positive=*/true};
const ParamSpec kBetaSpec{
    "beta", Type::kDouble, "0.5",
    "exponential-shift rate; larger β → more, smaller clusters",
    /*positive=*/true};
const ParamSpec kSelectionSpec{
    "selection_constant", Type::kDouble, "4",
    "constant of the selection probability 4·τ·log n / |uncovered|"};
const ParamSpec kThresholdSpec{"threshold_constant", Type::kDouble, "8",
                               "constant of the loop threshold 8·τ·log n"};

/// Reads k with a guard: a center-count parameter is meaningless above n,
/// so it is clamped (small test corpus graphs run fine with the default).
NodeId read_k(NodeId num_nodes, const AlgoParams& params, NodeId fallback) {
  const NodeId k = params.get_u32("k", fallback);
  return std::max<NodeId>(1, std::min<NodeId>(k, num_nodes));
}

/// A k-center solution needs a center in every connected component, so a
/// k below the component count is rejected here rather than at the core
/// functions' CHECKs (kcenter_approx, gonzalez_kcenter).
Status check_k_covers_components(const Graph& g, NodeId k) {
  const NodeId components = connected_components(g).count;
  if (k >= components) return OkStatus();
  return InvalidArgumentError(
      "parameter k: " + std::to_string(k) + " centers cannot cover " +
      std::to_string(components) + " connected components");
}

/// Nearest-center Voronoi partition of `centers`, via the owner-tracking
/// multi-source BFS (graph/bfs) over the context's pool.  Claims propagate
/// along BFS tree edges, so every member has a same-cluster neighbor one
/// hop closer and Clustering::validate holds.
Clustering clustering_from_centers(const Graph& g,
                                   const std::vector<NodeId>& centers,
                                   const RunContext& ctx) {
  GCLUS_CHECK(!centers.empty());
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> owner;
  std::vector<Dist> dist = multi_source_bfs(g, centers, &owner, ctx.pool);

  Clustering out;
  out.centers = centers;
  out.assignment.assign(owner.begin(), owner.end());
  out.dist_to_center = std::move(dist);
  Dist radius = 0;
  for (NodeId v = 0; v < n; ++v) {
    GCLUS_CHECK(out.assignment[v] != kNoCluster,
                "center set does not reach every component");
    radius = std::max(radius, out.dist_to_center[v]);
  }
  for (ClusterId c = 0; c < centers.size(); ++c) {
    GCLUS_CHECK(out.assignment[centers[c]] == c, "duplicate center node ",
                centers[c]);
  }
  out.growth_steps = radius;
  finalize_cluster_stats(out);
  return out;
}

// --- Growth-engine algorithms run natively on either representation: the
// same templated adapter body serves as `run` (Graph) and `run_compressed`
// (CompressedGraph), so a compressed registry run shares every line of
// parameter translation with the plain one. ---

template <class G>
Clustering run_cluster(const G& g, const AlgoParams& p, RunContext& ctx) {
  ClusterOptions o;
  o.context() = ctx;
  o.selection_constant = p.get_double("selection_constant", 4.0);
  o.threshold_constant = p.get_double("threshold_constant", 8.0);
  return cluster(g, p.get_u32("tau", 8), o);
}

void register_cluster(Registry& r) {
  r.add({"cluster",
         "CLUSTER(τ) — Algorithm 1: batched random centers, grow until half "
         "the uncovered nodes are covered",
         {kTauSpec, kSelectionSpec, kThresholdSpec},
         run_cluster<Graph>,
         run_cluster<CompressedGraph>});
}

template <class G>
Clustering run_cluster2(const G& g, const AlgoParams& p, RunContext& ctx) {
  ClusterOptions o;
  o.context() = ctx;
  o.selection_constant = p.get_double("selection_constant", 4.0);
  o.threshold_constant = p.get_double("threshold_constant", 8.0);
  return cluster2(g, p.get_u32("tau", 8), o).clustering;
}

void register_cluster2(Registry& r) {
  r.add({"cluster2",
         "CLUSTER2(τ) — Algorithm 2: preliminary CLUSTER run learns R_ALG, "
         "then fixed 2·R_ALG growth quotas per iteration",
         {kTauSpec, kSelectionSpec, kThresholdSpec},
         run_cluster2<Graph>,
         run_cluster2<CompressedGraph>});
}

void register_weighted_cluster(Registry& r) {
  r.add({"weighted_cluster",
         "weighted decomposition (§7 extension) on the unit-weight lift of "
         "the graph; degenerates to CLUSTER step for step",
         {kTauSpec, kSelectionSpec, kThresholdSpec},
         [](const Graph& g, const AlgoParams& p, RunContext& ctx) {
           WeightedClusterOptions o;
           o.context() = ctx;
           o.selection_constant = p.get_double("selection_constant", 4.0);
           o.threshold_constant = p.get_double("threshold_constant", 8.0);
           const WeightedClustering wc = weighted_cluster(
               WeightedGraph::from_unit_weights(g), p.get_u32("tau", 8), o);
           Clustering out;
           out.assignment = wc.assignment;
           out.centers = wc.centers;
           // Unit weights make hop and weighted distances coincide.
           out.dist_to_center = wc.hops_to_center;
           out.growth_steps = static_cast<std::size_t>(wc.final_clock);
           out.iterations = wc.iterations;
           finalize_cluster_stats(out);
           return out;
         },
         /*run_compressed=*/nullptr});
}

template <class G>
Clustering run_mpx(const G& g, const AlgoParams& p, RunContext& ctx) {
  baselines::MpxOptions o;
  o.context() = ctx;
  return baselines::mpx(g, p.get_double("beta", 0.5), o);
}

void register_mpx(Registry& r) {
  r.add({"mpx",
         "Miller–Peng–Xu random-shift decomposition [SPAA'13] — the paper's "
         "clustering baseline",
         {kBetaSpec},
         run_mpx<Graph>,
         run_mpx<CompressedGraph>});
}

template <class G>
Clustering run_random_centers(const G& g, const AlgoParams& p,
                              RunContext& ctx) {
  baselines::RandomCentersOptions o;
  o.context() = ctx;
  return baselines::random_centers_clustering(
      g, read_k(g.num_nodes(), p, 16), o);
}

void register_random_centers(Registry& r) {
  r.add({"random_centers",
         "one-shot uniform random centers grown to coverage (Meyer-style "
         "baseline)",
         {{"k", Type::kU32, "16", "number of centers (clamped to n)"}},
         run_random_centers<Graph>,
         run_random_centers<CompressedGraph>});
}

void register_gonzalez(Registry& r) {
  r.add({"gonzalez",
         "Gonzalez farthest-first k-center (sequential 2-approximation), "
         "returned as the nearest-center partition",
         {{"k", Type::kU32, "8", "number of centers (clamped to n)"},
          {"first", Type::kU32, "0",
           "seed node of the sweep (clamped to n-1)"}},
         [](const Graph& g, const AlgoParams& p,
            RunContext& ctx) -> StatusOr<Clustering> {
           const NodeId k = read_k(g.num_nodes(), p, 8);
           GCLUS_RETURN_IF_ERROR(check_k_covers_components(g, k));
           const NodeId first =
               std::min<NodeId>(p.get_u32("first", 0), g.num_nodes() - 1);
           const auto res = baselines::gonzalez_kcenter(g, k, first);
           ctx.emit("gonzalez.radius", static_cast<double>(res.radius));
           return clustering_from_centers(g, res.centers, ctx);
         },
         /*run_compressed=*/nullptr});
}

void register_kcenter(Registry& r) {
  r.add({"kcenter",
         "CLUSTER-based k-center approximation (Theorem 2), returned as the "
         "nearest-center partition",
         {{"k", Type::kU32, "8", "number of centers (clamped to n)"},
          {"tau_scale", Type::kDouble, "1",
           "scale of the τ = scale·k/log²n choice"}},
         [](const Graph& g, const AlgoParams& p,
            RunContext& ctx) -> StatusOr<Clustering> {
           const NodeId k = read_k(g.num_nodes(), p, 8);
           GCLUS_RETURN_IF_ERROR(check_k_covers_components(g, k));
           KCenterOptions o;
           o.context() = ctx;
           o.tau_scale = p.get_double("tau_scale", 1.0);
           const KCenterResult res = kcenter_approx(g, k, o);
           ctx.emit("kcenter.radius", static_cast<double>(res.radius));
           ctx.emit("kcenter.raw_clusters",
                    static_cast<double>(res.raw_clusters));
           ctx.emit("kcenter.tau", static_cast<double>(res.tau));
           return clustering_from_centers(g, res.centers, ctx);
         },
         /*run_compressed=*/nullptr});
}

// --- MR-emulated algorithms (mr.*): the same decompositions executed in
// MR(M_G, M_L) rounds on the out-of-core engine.  Shared engine knobs are
// declared once; every adapter emits the engine's round/volume/spill
// metrics through the context's telemetry sink. ---

const ParamSpec kMrParams[] = {
    {"partitions", Type::kU32, "64",
     "shuffle partition count (pinned; never derived from threads)",
     /*positive=*/true},
    {"spill_bytes", Type::kU64, "0",
     "map-phase shuffle buffer budget in bytes; 0 = in-memory"},
    {"ml_pairs", Type::kU64, "0",
     "M_L local memory in pairs for round accounting; 0 = unbounded"},
    {"combiners", Type::kBool, "true", "run mapper-side combiners"},
};

mr::Config mr_config(const AlgoParams& p, RunContext& ctx) {
  mr::Config cfg;
  cfg.pool = ctx.pool;
  cfg.num_partitions = p.get_u32("partitions", 64);
  cfg.spill_memory_bytes = p.get_u64("spill_bytes", 0);
  const std::uint64_t ml = p.get_u64("ml_pairs", 0);
  if (ml > 0) cfg.local_memory_pairs = static_cast<std::size_t>(ml);
  cfg.enable_combiners = p.get_bool("combiners", true);
  return cfg;
}

void emit_mr_metrics(RunContext& ctx, const mr::Engine& engine) {
  const mr::Metrics& m = engine.metrics();
  ctx.emit("mr.rounds", static_cast<double>(m.rounds));
  ctx.emit("mr.pairs_shuffled", static_cast<double>(m.pairs_shuffled));
  ctx.emit("mr.bytes_spilled", static_cast<double>(m.bytes_spilled));
  ctx.emit("mr.spill_runs", static_cast<double>(m.spill_runs));
  ctx.emit("mr.runs_merged", static_cast<double>(m.runs_merged));
  ctx.emit("mr.combiner_reduction", m.combiner_reduction());
  // Degradation counters are emitted only when something actually went
  // wrong, so healthy telemetry streams stay unchanged.
  if (m.spill_fallback_runs > 0) {
    ctx.emit("mr.spill_fallback_runs",
             static_cast<double>(m.spill_fallback_runs));
  }
  if (m.spill_degraded_rounds > 0) {
    ctx.emit("mr.spill_degraded_rounds",
             static_cast<double>(m.spill_degraded_rounds));
  }
  if (m.spill_write_retries > 0) {
    ctx.emit("mr.spill_write_retries",
             static_cast<double>(m.spill_write_retries));
  }
}

void add_mr(Registry& r, std::string name, std::string summary,
            std::vector<ParamSpec> own_params,
            StatusOr<Clustering> (*body)(mr::Engine&, const Graph&,
                                         const AlgoParams&, RunContext&)) {
  for (const ParamSpec& spec : kMrParams) own_params.push_back(spec);
  r.add({std::move(name), std::move(summary), std::move(own_params),
         [body](const Graph& g, const AlgoParams& p, RunContext& ctx) {
           mr::Engine engine(mr_config(p, ctx));
           StatusOr<Clustering> c = body(engine, g, p, ctx);
           emit_mr_metrics(ctx, engine);
           return c;
         },
         /*run_compressed=*/nullptr});
}

void register_mr_algorithms(Registry& r) {
  add_mr(r, "mr.cluster",
         "CLUSTER(τ) executed in MR rounds on the out-of-core engine; "
         "identical partition to 'cluster' for the same seed",
         {kTauSpec, kSelectionSpec, kThresholdSpec},
         [](mr::Engine& engine, const Graph& g, const AlgoParams& p,
            RunContext& ctx) -> StatusOr<Clustering> {
           mr_algos::MrClusterOptions o;
           o.seed = ctx.seed;
           o.selection_constant = p.get_double("selection_constant", 4.0);
           o.threshold_constant = p.get_double("threshold_constant", 8.0);
           GCLUS_ASSIGN_OR_RETURN(
               mr_algos::MrClusterResult res,
               mr_algos::mr_cluster(engine, g, p.get_u32("tau", 8), o));
           return std::move(res.clustering);
         });

  add_mr(r, "mr.mpx",
         "MPX executed in MR rounds on the out-of-core engine; identical "
         "partition to 'mpx' for the same seed",
         {kBetaSpec},
         [](mr::Engine& engine, const Graph& g, const AlgoParams& p,
            RunContext& ctx) -> StatusOr<Clustering> {
           GCLUS_ASSIGN_OR_RETURN(
               mr_algos::MrMpxResult res,
               mr_algos::mr_mpx(engine, g, p.get_double("beta", 0.5),
                                ctx.seed));
           return std::move(res.clustering);
         });

  add_mr(r, "mr.bfs",
         "level-synchronous MR BFS from one source, returned as the "
         "single-cluster decomposition (dist_to_center = BFS distance)",
         {{"source", Type::kU32, "0", "BFS source node (clamped to n-1)"}},
         [](mr::Engine& engine, const Graph& g, const AlgoParams& p,
            RunContext& ctx) -> StatusOr<Clustering> {
           const NodeId source = std::min<NodeId>(
               p.get_u32("source", 0), g.num_nodes() - 1);
           GCLUS_ASSIGN_OR_RETURN(const mr_algos::MrBfsResult res,
                                  mr_algos::mr_bfs(engine, g, source));
           ctx.emit("mr.bfs.eccentricity",
                    static_cast<double>(res.eccentricity));
           if (std::ranges::find(res.dist, kInfDist) != res.dist.end()) {
             return InvalidArgumentError(
                 "mr.bfs: source " + std::to_string(source) +
                 " does not reach every node; run on one connected "
                 "component");
           }
           Clustering out;
           out.centers = {source};
           out.assignment.assign(g.num_nodes(), 0);
           out.dist_to_center = res.dist;
           out.growth_steps = res.supersteps;
           finalize_cluster_stats(out);
           return out;
         });
}

void register_oracle(Registry& r) {
  r.add({"oracle",
         "distance-oracle decomposition (§4): CLUSTER2 at τ = √n/log²n on "
         "the oracle's derived seed stream, the clustering an oracle "
         "artifact stores; emits the resolved τ",
         {{"tau", Type::kU32, "0",
           "granularity; 0 picks √n/log²n automatically"},
          {"use_cluster2", Type::kBool, "true",
           "CLUSTER2 (analyzed variant) instead of plain CLUSTER"}},
         [](const Graph& g, const AlgoParams& p, RunContext& ctx) {
           DistanceOracleOptions o;
           o.context() = ctx;
           o.tau = p.get_u32("tau", 0);
           o.use_cluster2 = p.get_bool("use_cluster2", true);
           return oracle_clustering(g, o);
         },
         /*run_compressed=*/nullptr});
}

}  // namespace

namespace detail {

void register_builtin_algorithms(Registry& r) {
  register_cluster(r);
  register_cluster2(r);
  register_weighted_cluster(r);
  register_oracle(r);
  register_mpx(r);
  register_random_centers(r);
  register_gonzalez(r);
  register_kcenter(r);
  register_mr_algorithms(r);
}

}  // namespace detail
}  // namespace gclus
