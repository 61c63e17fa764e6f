// Out-of-core MR shuffle benchmark — the perf/compliance anchor for the
// engine's scale axis.
//
// On the 1.2M-edge 8-regular expander (the same graph as
// bench_decomposition) this demonstrates the two claims of the external
// shuffle:
//
//   1. Bounded memory: CLUSTER(τ) in MR rounds completes with the shuffle
//      buffer budget capped at 1/16 of the input's edge-list bytes, never
//      exceeds that budget (spill_strict aborts the bench if it does),
//      and produces the byte-identical partition of an in-memory run.
//
//   2. Combiners pay: MPX's min-fold claim combiner cuts shuffle volume
//      by ≥1.5x (the bench prints and records the measured factor, and
//      the spilled-bytes reduction under a budget).
//
// Results go to stdout as paper-style tables and to BENCH_mr.json
// (override with GCLUS_BENCH_OUT).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "mapreduce/engine.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "mr_algos/mr_mpx.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr NodeId kNodes = 300000;
constexpr unsigned kDegree = 8;
constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kRunSeed = 7;
constexpr std::uint32_t kTau = 16;

struct MrRun {
  Clustering clustering;
  mr::Metrics metrics;
  double wall_s = 0.0;
};

MrRun run_cluster(const Graph& g, std::uint64_t spill_bytes, bool combiners,
                  bool strict) {
  mr::Config cfg;
  cfg.spill_memory_bytes = spill_bytes;
  cfg.enable_combiners = combiners;
  cfg.spill_strict = strict;
  mr::Engine engine(cfg);
  mr_algos::MrClusterOptions o;
  o.seed = kRunSeed;
  Timer t;
  MrRun run;
  run.clustering = mr_algos::mr_cluster(engine, g, kTau, o).value().clustering;
  run.wall_s = t.elapsed_s();
  run.metrics = engine.metrics();
  return run;
}

MrRun run_mpx(const Graph& g, std::uint64_t spill_bytes, bool combiners) {
  mr::Config cfg;
  cfg.spill_memory_bytes = spill_bytes;
  cfg.enable_combiners = combiners;
  mr::Engine engine(cfg);
  Timer t;
  MrRun run;
  run.clustering =
      mr_algos::mr_mpx(engine, g, 0.5, kRunSeed).value().clustering;
  run.wall_s = t.elapsed_s();
  run.metrics = engine.metrics();
  return run;
}

Json metrics_json(const MrRun& r) {
  return Json::object()
      .set("wall_s", r.wall_s)
      .set("rounds", static_cast<std::uint64_t>(r.metrics.rounds))
      .set("pairs_shuffled", r.metrics.pairs_shuffled)
      .set("bytes_spilled", r.metrics.bytes_spilled)
      .set("spill_runs", r.metrics.spill_runs)
      .set("runs_merged", r.metrics.runs_merged)
      .set("peak_buffer_bytes", r.metrics.peak_shuffle_buffer_bytes)
      .set("peak_merge_buffer_bytes", r.metrics.peak_merge_buffer_bytes)
      .set("combiner_pairs_in", r.metrics.combiner_pairs_in)
      .set("combiner_pairs_out", r.metrics.combiner_pairs_out)
      .set("combiner_reduction", r.metrics.combiner_reduction())
      .set("clusters",
           static_cast<std::uint64_t>(r.clustering.num_clusters()));
}

bool same_partition(const MrRun& a, const MrRun& b) {
  return a.clustering.assignment == b.clustering.assignment &&
         a.clustering.centers == b.clustering.centers &&
         a.clustering.dist_to_center == b.clustering.dist_to_center;
}

}  // namespace

int main() {
  const Graph g = cached_expander(kNodes, kDegree, kGraphSeed);
  // "Input size" = the graph as the shuffle sees it: one claim pair per
  // directed edge.
  const std::uint64_t input_bytes =
      g.num_half_edges() * sizeof(std::pair<NodeId, ClusterId>);
  const std::uint64_t budget = input_bytes / 16;
  std::printf("expander: n=%u m=%llu  input=%llu bytes  budget=%llu bytes "
              "(1/16)\n",
              g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(input_bytes),
              static_cast<unsigned long long>(budget));

  // --- CLUSTER: in-memory reference vs budgeted out-of-core run. ---
  const MrRun in_memory = run_cluster(g, mr::kSpillUnbounded,
                                      /*combiners=*/true, /*strict=*/false);
  const MrRun spilled = run_cluster(g, budget, true, /*strict=*/true);
  const MrRun spilled_nocombine = run_cluster(g, budget, false, true);
  const bool identical = same_partition(in_memory, spilled) &&
                         same_partition(in_memory, spilled_nocombine);
  // Both sides of the shuffle must respect the budget: map-phase buffers
  // and the reduce-phase merge cursors.
  const bool within_budget =
      spilled.metrics.peak_shuffle_buffer_bytes <= budget &&
      spilled.metrics.peak_merge_buffer_bytes <= budget;

  TablePrinter cluster_table({"mode", "wall_s", "bytes spilled", "runs",
                              "peak buffer", "combine x"});
  const auto add_cluster_row = [&](const char* mode, const MrRun& r) {
    cluster_table.add_row({mode, fmt(r.wall_s, 3),
                           fmt_u(r.metrics.bytes_spilled),
                           fmt_u(r.metrics.spill_runs),
                           fmt_u(r.metrics.peak_shuffle_buffer_bytes),
                           fmt(r.metrics.combiner_reduction(), 2)});
  };
  add_cluster_row("in-memory", in_memory);
  add_cluster_row("spill 1/16", spilled);
  add_cluster_row("spill 1/16, no combine", spilled_nocombine);
  cluster_table.print(
      "MR CLUSTER(16) under a 1/16-input shuffle budget",
      std::string("partitions identical: ") + (identical ? "yes" : "NO") +
          "; peak within budget: " + (within_budget ? "yes" : "NO"));

  // --- MPX: combiner shuffle-volume reduction. ---
  const MrRun mpx_on = run_mpx(g, mr::kSpillUnbounded, /*combiners=*/true);
  const MrRun mpx_off = run_mpx(g, mr::kSpillUnbounded, false);
  const bool mpx_identical = same_partition(mpx_on, mpx_off);
  const double reduction = mpx_on.metrics.combiner_reduction();
  TablePrinter mpx_table({"combiners", "wall_s", "pairs in", "pairs out",
                          "reduction"});
  mpx_table.add_row({"on", fmt(mpx_on.wall_s, 3),
                     fmt_u(mpx_on.metrics.combiner_pairs_in),
                     fmt_u(mpx_on.metrics.combiner_pairs_out),
                     fmt(reduction, 2)});
  mpx_table.add_row({"off", fmt(mpx_off.wall_s, 3), "0", "0", "1.00"});
  mpx_table.print("MR MPX(0.5) combiner shuffle reduction",
                  "min-fold claim combiner; target >= 1.5x; partitions "
                  "identical: " + std::string(mpx_identical ? "yes" : "NO"));

  Json root = Json::object();
  root.set("bench", "mr_spill");
  root.set("graph",
           Json::object()
               .set("generator", "expander")
               .set("nodes", static_cast<std::uint64_t>(g.num_nodes()))
               .set("edges", static_cast<std::uint64_t>(g.num_edges()))
               .set("degree", static_cast<std::uint64_t>(kDegree))
               .set("seed", kGraphSeed));
  root.set("input_bytes", input_bytes);
  root.set("spill_budget_bytes", budget);
  root.set("cluster_in_memory", metrics_json(in_memory));
  root.set("cluster_spilled", metrics_json(spilled));
  root.set("cluster_spilled_no_combine", metrics_json(spilled_nocombine));
  root.set("cluster_partitions_identical", identical);
  root.set("cluster_within_budget", within_budget);
  root.set("mpx_combiners_on", metrics_json(mpx_on));
  root.set("mpx_combiners_off", metrics_json(mpx_off));
  root.set("mpx_partitions_identical", mpx_identical);
  root.set("mpx_combiner_reduction", reduction);

  const char* out_env = std::getenv("GCLUS_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_mr.json";
  write_json_file(out_path, root);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!identical || !within_budget || !mpx_identical || reduction < 1.5) {
    std::fprintf(stderr, "BENCH FAILED: identical=%d within_budget=%d "
                         "mpx_identical=%d reduction=%.2f\n",
                 identical, within_budget, mpx_identical, reduction);
    return 1;
  }
  return 0;
}
