// Direction-optimizing growth-engine benchmark — the perf-trajectory
// anchor for the decomposition hot path.
//
// On a low-diameter generated graph (an 8-regular expander, ≥1M edges)
// this measures the same primitive three ways — push-only (the classic
// engine), pull-only, and the hybrid degree-sum heuristic — across three
// workloads: raw multi-center growth, single-source BFS, and a full
// CLUSTER(τ) run.  Results go to stdout as paper-style tables and to
// BENCH_decomposition.json (override with GCLUS_BENCH_OUT), including the
// per-step direction decisions of every growth run so mode switches are
// auditable from the artifact alone.
//
// A second section prices multi-cluster growth on a high-diameter road
// graph, where push claims dominate: CLUSTER(τ=1) against one serial BFS,
// with the push steps' wall time per claimed node.  It is reported, not
// gated.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "common/traversal.hpp"
#include "core/cluster.hpp"
#include "core/growth.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "workloads/datasets.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr NodeId kNodes = 300000;
constexpr unsigned kDegree = 8;
constexpr std::uint64_t kSeed = 42;
constexpr NodeId kCenters = 4;
constexpr int kReps = 5;

constexpr NodeId kRoadSide = 1400;
constexpr std::size_t kRoadThreads = 3;

const TraversalMode kModes[] = {TraversalMode::kPushOnly,
                                TraversalMode::kPullOnly,
                                TraversalMode::kAuto};

struct RunResult {
  std::string mode;
  double wall_s = 0.0;
  std::size_t steps = 0;
  std::size_t push_steps = 0;
  std::size_t pull_steps = 0;
  GrowthStats stats;  // step log of the last rep (growth runs only)
};

Json decisions_json(const GrowthStats& stats) {
  Json arr = Json::array();
  for (const GrowthStepLog& log : stats.steps) {
    arr.push(Json::object()
                 .set("step", static_cast<std::uint64_t>(log.step))
                 .set("mode", log.pull ? "pull" : "push")
                 .set("frontier", static_cast<std::uint64_t>(log.frontier_size))
                 .set("frontier_degree_sum", log.frontier_degree_sum)
                 .set("uncovered_degree_sum", log.uncovered_degree_sum)
                 .set("newly_covered",
                      static_cast<std::uint64_t>(log.newly_covered)));
  }
  return arr;
}

Json run_json(const RunResult& r, bool with_decisions) {
  Json j = Json::object()
               .set("mode", r.mode)
               .set("wall_s", r.wall_s)
               .set("modeled_s", r.wall_s + static_cast<double>(r.steps) *
                                                round_latency_s())
               .set("growth_steps", static_cast<std::uint64_t>(r.steps))
               .set("push_steps", static_cast<std::uint64_t>(r.push_steps))
               .set("pull_steps", static_cast<std::uint64_t>(r.pull_steps));
  if (with_decisions) j.set("decisions", decisions_json(r.stats));
  return j;
}

RunResult bench_growth_once(const Graph& g, ThreadPool& pool,
                            TraversalMode mode) {
  RunResult r;
  r.mode = traversal_mode_name(mode);
  GrowthOptions opts;
  opts.mode = mode;
  opts.record_step_log = true;
  Timer t;
  GrowthState state(g, pool, opts);
  for (NodeId i = 0; i < kCenters; ++i) {
    state.add_center(static_cast<NodeId>(
        static_cast<std::uint64_t>(i) * g.num_nodes() / kCenters));
  }
  while (state.covered_count() < g.num_nodes()) {
    if (state.frontier_empty()) state.add_singletons_for_uncovered();
    state.step();
  }
  r.wall_s = t.elapsed_s();
  r.steps = state.steps_executed();
  r.push_steps = state.stats().push_steps;
  r.pull_steps = state.stats().pull_steps;
  r.stats = state.stats();
  return r;
}

RunResult bench_bfs_once(const Graph& g, ThreadPool& pool,
                         TraversalMode mode) {
  RunResult r;
  r.mode = traversal_mode_name(mode);
  GrowthOptions opts;
  opts.mode = mode;
  std::size_t levels = 0;
  DirectionCounts counts;
  Timer t;
  const auto dist = parallel_bfs(pool, g, 0, &levels, opts, &counts);
  r.wall_s = t.elapsed_s();
  r.steps = levels;
  r.push_steps = counts.push;
  r.pull_steps = counts.pull;
  return r;
}

RunResult bench_cluster_once(const Graph& g, ThreadPool& pool,
                             TraversalMode mode) {
  RunResult r;
  r.mode = traversal_mode_name(mode);
  RunContext ctx;
  ctx.seed = kSeed;
  ctx.pool = &pool;
  ctx.growth.mode = mode;
  Timer t;
  const Clustering c = run_registry(
      "cluster", g, AlgoParams{}.set("tau", std::uint64_t{16}), ctx);
  r.wall_s = t.elapsed_s();
  r.steps = c.growth_steps;
  r.push_steps = c.push_steps;
  r.pull_steps = c.pull_steps;
  return r;
}

/// Runs one scenario kReps times per mode with the modes interleaved
/// inside each rep, so a transient load spike on this shared machine hits
/// every mode roughly equally instead of skewing one block of reps; keeps
/// the minimum wall time per mode (everything else is deterministic).
template <typename Once>
std::vector<RunResult> sweep_modes(const Once& once) {
  std::vector<RunResult> best;
  for (int rep = 0; rep < kReps; ++rep) {
    std::size_t i = 0;
    for (const TraversalMode mode : kModes) {
      RunResult r = once(mode);
      if (rep == 0) {
        best.push_back(std::move(r));
      } else if (r.wall_s < best[i].wall_s) {
        best[i].wall_s = r.wall_s;
      }
      ++i;
    }
  }
  return best;
}

double speedup_vs_push(const std::vector<RunResult>& runs) {
  double push_wall = 0.0, auto_wall = 0.0;
  for (const RunResult& r : runs) {
    if (r.mode == "push") push_wall = r.wall_s;
    if (r.mode == "auto") auto_wall = r.wall_s;
  }
  return auto_wall > 0.0 ? push_wall / auto_wall : 0.0;
}

void print_table(const std::string& title,
                 const std::vector<RunResult>& runs) {
  TablePrinter table({"mode", "wall_s", "modeled_s", "steps", "push", "pull"});
  for (const RunResult& r : runs) {
    table.add_row({r.mode, fmt(r.wall_s, 4),
                   fmt(r.wall_s + static_cast<double>(r.steps) *
                                      round_latency_s(),
                       2),
                   fmt_u(r.steps), fmt_u(r.push_steps), fmt_u(r.pull_steps)});
  }
  table.print(title, "hybrid speedup vs push-only: " +
                         fmt(speedup_vs_push(runs), 2) + "x");
}

struct RoadResult {
  double cluster_s = 0.0;
  double push_ns_per_claim = 0.0;
  double bfs_s = 0.0;
};

/// CLUSTER(τ=1) and serial BFS from node 0, interleaved kReps times; keeps
/// the fastest of each, and the push price of the fastest CLUSTER run.
RoadResult bench_road(const Graph& g, ThreadPool& pool) {
  RoadResult best;
  for (int rep = 0; rep < kReps; ++rep) {
    RecordingTelemetry tel;
    RunContext ctx;
    ctx.seed = kSeed;
    ctx.pool = &pool;
    ctx.growth.record_step_log = true;
    ctx.telemetry = &tel;
    Timer t;
    (void)run_registry("cluster", g, AlgoParams{}.set("tau", std::uint64_t{1}),
                       ctx);
    const double cluster_s = t.elapsed_s();
    if (rep == 0 || cluster_s < best.cluster_s) {
      best.cluster_s = cluster_s;
      best.push_ns_per_claim =
          tel.value("cluster.push_ns") /
          std::max(1.0, tel.value("cluster.push_claims"));
    }
    t.reset();
    (void)bfs_distances(g, 0);
    const double bfs_s = t.elapsed_s();
    if (rep == 0 || bfs_s < best.bfs_s) best.bfs_s = bfs_s;
  }
  return best;
}

}  // namespace

int main() {
  const Graph g = cached_expander(kNodes, kDegree, kSeed);
  ThreadPool& pool = ThreadPool::global();
  std::printf("expander: n=%u m=%llu threads=%zu\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              pool.num_threads());

  const std::vector<RunResult> growth = sweep_modes(
      [&](TraversalMode mode) { return bench_growth_once(g, pool, mode); });
  const std::vector<RunResult> bfs = sweep_modes(
      [&](TraversalMode mode) { return bench_bfs_once(g, pool, mode); });
  const std::vector<RunResult> clus = sweep_modes(
      [&](TraversalMode mode) { return bench_cluster_once(g, pool, mode); });

  print_table("Growth engine (" + std::to_string(kCenters) +
                  " centers, full coverage)",
              growth);
  print_table("Parallel BFS (single source)", bfs);
  print_table("CLUSTER(16)", clus);

  Json root = Json::object();
  root.set("bench", "decomposition");
  root.set("graph", Json::object()
                        .set("generator", "expander")
                        .set("nodes", static_cast<std::uint64_t>(g.num_nodes()))
                        .set("edges", static_cast<std::uint64_t>(g.num_edges()))
                        .set("degree", static_cast<std::uint64_t>(kDegree))
                        .set("seed", static_cast<std::uint64_t>(kSeed)));
  root.set("threads", static_cast<std::uint64_t>(pool.num_threads()));
  root.set("round_latency_s", round_latency_s());

  Json growth_json = Json::array();
  for (const RunResult& r : growth) {
    growth_json.push(run_json(r, /*with_decisions=*/true));
  }
  Json bfs_json = Json::array();
  for (const RunResult& r : bfs) bfs_json.push(run_json(r, false));
  Json cluster_json = Json::array();
  for (const RunResult& r : clus) cluster_json.push(run_json(r, false));

  root.set("growth", std::move(growth_json));
  root.set("growth_speedup_auto_vs_push", speedup_vs_push(growth));
  root.set("bfs", std::move(bfs_json));
  root.set("bfs_speedup_auto_vs_push", speedup_vs_push(bfs));
  root.set("cluster", std::move(cluster_json));
  root.set("cluster_speedup_auto_vs_push", speedup_vs_push(clus));

  const Graph road = workloads::cached_graph(
      "road-" + std::to_string(kRoadSide) + "x" + std::to_string(kRoadSide) +
          "-p0.08-s0.02-seed1",
      [] { return gen::road_like(kRoadSide, kRoadSide, 0.08, 0.02, 1); });
  ThreadPool road_pool(kRoadThreads);
  const RoadResult r = bench_road(road, road_pool);
  const double cluster_vs_bfs = r.cluster_s / r.bfs_s;
  std::printf(
      "\nroad: n=%u m=%llu threads=%zu\n"
      "  cluster(tau=1) %.1f ms, push %.1f ns per claimed node\n"
      "  serial BFS %.1f ms, cluster / BFS %.2fx\n",
      road.num_nodes(), static_cast<unsigned long long>(road.num_edges()),
      road_pool.num_threads(), r.cluster_s * 1e3, r.push_ns_per_claim,
      r.bfs_s * 1e3, cluster_vs_bfs);
  root.set("road",
           Json::object()
               .set("generator", "road_like")
               .set("nodes", static_cast<std::uint64_t>(road.num_nodes()))
               .set("edges", static_cast<std::uint64_t>(road.num_edges()))
               .set("threads",
                    static_cast<std::uint64_t>(road_pool.num_threads()))
               .set("cluster_tau1_s", r.cluster_s)
               .set("push_ns_per_claim", r.push_ns_per_claim)
               .set("serial_bfs_s", r.bfs_s)
               .set("cluster_vs_serial_bfs", cluster_vs_bfs));

  const char* out_env = std::getenv("GCLUS_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_decomposition.json";
  write_json_file(out_path, root);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
