// Unified-API benchmark — quantifies what Workspace reuse buys when the
// same graph is decomposed repeatedly (the serving scenario, and every
// multi-trial bench loop in this repo).
//
// On the 1.2M-edge expander of bench_decomposition, every workload runs
// two ways with identical seeds:
//   * cold — no workspace: every run allocates and first-touches its own
//     scratch (exactly the pre-Workspace engine behavior);
//   * warm — one shared Workspace across runs (one untimed priming run,
//     then timed reps against warm buffers).
// Workloads: the raw growth primitive, parallel BFS, and the registry
// decomposition algorithms (constructed by name — no per-algorithm entry
// points here).  Cold and warm must produce byte-identical results; the
// bench aborts otherwise, making it a reuse-correctness check as well.
//
// Results go to stdout and BENCH_api.json (override with GCLUS_BENCH_OUT):
// per-workload cold/warm minima and the speedup, plus the headline
// geometric mean.  Reps are interleaved cold/warm so a transient load
// spike on a shared machine hits both variants roughly equally.
//
// Allocator methodology: the bench pins glibc's mmap threshold to its
// initial 128 KiB (disabling the dynamic bump-on-free heuristic), so every
// node-sized scratch buffer really is mapped on allocation and unmapped on
// free.  Without the pin, a tight single-process loop lets glibc hand each
// "cold" run the previous run's still-warm pages, and the bench would be
// measuring the allocator's free-list luck instead of the engine.  A
// long-lived serving process does not get that luck — concurrent requests
// churn the arenas, and decay-based allocators (jemalloc/tcmalloc) return
// idle pages to the OS — which is precisely the cost the Workspace exists
// to make deterministic.  (Measured here: GrowthState construction alone
// is ~6x cheaper against a warm Workspace than against fresh mappings.)
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "api/registry.hpp"
#include "api/workspace.hpp"
#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "core/growth.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr NodeId kNodes = 300000;
constexpr unsigned kDegree = 8;
constexpr std::uint64_t kSeed = 42;
constexpr int kReps = 5;

struct Workload {
  std::string name;
  std::string params;  // human-readable parameter summary
  // Runs once; result digest (assignment/distances) for the equality check.
  std::function<std::vector<std::uint32_t>(Workspace*)> run;
};

struct Measurement {
  double cold_s = 0.0;
  double warm_s = 0.0;
  [[nodiscard]] double speedup() const {
    return warm_s > 0.0 ? cold_s / warm_s : 0.0;
  }
};

Measurement measure(const Workload& w, Workspace& workspace) {
  // Priming: one untimed warm run fills the workspace buffers; one
  // untimed cold run equalizes cache/allocator state between variants.
  const std::vector<std::uint32_t> reference = w.run(nullptr);
  const std::vector<std::uint32_t> reused = w.run(&workspace);
  GCLUS_CHECK(reference == reused,
              "workspace-backed run diverged from cold run for ", w.name);

  Measurement m;
  m.cold_s = m.warm_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      Timer t;
      const auto digest = w.run(nullptr);
      const double s = t.elapsed_s();
      if (s < m.cold_s) m.cold_s = s;
      GCLUS_CHECK(digest == reference, "cold rep diverged for ", w.name);
    }
    {
      Timer t;
      const auto digest = w.run(&workspace);
      const double s = t.elapsed_s();
      if (s < m.warm_s) m.warm_s = s;
      GCLUS_CHECK(digest == reference, "warm rep diverged for ", w.name);
    }
  }
  return m;
}

}  // namespace

int main() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);  // see header comment
#endif
  const Graph g = cached_expander(kNodes, kDegree, kSeed);
  ThreadPool& pool = ThreadPool::global();
  std::printf("expander: n=%u m=%llu threads=%zu reps=%d\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              pool.num_threads(), kReps);

  const auto registry_workload = [&](const std::string& algo,
                                     const AlgoParams& params,
                                     const std::string& label) {
    return Workload{
        algo, label, [&, algo, params](Workspace* ws) {
          RunContext ctx;
          ctx.seed = kSeed;
          ctx.pool = &pool;
          ctx.workspace = ws;
          return registry().run(algo, g, params, ctx).value().assignment;
        }};
  };

  std::vector<Workload> workloads;
  // The raw serving primitive: grow a fixed center set to full coverage.
  workloads.push_back(
      {"growth", "64 centers, full coverage", [&](Workspace* ws) {
         GrowthState state(g, pool, default_growth_options(), ws);
         for (NodeId i = 0; i < 64; ++i) {
           state.add_center(
               static_cast<NodeId>(std::uint64_t{i} * g.num_nodes() / 64));
         }
         while (state.covered_count() < g.num_nodes()) {
           if (state.frontier_empty()) state.add_singletons_for_uncovered();
           state.step();
         }
         return std::move(state).finish().assignment;
       }});
  workloads.push_back({"bfs", "single source", [&](Workspace* ws) {
                         return parallel_bfs(pool, g, 0, nullptr,
                                             default_growth_options(), nullptr,
                                             ws);
                       }});
  workloads.push_back(registry_workload(
      "cluster", AlgoParams{}.set("tau", std::uint64_t{16}), "tau=16"));
  workloads.push_back(registry_workload(
      "cluster2", AlgoParams{}.set("tau", std::uint64_t{4}), "tau=4"));
  workloads.push_back(
      registry_workload("mpx", AlgoParams{}.set("beta", 0.5), "beta=0.5"));
  workloads.push_back(registry_workload(
      "random_centers", AlgoParams{}.set("k", std::uint64_t{64}), "k=64"));

  Workspace workspace;
  TablePrinter table({"workload", "params", "cold_s", "warm_s", "speedup"});
  Json runs = Json::array();
  double log_sum = 0.0;
  for (const Workload& w : workloads) {
    const Measurement m = measure(w, workspace);
    log_sum += std::log(m.speedup());
    table.add_row({w.name, w.params, fmt(m.cold_s, 4), fmt(m.warm_s, 4),
                   fmt(m.speedup(), 2) + "x"});
    runs.push(Json::object()
                  .set("workload", w.name)
                  .set("params", w.params)
                  .set("cold_s", m.cold_s)
                  .set("warm_s", m.warm_s)
                  .set("speedup_warm_vs_cold", m.speedup()));
  }
  const double geomean = std::exp(log_sum / workloads.size());
  table.print("Workspace reuse: cold vs warm (min of " +
                  std::to_string(kReps) + " interleaved reps)",
              "cold = fresh allocation per run; warm = shared Workspace.  "
              "geomean speedup: " + fmt(geomean, 2) + "x");
  std::printf("workspace retains %.1f MiB across %zu growth / %zu bfs "
              "acquires\n",
              static_cast<double>(workspace.bytes()) / (1024.0 * 1024.0),
              workspace.growth_acquires(), workspace.bfs_acquires());

  Json root = Json::object();
  root.set("bench", "api");
  root.set("graph",
           Json::object()
               .set("generator", "expander")
               .set("nodes", static_cast<std::uint64_t>(g.num_nodes()))
               .set("edges", static_cast<std::uint64_t>(g.num_edges()))
               .set("degree", static_cast<std::uint64_t>(kDegree))
               .set("seed", static_cast<std::uint64_t>(kSeed)));
  root.set("threads", static_cast<std::uint64_t>(pool.num_threads()));
  root.set("reps", static_cast<std::uint64_t>(kReps));
  root.set("runs", std::move(runs));
  root.set("workspace_bytes", static_cast<std::uint64_t>(workspace.bytes()));
  root.set("speedup_geomean_warm_vs_cold", geomean);

  const char* out_env = std::getenv("GCLUS_BENCH_OUT");
  const std::string out_path = out_env != nullptr ? out_env : "BENCH_api.json";
  write_json_file(out_path, root);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
