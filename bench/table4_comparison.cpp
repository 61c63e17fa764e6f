// Table 4 — CLUSTER vs BFS vs HADI on the MR substrate.
//
// All three algorithms run on the same MR engine; each row reports the
// diameter estimate Δ′, the MR rounds executed, the communication volume
// (key-value pairs shuffled), the raw emulator wall time, and the modeled
// distributed time wall + rounds·latency (see bench_common.hpp).
//
// Paper shape to reproduce (their Table 4, times in seconds on 16 hosts):
//   * HADI: accurate estimates but Θ(Δ) rounds each shuffling Θ(m)
//     sketches — slowest everywhere, catastrophically so on road/mesh;
//   * BFS: Θ(Δ) rounds but only O(m) aggregate volume — between the two;
//   * CLUSTER: rounds ∝ growth steps ≪ Δ on large-diameter graphs —
//     fastest there by an order of magnitude or more.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "mr_algos/mr_bfs.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "mr_algos/mr_hadi.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr std::uint64_t kSeed = 2015;

struct AlgoResult {
  std::uint64_t estimate = 0;
  std::size_t rounds = 0;
  std::uint64_t comm_pairs = 0;
  double wall_s = 0.0;
  double modeled_s = 0.0;
};

template <typename Fn>
AlgoResult measured(Fn&& fn) {
  mr::Engine engine;
  Timer timer;
  const std::uint64_t estimate = fn(engine);
  AlgoResult r;
  r.estimate = estimate;
  r.wall_s = timer.elapsed_s();
  r.rounds = engine.metrics().rounds;
  r.comm_pairs = engine.metrics().pairs_shuffled;
  r.modeled_s = r.wall_s + static_cast<double>(r.rounds) * round_latency_s();
  return r;
}

AlgoResult run_cluster(const BenchDataset& d) {
  return measured([&](mr::Engine& engine) {
    const NodeId n = d.graph().num_nodes();
    const double target =
        d.dataset.large_diameter ? n / 100.0 : n / 1000.0;
    mr_algos::MrClusterOptions opts;
    opts.seed = kSeed;
    const auto r = mr_algos::mr_cluster_diameter(
        engine, d.graph(), tau_for_target_clusters(d.graph(), target), opts);
    return r.value().estimate;
  });
}

AlgoResult run_bfs(const BenchDataset& d) {
  return measured([&](mr::Engine& engine) {
    // The paper runs BFS from an arbitrary source; use node 0.
    return mr_algos::mr_bfs_diameter(engine, d.graph(), 0).value().estimate;
  });
}

AlgoResult run_hadi(const BenchDataset& d) {
  return measured([&](mr::Engine& engine) {
    mr_algos::HadiOptions opts;
    opts.seed = kSeed;
    // Run to (near) sketch fixpoint, as HADI does: any register movement
    // counts as growth.  The coarse FM granularity still stops slightly
    // before Δ on the regular meshes (the paper's HADI slightly
    // underestimates the road diameters the same way).
    opts.epsilon = 1e-12;
    return mr_algos::mr_hadi(engine, d.graph(), opts).value().estimate;
  });
}

void print_table4() {
  TablePrinter table({"dataset", "algo", "D' est", "rounds", "comm pairs",
                      "wall s", "modeled s", "D"});
  for (const BenchDataset* d : all_bench_datasets()) {
    struct Entry {
      const char* algo;
      AlgoResult r;
    };
    const Entry entries[] = {{"CLUSTER", run_cluster(*d)},
                             {"BFS", run_bfs(*d)},
                             {"HADI", run_hadi(*d)}};
    for (const Entry& e : entries) {
      table.add_row({d->name(), e.algo, fmt_u(e.r.estimate),
                     fmt_u(e.r.rounds), fmt_u(e.r.comm_pairs),
                     fmt(e.r.wall_s, 2), fmt(e.r.modeled_s, 1),
                     fmt_u(d->diameter)});
    }
  }
  table.print(
      "Table 4: CLUSTER vs BFS vs HADI (diameter estimation on the MR "
      "engine)",
      "modeled s = wall + rounds x " + fmt(round_latency_s(), 2) +
          " s round latency (GCLUS_ROUND_LATENCY); the paper's regime is "
          "round-dominated.");
}

void BM_Algo(benchmark::State& state, const std::string& name,
             int which) {
  const BenchDataset& d = load_bench_dataset(name);
  AlgoResult r;
  for (auto _ : state) {
    r = which == 0 ? run_cluster(d) : which == 1 ? run_bfs(d) : run_hadi(d);
    benchmark::DoNotOptimize(r.estimate);
  }
  state.counters["rounds"] = static_cast<double>(r.rounds);
  state.counters["comm_pairs"] = static_cast<double>(r.comm_pairs);
  state.counters["estimate"] = static_cast<double>(r.estimate);
  state.counters["modeled_s"] = r.modeled_s;
}

}  // namespace

int main(int argc, char** argv) {
  print_table4();
  // Timing benchmarks on the two extreme datasets only (the table above
  // already ran every combination once).
  for (const std::string name : {"social-small", "road-b"}) {
    benchmark::RegisterBenchmark(("mr_cluster/" + name).c_str(), BM_Algo,
                                 name, 0)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(("mr_bfs/" + name).c_str(), BM_Algo, name, 1)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
