// Figure 1 — robustness to graph irregularities: running time of CLUSTER
// vs BFS on the social graphs with a chain of c·Δ extra nodes appended,
// c ∈ {0, 1, 2, 4, 6, 8, 10}.
//
// Paper shape to reproduce: BFS time grows linearly in c (its rounds are
// exactly the new eccentricity), while CLUSTER's time stays essentially
// flat — the appended tail is absorbed by re-seeded center batches whose
// growth steps barely increase.  We report rounds and modeled time (the
// round-dominated regime of the paper's cluster, see bench_common.hpp),
// plus raw wall time.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "mr_algos/mr_bfs.hpp"
#include "mr_algos/mr_cluster.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr std::uint64_t kSeed = 2015;
constexpr int kTailFactors[] = {0, 1, 2, 4, 6, 8, 10};

struct Point {
  std::size_t rounds;
  double wall_s;
  double modeled_s;
  std::uint64_t estimate;
};

Point run_cluster_on(const Graph& g, bool large_diameter) {
  mr::Engine engine;
  Timer timer;
  const double target = large_diameter ? g.num_nodes() / 100.0
                                       : g.num_nodes() / 1000.0;
  mr_algos::MrClusterOptions opts;
  opts.seed = kSeed;
  const auto r = mr_algos::mr_cluster_diameter(
      engine, g, tau_for_target_clusters(g, target), opts).value();
  Point p;
  p.estimate = r.estimate;
  p.wall_s = timer.elapsed_s();
  p.rounds = engine.metrics().rounds;
  p.modeled_s = p.wall_s + static_cast<double>(p.rounds) * round_latency_s();
  return p;
}

Point run_bfs_on(const Graph& g) {
  mr::Engine engine;
  Timer timer;
  const auto r = mr_algos::mr_bfs_diameter(engine, g, 0).value();
  Point p;
  p.estimate = r.estimate;
  p.wall_s = timer.elapsed_s();
  p.rounds = engine.metrics().rounds;
  p.modeled_s = p.wall_s + static_cast<double>(p.rounds) * round_latency_s();
  return p;
}

void print_figure1() {
  TablePrinter table({"dataset", "tail (xD)", "algo", "rounds", "wall s",
                      "modeled s", "D' est"});
  for (const char* name : {"social-large", "social-small"}) {
    const BenchDataset& d = load_bench_dataset(name);
    for (const int c : kTailFactors) {
      const NodeId tail_len = static_cast<NodeId>(c) * d.diameter;
      const Graph g =
          c == 0 ? d.graph() : gen::with_tail(d.graph(), tail_len);
      const Point ours = run_cluster_on(g, d.dataset.large_diameter);
      const Point bfs = run_bfs_on(g);
      table.add_row({d.name(), std::to_string(c), "CLUSTER",
                     fmt_u(ours.rounds), fmt(ours.wall_s, 2),
                     fmt(ours.modeled_s, 1), fmt_u(ours.estimate)});
      table.add_row({d.name(), std::to_string(c), "BFS", fmt_u(bfs.rounds),
                     fmt(bfs.wall_s, 2), fmt(bfs.modeled_s, 1),
                     fmt_u(bfs.estimate)});
    }
  }
  table.print(
      "Figure 1: tail-appended variants (chain of c*D extra nodes)",
      "Expect BFS rounds/time linear in c; CLUSTER flat.  modeled s = "
      "wall + rounds x " + fmt(round_latency_s(), 2) + " s.");
}

void BM_TailedCluster(benchmark::State& state, const std::string& name,
                      int c) {
  const BenchDataset& d = load_bench_dataset(name);
  const Graph g =
      c == 0 ? d.graph()
             : gen::with_tail(d.graph(),
                              static_cast<NodeId>(c) * d.diameter);
  Point p{};
  for (auto _ : state) {
    p = run_cluster_on(g, d.dataset.large_diameter);
    benchmark::DoNotOptimize(p.estimate);
  }
  state.counters["rounds"] = static_cast<double>(p.rounds);
  state.counters["modeled_s"] = p.modeled_s;
}

void BM_TailedBfs(benchmark::State& state, const std::string& name, int c) {
  const BenchDataset& d = load_bench_dataset(name);
  const Graph g =
      c == 0 ? d.graph()
             : gen::with_tail(d.graph(),
                              static_cast<NodeId>(c) * d.diameter);
  Point p{};
  for (auto _ : state) {
    p = run_bfs_on(g);
    benchmark::DoNotOptimize(p.estimate);
  }
  state.counters["rounds"] = static_cast<double>(p.rounds);
  state.counters["modeled_s"] = p.modeled_s;
}

}  // namespace

int main(int argc, char** argv) {
  print_figure1();
  for (const int c : {0, 4, 10}) {
    benchmark::RegisterBenchmark(
        ("tailed_cluster/social-small/c" + std::to_string(c)).c_str(),
        BM_TailedCluster, "social-small", c)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        ("tailed_bfs/social-small/c" + std::to_string(c)).c_str(),
        BM_TailedBfs, "social-small", c)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
