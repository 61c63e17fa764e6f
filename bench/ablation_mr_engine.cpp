// Ablation E — the MR substrate itself: the Lemma-3 log_{M_L} m round
// factor, Fact-1 primitive scaling, and raw engine round throughput.
//
// The paper's round complexity O(R·log_{M_L} m) collapses to O(R) once
// M_L = Ω(n^ε); the first table shows the charged rounds of one BFS as
// M_L shrinks.  The second shows the multi-round sample sort's round
// count tracking ceil(log_{M_L} n) and staying correct throughout.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "mapreduce/primitives.hpp"
#include "mr_algos/mr_bfs.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

void print_ml_sweep() {
  const BenchDataset& d = load_bench_dataset("road-b");
  TablePrinter table({"M_L (pairs)", "rounds", "rounds / superstep",
                      "comm pairs"});
  const std::size_t mls[] = {SIZE_MAX, 1 << 20, 1 << 14, 1 << 10, 1 << 6};
  for (const std::size_t ml : mls) {
    mr::Config cfg;
    cfg.local_memory_pairs = ml;
    mr::Engine engine(cfg);
    const auto r = mr_algos::mr_bfs(engine, d.graph(), 0).value();
    table.add_row({ml == SIZE_MAX ? "unbounded" : fmt_u(ml),
                   fmt_u(engine.metrics().rounds),
                   fmt(static_cast<double>(engine.metrics().rounds) /
                           std::max<std::size_t>(1, r.supersteps),
                       2),
                   fmt_u(engine.metrics().pairs_shuffled)});
  }
  table.print("Ablation E.1: BFS rounds vs local memory M_L on road-b",
              "Lemma 3: each growing step costs ceil(log_{M_L} m) rounds; "
              "M_L = Omega(n^eps) recovers O(1) per step.");
}

void print_sort_sweep() {
  TablePrinter table({"n", "M_L", "rounds", "max reducer pairs"});
  Rng rng(8);
  for (const std::size_t n : {1000ul, 100000ul}) {
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng.next_u64();
    for (const std::size_t ml : {SIZE_MAX, 100000ul, 10000ul, 1000ul}) {
      if (ml != SIZE_MAX && ml * ml < n) continue;  // degenerate depth
      mr::Config cfg;
      cfg.local_memory_pairs = ml;
      mr::Engine engine(cfg);
      const auto sorted = mr_sort(engine, values).value();
      const bool ok = std::is_sorted(sorted.begin(), sorted.end());
      table.add_row({fmt_u(n), ml == SIZE_MAX ? "unbounded" : fmt_u(ml),
                     fmt_u(engine.metrics().rounds) + (ok ? "" : " (BROKEN)"),
                     fmt_u(engine.metrics().max_reducer_pairs)});
    }
  }
  table.print("Ablation E.2: Fact-1 sample sort rounds vs M_L",
              "Rounds track ceil(log_{M_L} n); reducer loads stay near "
              "M_L.");
}

void print_spill_sweep() {
  // The out-of-core shuffle under shrinking budgets: one BFS on road-b,
  // spilled bytes and run counts growing as the budget drops while the
  // distances (checked) stay byte-identical to the unbounded run.
  const BenchDataset& d = load_bench_dataset("road-b");
  std::vector<Dist> reference;
  TablePrinter table({"budget (bytes)", "bytes spilled", "runs", "merged",
                      "peak buffer", "wall_s"});
  const std::uint64_t budgets[] = {0, 1 << 22, 1 << 18, 1 << 14};
  for (const std::uint64_t budget : budgets) {
    mr::Config cfg;
    cfg.spill_memory_bytes = budget;
    cfg.spill_strict = budget != 0;
    mr::Engine engine(cfg);
    Timer t;
    const auto r = mr_algos::mr_bfs(engine, d.graph(), 0).value();
    const double wall = t.elapsed_s();
    if (budget == 0) {
      reference = r.dist;
    } else {
      GCLUS_CHECK(r.dist == reference,
                  "spilled BFS diverged from in-memory BFS");
    }
    table.add_row({budget == 0 ? "unbounded" : fmt_u(budget),
                   fmt_u(engine.metrics().bytes_spilled),
                   fmt_u(engine.metrics().spill_runs),
                   fmt_u(engine.metrics().runs_merged),
                   fmt_u(engine.metrics().peak_shuffle_buffer_bytes),
                   fmt(wall, 3)});
  }
  table.print("Ablation E.3: BFS under shrinking spill budgets on road-b",
              "Distances stay byte-identical while the shuffle runs "
              "out-of-core; peak buffer tracks the budget.");
}

void BM_EngineRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::pair<std::uint32_t, std::uint64_t>> input;
  input.reserve(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    input.emplace_back(static_cast<std::uint32_t>(rng.next_below(n / 8 + 1)),
                       i);
  }
  mr::Engine engine;
  for (auto _ : state) {
    auto copy = input;
    auto out = engine.round<std::uint32_t, std::uint64_t, std::uint32_t,
                            std::uint64_t>(
        std::move(copy),
        [](const std::uint32_t& k, std::span<std::uint64_t> vs,
           mr::Emitter<std::uint32_t, std::uint64_t>& emit) {
          std::uint64_t sum = 0;
          for (const auto v : vs) sum += v;
          emit.emit(k, sum);
        }).value();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}

void BM_MrSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ml = static_cast<std::size_t>(state.range(1));
  Rng rng(4);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.next_u64();
  for (auto _ : state) {
    mr::Config cfg;
    cfg.local_memory_pairs = ml;
    mr::Engine engine(cfg);
    auto out = mr_sort(engine, values).value();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}

void BM_MrPrefixSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.next_below(1000);
  for (auto _ : state) {
    mr::Config cfg;
    cfg.local_memory_pairs = 1024;
    mr::Engine engine(cfg);
    auto out = mr_prefix_sum(engine, values).value();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}

BENCHMARK(BM_EngineRound)->Arg(10000)->Arg(100000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_MrSort)
    ->Args({100000, 1 << 20})
    ->Args({100000, 4096})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MrPrefixSum)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_ml_sweep();
  print_sort_sweep();
  print_spill_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
