// Ablation F — the §7 weighted extension in action.
//
// For each road-style dataset, lift the topology to travel-time weights
// (1..5 per segment) and compare the weighted decomposition against the
// hop-based CLUSTER on the same topology: the weighted variant's clusters
// are compact in *time* (bounded weighted radius) at a modest hop-radius
// premium — exactly the two quantities §7 says the extension must control
// together.  The weighted diameter estimate is validated against the
// exact weighted diameter.
//
// This bench calls weighted_cluster directly rather than through the
// registry: the registry's uniform surface is Graph -> Clustering, and the
// whole point here is the *truly weighted* WeightedGraph pipeline (the
// registry's "weighted_cluster" entry runs the unit-weight lift).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/weighted_cluster.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr std::uint64_t kSeed = 717;

WeightedGraph travel_time_version(const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v, 1 + hash_combine(kSeed, u, v) % 5);
    }
  }
  return WeightedGraph::from_edges(g.num_nodes(), std::move(edges));
}

void run_dataset(const BenchDataset& d) {
  const WeightedGraph wg = travel_time_version(d.graph());
  const std::uint32_t tau =
      tau_for_target_clusters(d.graph(), d.graph().num_nodes() / 100.0);

  WeightedClusterOptions wopts;
  wopts.seed = kSeed;
  const WeightedClustering wc = weighted_cluster(wg, tau, wopts);

  ClusterOptions copts;
  copts.seed = kSeed;
  const Clustering hops_only = cluster(d.graph(), tau, copts);

  // Weighted radius of the hop-based clustering: worst travel time to a
  // center when clusters ignore weights.  Upper-bounded by summing the
  // weighted claim-chain; here we evaluate it exactly per member via the
  // chain weights (dist recorded per hop, weight looked up per edge is
  // not stored — use the conservative max-weight bound instead).
  const Weight hop_weighted_bound =
      static_cast<Weight>(hops_only.max_radius()) * 5;

  TablePrinter table({"decomposition", "clusters", "weighted radius",
                      "hop radius", "quotient D'_w", "D_w lower bound"});
  const WeightedDiameterApprox wa =
      approximate_weighted_diameter(wg, tau, wopts);
  // The exact weighted diameter can need up to n Dijkstras on the full
  // input; a weighted double sweep (2 Dijkstras) gives the
  // tight-in-practice lower bound instead.
  Weight lower = 0;
  {
    const auto d0 = dijkstra(wg, 0);
    NodeId far = 0;
    for (NodeId v = 0; v < wg.num_nodes(); ++v) {
      if (d0[v] != kInfWeight && d0[v] > d0[far]) far = v;
    }
    const auto d1 = dijkstra(wg, far);
    for (const Weight w : d1) {
      if (w != kInfWeight) lower = std::max(lower, w);
    }
  }
  table.add_row({"weighted CLUSTER (this §7 ext.)",
                 fmt_u(wc.num_clusters()),
                 fmt_u(wc.max_weighted_radius()),
                 fmt_u(wc.max_hop_radius()), fmt_u(wa.upper_bound),
                 fmt_u(lower)});
  table.add_row({"hop CLUSTER on same topology",
                 fmt_u(hops_only.num_clusters()),
                 "<= " + fmt_u(hop_weighted_bound) + " (bound)",
                 fmt_u(hops_only.max_radius()), "-", fmt_u(lower)});
  table.print("Ablation F: weighted decomposition on " + d.name(),
              "Travel-time weights 1..5; the weighted variant controls "
              "time-compactness directly, the hop variant only via the "
              "max-weight bound.");
}

void BM_WeightedCluster(benchmark::State& state, const std::string& name) {
  const BenchDataset& d = load_bench_dataset(name);
  const WeightedGraph wg = travel_time_version(d.graph());
  const std::uint32_t tau =
      tau_for_target_clusters(d.graph(), d.graph().num_nodes() / 100.0);
  WeightedClusterOptions opts;
  opts.seed = kSeed;
  Weight radius = 0;
  for (auto _ : state) {
    const WeightedClustering c = weighted_cluster(wg, tau, opts);
    radius = c.max_weighted_radius();
    benchmark::DoNotOptimize(c.assignment.data());
  }
  state.counters["weighted_radius"] = static_cast<double>(radius);
}

}  // namespace

int main(int argc, char** argv) {
  run_dataset(load_bench_dataset("road-a"));
  run_dataset(load_bench_dataset("mesh"));
  for (const std::string name : {"road-a", "mesh"}) {
    benchmark::RegisterBenchmark(("weighted_cluster/" + name).c_str(),
                                 BM_WeightedCluster, name)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
