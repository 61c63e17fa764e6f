#include "mr_algos/mr_bfs.hpp"

#include "common/check.hpp"
#include "mapreduce/superstep.hpp"

namespace gclus::mr_algos {

StatusOr<MrBfsResult> mr_bfs(mr::Engine& engine, const Graph& g,
                             NodeId source) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(source < n);

  MrBfsResult result;
  result.dist.assign(n, kInfDist);
  result.dist[source] = 0;

  // Message payload carries nothing; arrival itself means "you are reached
  // at this superstep".  Uint8 keeps the pair small.
  using Msg = std::uint8_t;
  std::vector<std::pair<NodeId, Msg>> init;
  for (const NodeId w : g.neighbors(source)) init.emplace_back(w, Msg{0});

  // Combiner: arrivals carry no payload, so same-destination duplicates
  // collapse to one (frontier dedup — the reducer only cares *that* a
  // message arrived).
  const auto supersteps = mr::run_supersteps<Msg>(
      engine, std::move(init),
      [&](std::size_t superstep, NodeId v, std::span<Msg>,
          mr::Outbox<Msg>& out) {
        if (result.dist[v] != kInfDist) return;  // duplicate arrival
        result.dist[v] = static_cast<Dist>(superstep + 1);
        for (const NodeId w : g.neighbors(v)) out.send(w, Msg{0});
      },
      /*max_supersteps=*/SIZE_MAX,
      /*charge_items=*/g.num_half_edges(),
      /*combine=*/[](const Msg& a, const Msg&) { return a; });
  GCLUS_RETURN_IF_ERROR(supersteps.status());
  result.supersteps = *supersteps;

  for (const Dist d : result.dist) {
    if (d != kInfDist) result.eccentricity = std::max(result.eccentricity, d);
  }
  return result;
}

StatusOr<MrBfsDiameterResult> mr_bfs_diameter(mr::Engine& engine,
                                              const Graph& g, NodeId source) {
  GCLUS_ASSIGN_OR_RETURN(const MrBfsResult bfs, mr_bfs(engine, g, source));
  MrBfsDiameterResult out;
  out.estimate = 2ULL * bfs.eccentricity;
  out.supersteps = bfs.supersteps;
  return out;
}

}  // namespace gclus::mr_algos
