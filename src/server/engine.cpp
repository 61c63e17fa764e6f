#include "server/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace gclus::server {

namespace {

/// The kClusterNeighborhood answer: BFS from `start` into
/// scratch.neighborhood, sorted, then digested.
std::uint64_t neighborhood_digest(const OracleArtifact& a, ClusterId start,
                                  std::uint32_t hops, QueryScratch& scratch) {
  const auto k = static_cast<std::size_t>(a.meta.num_clusters);
  if (scratch.mark.size() < k) scratch.mark.assign(k, 0);
  if (++scratch.epoch == 0) {  // epoch wrapped: all marks are stale
    std::fill(scratch.mark.begin(), scratch.mark.end(), 0);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;

  std::vector<ClusterId>& out = scratch.neighborhood;
  out.clear();
  scratch.frontier.clear();
  scratch.mark[start] = epoch;
  scratch.frontier.push_back(start);
  out.push_back(start);
  for (std::uint32_t level = 0; level < hops && !scratch.frontier.empty();
       ++level) {
    scratch.next.clear();
    for (const ClusterId c : scratch.frontier) {
      const EdgeId begin = a.quotient_offsets[c];
      const EdgeId end = a.quotient_offsets[c + 1];
      for (EdgeId e = begin; e < end; ++e) {
        const ClusterId d = a.quotient_neighbors[e];
        if (scratch.mark[d] != epoch) {
          scratch.mark[d] = epoch;
          scratch.next.push_back(d);
          out.push_back(d);
        }
      }
    }
    std::swap(scratch.frontier, scratch.next);
  }
  std::sort(out.begin(), out.end());
  std::uint64_t h = out.size();
  for (const ClusterId c : out) h = hash_combine(h, c);
  return h;
}

}  // namespace

StatusOr<QueryEngine> QueryEngine::build(const Graph& g,
                                         const DistanceOracleOptions& opts) {
  if (g.num_nodes() == 0) {
    return InvalidArgumentError("cannot build a query engine over an empty "
                                "graph");
  }
  return serve(build_oracle_artifact(g, opts));
}

StatusOr<QueryEngine> QueryEngine::load(const Graph& g,
                                        const std::string& path) {
  OracleArtifact a;
  GCLUS_ASSIGN_OR_RETURN(a, load_oracle_artifact(path));
  GCLUS_RETURN_IF_ERROR(validate_artifact_for_graph(a, g));
  return serve(std::move(a));
}

StatusOr<QueryEngine> QueryEngine::reload(const std::string& path) const {
  OracleArtifact a;
  GCLUS_ASSIGN_OR_RETURN(a, load_oracle_artifact(path));
  GCLUS_RETURN_IF_ERROR(validate_artifact_binding(
      a.meta, artifact_.meta.graph_num_nodes,
      artifact_.meta.graph_num_half_edges, artifact_.meta.graph_checksum));
  return serve(std::move(a));
}

StatusOr<QueryEngine> QueryEngine::serve(OracleArtifact a) {
  // kInfWeight: two clusters cannot reach each other; d′ has no value.
  if (std::find(a.apsp.begin(), a.apsp.end(), kInfWeight) != a.apsp.end()) {
    return InvalidArgumentError(
        "oracle APSP has unreachable cluster pairs (built over a "
        "disconnected graph)");
  }
  return QueryEngine(std::move(a));
}

StatusOr<QueryEngine> QueryEngine::load_or_build(
    const Graph& g, const std::string& path, const DistanceOracleOptions& opts,
    LoadReport* report) {
  LoadReport local;
  LoadReport& rep = report != nullptr ? *report : local;
  rep = LoadReport{};

  auto loaded = load(g, path);
  if (loaded.ok()) {
    rep.loaded_from_artifact = true;
    return loaded;
  }
  const StatusCode code = loaded.status().code();
  if (code == StatusCode::kDataLoss || code == StatusCode::kInvalidArgument) {
    // A corrupt (or wrong-graph) sidecar would otherwise poison every
    // later restart; evict it so the republish below heals the path.
    std::fprintf(stderr, "gclus: evicting corrupt oracle artifact %s (%s)\n",
                 path.c_str(), loaded.status().to_string().c_str());
    std::error_code ec;
    std::filesystem::remove(path, ec);  // best effort; rebuild either way
    rep.evicted_corrupt = true;
  }

  auto built = build(g, opts);
  if (!built.ok()) return built;
  rep.rebuilt = true;
  // Best-effort republish: an unwritable volume degrades to serving the
  // in-memory build, never fails the caller.
  rep.republished = built->save(path).ok();
  return built;
}

Status QueryEngine::save(const std::string& path) const {
  return write_oracle_artifact(artifact_, path);
}

void QueryEngine::execute(std::span<const Query> queries,
                          std::span<QueryResult> results,
                          QueryScratch& scratch) const {
  GCLUS_CHECK(queries.size() == results.size(),
              "execute needs one result slot per query");
  const auto n = static_cast<NodeId>(artifact_.cluster_of.size());
  const ClusterId* const label = artifact_.cluster_of.data();
  const Dist* const radius = artifact_.dist_to_center.data();
  const Weight* const apsp = artifact_.apsp.data();
  const std::size_t k = artifact_.meta.num_clusters;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query q = queries[i];
    // `arg` is a node id for every kind but the neighborhood's hop count.
    const bool arg_is_node = q.kind != QueryKind::kClusterNeighborhood;
    if (q.u >= n || (arg_is_node && q.arg >= n)) {
      results[i] = {StatusCode::kInvalidArgument, 0};
      continue;
    }
    switch (q.kind) {
      case QueryKind::kApproxDistance: {
        // d′(u,v) = dist(u, ctr(u)) + apsp[c(u)][c(v)] + dist(v, ctr(v));
        // the APSP term drops out inside one cluster (u -> center -> v).
        const ClusterId cu = label[q.u];
        const ClusterId cv = label[q.arg];
        std::uint64_t d = std::uint64_t{radius[q.u]} + radius[q.arg];
        if (cu != cv) d += apsp[std::size_t{cu} * k + cv];
        results[i] = {StatusCode::kOk, q.u == q.arg ? 0 : d};
        break;
      }
      case QueryKind::kSameCluster:
        results[i] = {StatusCode::kOk, label[q.u] == label[q.arg] ? 1U : 0U};
        break;
      case QueryKind::kClusterNeighborhood:
        results[i] = {StatusCode::kOk,
                      neighborhood_digest(artifact_, label[q.u], q.arg,
                                          scratch)};
        break;
      default:  // an unknown kind byte is a malformed request
        results[i] = {StatusCode::kInvalidArgument, 0};
    }
  }
}

StatusOr<std::uint64_t> QueryEngine::approx_distance(NodeId u,
                                                     NodeId v) const {
  const Query q{QueryKind::kApproxDistance, u, v};
  QueryResult r;
  QueryScratch unused;  // the distance kind never touches scratch
  execute({&q, 1}, {&r, 1}, unused);
  if (r.code != StatusCode::kOk) {
    return InvalidArgumentError("node id out of range");
  }
  return r.value;
}

QueryResult execute_query(const QueryEngine& engine, const Query& q,
                          QueryScratch& scratch,
                          std::vector<ClusterId>& neighborhood_buf) {
  QueryResult r;
  engine.execute({&q, 1}, {&r, 1}, scratch);
  if (q.kind == QueryKind::kClusterNeighborhood) {
    neighborhood_buf.swap(scratch.neighborhood);
  }
  return r;
}

}  // namespace gclus::server
