// QueryEngine — the embeddable half of the decomposition query service.
//
// One engine = one immutable (graph, oracle artifact) pair.  The artifact
// is the §4 distance oracle itself (server/artifact.hpp), and
// approx_distance is the one place its query formula d′(u,v) is
// evaluated.  The graph is
// typically an mmap-backed CSR v2 load and the artifact either a fresh
// decomposition (build) or an mmap-ed sidecar (load) — both read-only, so
// any number of threads may query one engine concurrently with no
// synchronization.  Per-query scratch lives in QueryScratch: one instance
// per worker thread.
//
// Query errors follow the PR 6 taxonomy: out-of-range node ids are
// kInvalidArgument (the request is wrong, the server is fine); nothing in
// the query path aborts.  Answers are pure functions of the artifact
// payload, so two engines over byte-identical artifacts — e.g. a fresh
// build and a restart that mmap-loaded what the build published — return
// byte-identical results for every query.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "server/artifact.hpp"

namespace gclus::server {

/// Reusable per-worker scratch for cluster_neighborhood's quotient BFS.
/// Epoch-stamped visit marks: reset is O(1) per query, the arrays are
/// sized to the cluster count on first use and never shrink.
struct QueryScratch {
  std::vector<std::uint32_t> mark;
  std::uint32_t epoch = 0;
  std::vector<ClusterId> frontier;
  std::vector<ClusterId> next;
};

class QueryEngine {
 public:
  /// How load_or_build obtained its engine — the observability the
  /// restart path and the fault sweep assert on.
  struct LoadReport {
    bool loaded_from_artifact = false;  ///< served straight from the sidecar
    bool evicted_corrupt = false;       ///< removed a corrupt sidecar
    bool rebuilt = false;               ///< ran the decomposition
    bool republished = false;           ///< rewrote the sidecar after rebuild
  };

  /// Runs the decomposition on `g` and serves from the result.
  /// kInvalidArgument when `g` is empty or not connected (the oracle's
  /// APSP backend needs every cluster pair reachable).
  [[nodiscard]] static StatusOr<QueryEngine> build(
      Graph g, const DistanceOracleOptions& opts = {});

  /// Serves from an already-loaded artifact; validates it matches `g`.
  [[nodiscard]] static StatusOr<QueryEngine> from_artifact(Graph g,
                                                           OracleArtifact a);

  /// Loads the sidecar at `path` (mmap-fast, checksum-validated) and
  /// serves from it.  Fails rather than rebuilding — the restart path
  /// callers use to *guarantee* no decomposition ran.
  [[nodiscard]] static StatusOr<QueryEngine> load(
      Graph g, const std::string& path,
      const ArtifactLoadOptions& opts = {});

  /// The resilient entry point: load `path`; on a corrupt sidecar
  /// (kDataLoss / kInvalidArgument) evict it, rebuild from `g`, and
  /// republish best-effort — the dataset-cache evict+regenerate
  /// discipline.  Only an unbuildable graph fails.
  [[nodiscard]] static StatusOr<QueryEngine> load_or_build(
      Graph g, const std::string& path, const DistanceOracleOptions& opts = {},
      LoadReport* report = nullptr);

  /// Publishes this engine's artifact to `path` (atomic, fsync-ed).
  [[nodiscard]] Status save(const std::string& path) const;

  // ---- queries --------------------------------------------------------------

  /// The oracle's d′(u, v) = dist(u, ctr(u)) + apsp[c(u)][c(v)] +
  /// dist(v, ctr(v)) (the APSP term drops out when c(u) == c(v)): an
  /// upper bound on dist(u, v), exact 0 for u == v.  kInvalidArgument on
  /// out-of-range ids.
  [[nodiscard]] StatusOr<std::uint64_t> approx_distance(NodeId u,
                                                        NodeId v) const;

  /// Whether u and v landed in the same cluster of the decomposition.
  [[nodiscard]] StatusOr<bool> same_cluster(NodeId u, NodeId v) const;

  /// All clusters within `hops` quotient-graph hops of u's cluster
  /// (including it), ascending — deterministic regardless of traversal
  /// order.  `out` is cleared and filled; scratch must not be shared
  /// across concurrent calls.
  [[nodiscard]] Status cluster_neighborhood(NodeId u, std::uint32_t hops,
                                            QueryScratch& scratch,
                                            std::vector<ClusterId>& out) const;

  /// Allocating convenience wrapper for one-shot callers.
  [[nodiscard]] StatusOr<std::vector<ClusterId>> cluster_neighborhood(
      NodeId u, std::uint32_t hops) const;

  // ---- introspection --------------------------------------------------------

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] const OracleArtifact& artifact() const { return artifact_; }
  [[nodiscard]] NodeId num_nodes() const { return graph_.num_nodes(); }
  [[nodiscard]] ClusterId num_clusters() const {
    return static_cast<ClusterId>(artifact_.meta.num_clusters);
  }
  [[nodiscard]] Dist max_radius() const { return artifact_.meta.max_radius; }
  /// True when the artifact came from a sidecar file (mmap or copy), i.e.
  /// this engine never ran the decomposition.
  [[nodiscard]] bool loaded_from_artifact() const {
    return loaded_from_artifact_;
  }

 private:
  QueryEngine(Graph g, OracleArtifact a, bool loaded)
      : graph_(std::move(g)),
        artifact_(std::move(a)),
        loaded_from_artifact_(loaded) {}

  [[nodiscard]] Status check_node(NodeId u) const;

  Graph graph_;
  OracleArtifact artifact_;
  bool loaded_from_artifact_ = false;
};

}  // namespace gclus::server
