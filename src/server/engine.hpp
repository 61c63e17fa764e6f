// QueryEngine — the embeddable half of the decomposition query service.
//
// One engine = one immutable oracle artifact; no query reads the graph.
// The artifact is the §4 distance oracle itself (server/artifact.hpp), and
// execute() is the one query kernel: d′(u,v) and the same-cluster compare
// are evaluated inline over the artifact's spans; only the neighborhood
// BFS branches out of line.  The artifact is either a fresh decomposition
// (build) or an mmap-ed sidecar (load, reload) — read-only, so any number
// of threads may query one engine concurrently with no synchronization.
// Per-query scratch lives in QueryScratch: one instance per worker thread.
//
// Query errors: an out-of-range node id fails its query alone with
// kInvalidArgument, decided by one compare per id with no message; the
// rest of the batch executes and nothing in the query path aborts.
// Answers are pure functions of the artifact payload, so two engines over
// byte-identical artifacts — e.g. a fresh build and a restart that
// mmap-loaded what the build published — return
// byte-identical results for every query.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "server/artifact.hpp"

namespace gclus::server {

enum class QueryKind : std::uint8_t {
  kApproxDistance = 0,
  kSameCluster = 1,
  kClusterNeighborhood = 2,
};

struct Query {
  QueryKind kind = QueryKind::kApproxDistance;
  NodeId u = 0;
  /// kApproxDistance / kSameCluster: the second node id.
  /// kClusterNeighborhood: the hop radius in the quotient graph.
  std::uint32_t arg = 0;
};

struct QueryResult {
  /// kOk, or kInvalidArgument for an out-of-range node id or unknown kind.
  StatusCode code = StatusCode::kOk;
  /// kApproxDistance: d′(u, v), an upper bound on dist(u, v), 0 for
  /// u == v.  kSameCluster: 0 or 1.  kClusterNeighborhood: an
  /// order-sensitive digest (size folded in) of the ascending clusters
  /// within `arg` quotient hops of u's cluster, the list
  /// QueryScratch::neighborhood holds after the query.
  std::uint64_t value = 0;

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

/// Reusable per-worker scratch for the neighborhood query's quotient BFS.
/// Epoch-stamped visit marks: reset is O(1) per query, the arrays are
/// sized to the cluster count on first use and never shrink.
struct QueryScratch {
  std::vector<std::uint32_t> mark;
  std::uint32_t epoch = 0;
  std::vector<ClusterId> frontier;
  std::vector<ClusterId> next;
  std::vector<ClusterId> neighborhood;  ///< the last neighborhood's list
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
      const Graph& g, const DistanceOracleOptions& opts = {});

  /// Loads the sidecar at `path` (mmap-fast, checksum-validated) and
  /// serves from it.  Fails rather than rebuilding — the restart path
  /// callers use to *guarantee* no decomposition ran.
  [[nodiscard]] static StatusOr<QueryEngine> load(const Graph& g,
                                                  const std::string& path);

  /// The resilient entry point: load `path`; on a corrupt sidecar
  /// (kDataLoss / kInvalidArgument) evict it, rebuild from `g`, and
  /// republish best-effort — the dataset-cache evict+regenerate
  /// discipline.  Only an unbuildable graph fails.
  [[nodiscard]] static StatusOr<QueryEngine> load_or_build(
      const Graph& g, const std::string& path,
      const DistanceOracleOptions& opts = {}, LoadReport* report = nullptr);

  /// The hot-reload path: loads the sidecar at `path` as this engine's
  /// successor, accepted only if it records the same graph as this
  /// engine's artifact (validate_artifact_binding) — no graph, no
  /// checksum pass.  Errors as load().
  [[nodiscard]] StatusOr<QueryEngine> reload(const std::string& path) const;

  /// Publishes this engine's artifact to `path` (atomic, fsync-ed).
  [[nodiscard]] Status save(const std::string& path) const;

  // ---- queries --------------------------------------------------------------

  /// The query kernel: answers queries[i] into results[i] (equal sizes).
  /// `scratch` must not be shared across concurrent calls.
  void execute(std::span<const Query> queries, std::span<QueryResult> results,
               QueryScratch& scratch) const;

  /// One kApproxDistance query through execute(): d′(u, v), or
  /// kInvalidArgument on an out-of-range id.
  [[nodiscard]] StatusOr<std::uint64_t> approx_distance(NodeId u,
                                                        NodeId v) const;

  // ---- introspection --------------------------------------------------------

  [[nodiscard]] const OracleArtifact& artifact() const { return artifact_; }
  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(artifact_.meta.graph_num_nodes);
  }
  [[nodiscard]] ClusterId num_clusters() const {
    return static_cast<ClusterId>(artifact_.meta.num_clusters);
  }
  [[nodiscard]] Dist max_radius() const { return artifact_.meta.max_radius; }

 private:
  explicit QueryEngine(OracleArtifact a) : artifact_(std::move(a)) {}

  /// Serves `a` unless its APSP has an unreachable cluster pair.
  [[nodiscard]] static StatusOr<QueryEngine> serve(OracleArtifact a);

  OracleArtifact artifact_;
};

/// One query through QueryEngine::execute (the serial replay of the
/// determinism checks).  A successful neighborhood query leaves its
/// cluster list in `neighborhood_buf`, a reusable buffer like `scratch`.
[[nodiscard]] QueryResult execute_query(
    const QueryEngine& engine, const Query& q, QueryScratch& scratch,
    std::vector<ClusterId>& neighborhood_buf);

}  // namespace gclus::server
