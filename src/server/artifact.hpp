// Serialized distance-oracle artifacts — the "decompose once, serve many
// restarts" half of the query service.
//
// An OracleArtifact *is* the §4 distance oracle — there is no second
// in-memory form.  For a fixed (graph, seed, τ) triple it holds the
// per-node cluster labels and dist-to-center values of oracle_clustering
// (core/distance_oracle.hpp), the cluster centers, the weighted quotient
// graph in CSR form, and the dense quotient APSP matrix; QueryEngine
// (server/engine.hpp) evaluates the query formula over it.  A server
// restart mmaps this sidecar (checksum-validated) instead of re-running
// the decomposition, and serves byte-identical answers because the
// payload is the oracle's exact state.
//
// On-disk layout, CSR v2 dialect (all integers little-endian, sections
// 64-byte aligned, FNV-1a payload checksum — see graph/wire.hpp):
//
//   offset  size  field
//   0       8     magic "GCLUSORC"
//   8       4     version (1)
//   12      4     flags (none defined; must be 0)
//   16      8     graph_num_nodes n      (validated against the served graph)
//   24      8     graph_num_half_edges m (likewise)
//   32      8     num_clusters k
//   40      8     quotient_num_half_edges qm
//   48      8     build_seed (the RunContext master seed of the build)
//   56      4     tau (resolved — never the 0 "auto" sentinel)
//   60      4     use_cluster2 (0 or 1)
//   64      4     max_radius
//   68      4     padding (must be 0)
//   72      8     labels_pos      → n  × u32 (cluster_of)
//   80      8     dist_pos        → n  × u32 (dist_to_center)
//   88      8     centers_pos     → k  × u32 (center node of each cluster)
//   96      8     qoffsets_pos    → k+1 × u64 (quotient CSR offsets)
//   104     8     qneighbors_pos  → qm × u32 (quotient CSR neighbors)
//   112     8     qweights_pos    → qm × u64 (quotient CSR edge weights)
//   120     8     apsp_pos        → k·k × u64 (row-major APSP matrix)
//   128     8     checksum (FNV-1a 64 over header bytes [0, 128) followed
//                 by the payload sections in order — every metadata field
//                 is integrity-protected, not only the bulk arrays)
//   136     8     reserved (must be 0)
//
// Error handling follows graph/io.hpp: kInvalidArgument means the bytes
// don't claim to be a supported artifact, kDataLoss means they do but are
// truncated / checksum-mismatched / structurally corrupt, kIoError means
// the environment failed.  Writing publishes atomically through
// io::publish_file (private temp file, fsync, rename, directory fsync —
// the dataset cache publishes the same way), so readers never observe a
// torn artifact.  Fault points:
// "artifact.write", "artifact.publish", "artifact.load", plus the io.*
// points under the shared file mapping path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/status.hpp"
#include "core/distance_oracle.hpp"
#include "graph/graph.hpp"

namespace gclus::server {

/// Header-resident build metadata.
struct OracleArtifactMeta {
  std::uint64_t graph_num_nodes = 0;
  std::uint64_t graph_num_half_edges = 0;
  std::uint64_t num_clusters = 0;
  std::uint64_t quotient_num_half_edges = 0;
  std::uint64_t build_seed = 0;
  std::uint32_t tau = 0;  ///< resolved granularity, never the 0 sentinel
  bool use_cluster2 = true;
  Dist max_radius = 0;
};

/// A loaded (or freshly built) artifact: metadata plus read-only views of
/// the payload sections.  `storage` pins whatever backs the spans — an
/// mmap-ed file or owned vectors — for as long as any copy lives, the
/// same keepalive contract as non-owning Graphs, so copies are cheap and
/// the file may be replaced (atomic republish) while in use.
struct OracleArtifact {
  OracleArtifactMeta meta;

  std::span<const ClusterId> cluster_of;       ///< n entries
  std::span<const Dist> dist_to_center;        ///< n entries
  std::span<const NodeId> centers;             ///< k entries
  std::span<const EdgeId> quotient_offsets;    ///< k+1 entries
  std::span<const ClusterId> quotient_neighbors;  ///< qm entries
  std::span<const Weight> quotient_weights;    ///< qm entries
  std::span<const Weight> apsp;                ///< k·k entries, row-major

  /// True when the spans view an mmap-ed file (zero-copy load).
  bool mapped = false;

  std::shared_ptr<const void> storage;
};

/// Builds the oracle over the connected graph `g`: oracle_clustering, the
/// weighted quotient, its APSP matrix, each moved into a payload the
/// artifact owns (mapped == false).  Telemetry (when opts.telemetry is
/// set): oracle_clustering's, then "oracle.quotient_nodes",
/// "oracle.quotient_half_edges", "oracle.apsp_small_path" (1 when the
/// linear-scan small-quotient APSP path was taken).
[[nodiscard]] OracleArtifact build_oracle_artifact(
    const Graph& g, const DistanceOracleOptions& opts = {});

/// Serializes `a` to `path` atomically: temp file next to the target,
/// fsync, rename over `path`, directory fsync.  kIoError on environmental
/// failure; a failed attempt never leaves a partial file under `path`
/// (the temp file is removed best-effort).
[[nodiscard]] Status write_oracle_artifact(const OracleArtifact& a,
                                           const std::string& path);

struct ArtifactLoadOptions {
  /// mmap the file when the platform allows (falling back to a copy);
  /// false forces the copy path.
  bool prefer_mmap = true;
};

/// Loads an artifact written by write_oracle_artifact.  Every load
/// verifies the payload checksum and the structural invariants every
/// query-time index depends on (labels < k, quotient CSR well-formed,
/// centers consistent) in one sequential pass.  Error codes as in the
/// header comment; never aborts on corrupt input.
[[nodiscard]] StatusOr<OracleArtifact> load_oracle_artifact(
    const std::string& path, const ArtifactLoadOptions& opts = {});

/// Checks that `a` was built over a graph shaped like `g` (node and
/// half-edge counts).  kInvalidArgument on mismatch — serving labels of a
/// different graph would silently answer garbage.
[[nodiscard]] Status validate_artifact_for_graph(const OracleArtifact& a,
                                                 const Graph& g);

}  // namespace gclus::server
