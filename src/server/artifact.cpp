#include "server/artifact.hpp"

#include <array>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/faultpoint.hpp"
#include "core/quotient.hpp"
#include "graph/io.hpp"
#include "graph/weighted.hpp"
#include "graph/wire.hpp"

namespace gclus::server {

namespace {

using namespace io::wire;

namespace fs = std::filesystem;

// Bytes "GCLUSORC" when stored little-endian.
constexpr std::uint64_t kOrcMagic = 0x43524F53554C4347ULL;
constexpr std::uint32_t kOrcVersion = 2;
constexpr std::uint64_t kOrcHeaderBytes = 144;
/// Header bytes under the checksum: everything before the checksum field.
constexpr std::uint64_t kOrcChecksumCoverBytes = 136;
/// Header byte of the first of the seven section positions.
constexpr std::uint64_t kOrcPositionsAt = 72;

/// The seven payload sections in file order; header byte 72 + 8i holds
/// the position of section i.
std::array<Section, 7> orc_sections(const OracleArtifactMeta& m) {
  const std::uint64_t n = m.graph_num_nodes;
  const std::uint64_t k = m.num_clusters;
  const std::uint64_t qm = m.quotient_num_half_edges;
  return {{{.count = n, .width = 4},        // labels: cluster_of
           {.count = n, .width = 4},        // dist_to_center
           {.count = k, .width = 4},        // centers
           {.count = k + 1, .width = 8},    // quotient offsets
           {.count = qm, .width = 4},       // quotient neighbors
           {.count = qm, .width = 8},       // quotient weights
           {.count = k * k, .width = 8}}};  // row-major APSP
}

/// The payload vectors an owned (built or copy-loaded) artifact views.
struct OwnedPayload {
  std::vector<ClusterId> cluster_of;
  std::vector<Dist> dist_to_center;
  std::vector<NodeId> centers;
  std::vector<EdgeId> quotient_offsets;
  std::vector<ClusterId> quotient_neighbors;
  std::vector<Weight> quotient_weights;
  std::vector<Weight> apsp;
};

OracleArtifact artifact_from_owned(OracleArtifactMeta meta,
                                   std::shared_ptr<OwnedPayload> owned) {
  OracleArtifact a;
  a.meta = meta;
  a.cluster_of = owned->cluster_of;
  a.dist_to_center = owned->dist_to_center;
  a.centers = owned->centers;
  a.quotient_offsets = owned->quotient_offsets;
  a.quotient_neighbors = owned->quotient_neighbors;
  a.quotient_weights = owned->quotient_weights;
  a.apsp = owned->apsp;
  a.mapped = false;
  a.storage = std::move(owned);
  return a;
}

/// Serializes `a` to `path` in one pass (no atomicity — the caller
/// publishes the temp file this writes).
Status write_artifact_bytes(const OracleArtifact& a, const std::string& path) {
  const OracleArtifactMeta& m = a.meta;
  auto table = orc_sections(m);
  const void* payload[] = {
      a.cluster_of.data(),         a.dist_to_center.data(),
      a.centers.data(),            a.quotient_offsets.data(),
      a.quotient_neighbors.data(), a.quotient_weights.data(),
      a.apsp.data()};
  for (std::size_t i = 0; i < table.size(); ++i) table[i].data = payload[i];
  place_sections(table, kOrcHeaderBytes);

  // Assemble the header in memory: the checksum covers its first 136
  // bytes, so they must exist before the checksum can be computed.
  std::array<std::byte, kOrcHeaderBytes> header{};  // padding: 0
  store_le_at(header.data() + 0, kOrcMagic);
  store_le_at(header.data() + 8, kOrcVersion);
  store_le_at(header.data() + 12, std::uint32_t{0});  // flags
  store_le_at(header.data() + 16, m.graph_num_nodes);
  store_le_at(header.data() + 24, m.graph_num_half_edges);
  store_le_at(header.data() + 32, m.num_clusters);
  store_le_at(header.data() + 40, m.quotient_num_half_edges);
  store_le_at(header.data() + 48, m.build_seed);
  store_le_at(header.data() + 56, m.tau);
  store_le_at(header.data() + 60, std::uint32_t{m.use_cluster2 ? 1u : 0u});
  store_le_at(header.data() + 64, m.max_radius);
  for (std::size_t i = 0; i < table.size(); ++i) {
    store_le_at(header.data() + kOrcPositionsAt + 8 * i, table[i].pos);
  }
  store_le_at(header.data() + 128, m.graph_checksum);
  // The checksum covers every metadata field, not only the ones the
  // parser can cross-check, and then the payload sections.
  store_le_at(header.data() + kOrcChecksumCoverBytes,
              std::uint64_t{checksum_sections(
                  crc32c(0, header.data(), kOrcChecksumCoverBytes), table)});

  std::ofstream out(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("artifact.write") || !out.good()) {
    return IoError("cannot open artifact for writing: " + path);
  }
  emit_sections(out, header, table);
  if (!out.good()) {
    return IoError("artifact write failed (disk full or I/O error): " + path);
  }
  return OkStatus();
}

/// Parses the header and checks its section table against the file size.
/// kInvalidArgument: the bytes don't claim to be a supported artifact;
/// kDataLoss: they do, but the structure is inconsistent.
Status parse_header(std::span<const std::byte> file, OracleArtifactMeta& m,
                    std::array<Section, 7>& table) {
  const std::byte* data = file.data();
  const std::uint64_t size = file.size();
  if (size < 8 || read_le_at<std::uint64_t>(data) != kOrcMagic) {
    return InvalidArgumentError("not a gclus oracle artifact (bad magic)");
  }
  if (size < kOrcHeaderBytes) {
    return DataLossError("file shorter than an artifact header");
  }
  if (read_le_at<std::uint32_t>(data + 8) != kOrcVersion) {
    return InvalidArgumentError("unsupported artifact version");
  }
  if (read_le_at<std::uint32_t>(data + 12) != 0) {
    return InvalidArgumentError("unknown artifact flags");
  }
  m.graph_num_nodes = read_le_at<std::uint64_t>(data + 16);
  m.graph_num_half_edges = read_le_at<std::uint64_t>(data + 24);
  m.num_clusters = read_le_at<std::uint64_t>(data + 32);
  m.quotient_num_half_edges = read_le_at<std::uint64_t>(data + 40);
  m.build_seed = read_le_at<std::uint64_t>(data + 48);
  m.tau = read_le_at<std::uint32_t>(data + 56);
  const std::uint32_t use_cluster2 = read_le_at<std::uint32_t>(data + 60);
  m.max_radius = read_le_at<std::uint32_t>(data + 64);
  m.graph_checksum = read_le_at<std::uint64_t>(data + 128);
  if (read_le_at<std::uint32_t>(data + 68) != 0) {
    return InvalidArgumentError("nonzero artifact header padding");
  }

  if (use_cluster2 > 1) {
    return DataLossError("corrupt artifact header (use_cluster2 flag)");
  }
  m.use_cluster2 = use_cluster2 == 1;
  if (m.graph_num_nodes == 0 ||
      m.graph_num_nodes > std::numeric_limits<NodeId>::max()) {
    return DataLossError("artifact node count out of NodeId range");
  }
  if (m.num_clusters == 0 || m.num_clusters > m.graph_num_nodes) {
    return DataLossError("artifact cluster count out of range");
  }
  if (m.tau == 0) {
    return DataLossError("corrupt artifact header (zero tau)");
  }

  table = orc_sections(m);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i].pos = read_le_at<std::uint64_t>(data + kOrcPositionsAt + 8 * i);
  }
  if (!sections_fit(table, kOrcHeaderBytes, size)) {
    return DataLossError("truncated artifact (section out of bounds)");
  }
  return OkStatus();
}

/// Structural validation of the decoded sections: every index a query
/// will ever compute stays in range.  Guards the serving path against
/// corrupted-but-checksum-consistent (e.g. maliciously crafted) files.
Status validate_artifact_arrays(const OracleArtifact& a) {
  const std::uint64_t k = a.meta.num_clusters;
  const std::uint64_t n = a.meta.graph_num_nodes;
  for (const ClusterId c : a.cluster_of) {
    if (c >= k) {
      return DataLossError("corrupt artifact (cluster label out of range)");
    }
  }
  for (std::size_t c = 0; c < a.centers.size(); ++c) {
    const NodeId ctr = a.centers[c];
    if (ctr >= n || a.cluster_of[ctr] != c || a.dist_to_center[ctr] != 0) {
      return DataLossError("corrupt artifact (center labels inconsistent)");
    }
  }
  GCLUS_RETURN_IF_ERROR(io::validate_csr_arrays(
      a.quotient_offsets, a.quotient_neighbors, "corrupt artifact quotient"));
  for (std::uint64_t c = 0; c < k; ++c) {
    if (a.apsp[static_cast<std::size_t>(c) * k + c] != 0) {
      return DataLossError("corrupt artifact (APSP diagonal nonzero)");
    }
  }
  return OkStatus();
}

}  // namespace

OracleArtifact build_oracle_artifact(const Graph& g,
                                     const DistanceOracleOptions& opts) {
  std::uint32_t tau = 0;
  Clustering clustering = oracle_clustering(g, opts, &tau);
  const WeightedGraph quotient =
      std::move(build_quotient(g, clustering, /*with_weights=*/true, opts.pool)
                    .weighted);

  OracleArtifactMeta meta;
  meta.graph_num_nodes = g.num_nodes();
  meta.graph_num_half_edges = g.num_half_edges();
  meta.num_clusters = clustering.num_clusters();
  meta.quotient_num_half_edges = quotient.num_half_edges();
  meta.build_seed = opts.seed;
  meta.tau = tau;
  meta.use_cluster2 = opts.use_cluster2;
  meta.max_radius = clustering.max_radius();
  meta.graph_checksum = io::csr_checksum(g);

  auto owned = std::make_shared<OwnedPayload>();
  owned->cluster_of = std::move(clustering.assignment);
  owned->dist_to_center = std::move(clustering.dist_to_center);
  owned->centers = std::move(clustering.centers);
  const auto qoff = quotient.offsets();
  owned->quotient_offsets.assign(qoff.begin(), qoff.end());
  const auto qadj = quotient.adjacency();
  owned->quotient_neighbors.resize(qadj.size());
  owned->quotient_weights.resize(qadj.size());
  for (std::size_t i = 0; i < qadj.size(); ++i) {
    owned->quotient_neighbors[i] = qadj[i].to;
    owned->quotient_weights[i] = qadj[i].w;
  }
  // The dense APSP is the deliberate O(k²) cost; cap via apsp_matrix.
  owned->apsp = apsp_matrix(quotient, /*max_nodes=*/40000);

  opts.emit("oracle.quotient_nodes",
            static_cast<double>(quotient.num_nodes()));
  opts.emit("oracle.quotient_half_edges",
            static_cast<double>(quotient.num_half_edges()));
  opts.emit("oracle.apsp_small_path",
            quotient.num_nodes() <= kApspSmallGraphNodes ? 1.0 : 0.0);
  return artifact_from_owned(meta, std::move(owned));
}

Status write_oracle_artifact(const OracleArtifact& a,
                             const std::string& path) {
  const std::string tmp = io::unique_tmp_path(path);
  Status written = write_artifact_bytes(a, tmp);
  if (written.ok() && GCLUS_FAULTPOINT("artifact.publish")) {
    written = IoError("cannot fsync artifact temp file: " + tmp);
  }
  if (!written.ok()) {
    std::error_code ec;
    fs::remove(tmp, ec);  // best effort; a failed write may leave debris
    return written;
  }
  return io::publish_file(tmp, path, "artifact");
}

StatusOr<OracleArtifact> load_oracle_artifact(const std::string& path) {
  // An injected load failure behaves like an undetected-until-now corrupt
  // sidecar: the caller's evict-and-rebuild path takes over.
  if (GCLUS_FAULTPOINT("artifact.load")) {
    return DataLossError(path + ": injected corrupt artifact");
  }
  GCLUS_ASSIGN_OR_RETURN(io::FileContents fc, io::read_or_map_file(path));
  OracleArtifact a;
  std::array<Section, 7> table;
  GCLUS_RETURN_IF_ERROR(
      parse_header(fc.bytes, a.meta, table).with_context(path));

  // Zero copy uses the sections in place, which needs a little-endian
  // host; otherwise they are decoded into an owned payload.
  const std::byte* data = fc.bytes.data();
  a.mapped = fc.mapped && kLittleEndian;
  auto owned = std::make_shared<OwnedPayload>();
  read_section(table[0], data, a.mapped, a.cluster_of, owned->cluster_of);
  read_section(table[1], data, a.mapped, a.dist_to_center,
               owned->dist_to_center);
  read_section(table[2], data, a.mapped, a.centers, owned->centers);
  read_section(table[3], data, a.mapped, a.quotient_offsets,
               owned->quotient_offsets);
  read_section(table[4], data, a.mapped, a.quotient_neighbors,
               owned->quotient_neighbors);
  read_section(table[5], data, a.mapped, a.quotient_weights,
               owned->quotient_weights);
  read_section(table[6], data, a.mapped, a.apsp, owned->apsp);
  if (a.mapped) {
    a.storage = std::move(fc.keepalive);
  } else {
    a.storage = std::move(owned);
  }

  if (checksum_sections(crc32c(0, data, kOrcChecksumCoverBytes), table) !=
      read_le_at<std::uint64_t>(data + kOrcChecksumCoverBytes)) {
    return DataLossError(path + ": artifact checksum mismatch");
  }
  GCLUS_RETURN_IF_ERROR(validate_artifact_arrays(a).with_context(path));
  return a;
}

Status validate_artifact_binding(
    const OracleArtifactMeta& meta, std::uint64_t num_nodes,
    std::uint64_t num_half_edges, std::uint64_t graph_checksum) {
  if (meta.graph_num_nodes == num_nodes &&
      meta.graph_num_half_edges == num_half_edges &&
      meta.graph_checksum == graph_checksum) {
    return OkStatus();
  }
  return InvalidArgumentError(
      "artifact was built over a different graph (" +
      std::to_string(meta.graph_num_nodes) + " nodes, CSR checksum " +
      std::to_string(meta.graph_checksum) + " vs " + std::to_string(num_nodes) +
      ", " + std::to_string(graph_checksum) + ")");
}

Status validate_artifact_for_graph(const OracleArtifact& a, const Graph& g) {
  return validate_artifact_binding(a.meta, g.num_nodes(), g.num_half_edges(),
                                   io::csr_checksum(g));
}

}  // namespace gclus::server
