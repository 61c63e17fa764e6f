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
constexpr std::uint32_t kOrcVersion = 1;
constexpr std::uint64_t kOrcHeaderBytes = 144;
/// Header bytes under the checksum: everything before the checksum field.
constexpr std::uint64_t kOrcChecksumCoverBytes = 128;
constexpr std::uint64_t kOrcAlign = 64;

/// Byte positions of the seven payload sections.
struct SectionLayout {
  std::uint64_t labels_pos = 0;
  std::uint64_t dist_pos = 0;
  std::uint64_t centers_pos = 0;
  std::uint64_t qoffsets_pos = 0;
  std::uint64_t qneighbors_pos = 0;
  std::uint64_t qweights_pos = 0;
  std::uint64_t apsp_pos = 0;
};

SectionLayout layout_for(const OracleArtifactMeta& m) {
  const std::uint64_t n = m.graph_num_nodes;
  const std::uint64_t k = m.num_clusters;
  const std::uint64_t qm = m.quotient_num_half_edges;
  SectionLayout p;
  p.labels_pos = align_up(kOrcHeaderBytes, kOrcAlign);
  p.dist_pos = align_up(p.labels_pos + n * 4, kOrcAlign);
  p.centers_pos = align_up(p.dist_pos + n * 4, kOrcAlign);
  p.qoffsets_pos = align_up(p.centers_pos + k * 4, kOrcAlign);
  p.qneighbors_pos = align_up(p.qoffsets_pos + (k + 1) * 8, kOrcAlign);
  p.qweights_pos = align_up(p.qneighbors_pos + qm * 4, kOrcAlign);
  p.apsp_pos = align_up(p.qweights_pos + qm * 8, kOrcAlign);
  return p;
}

/// Continues an FNV-1a stream over the payload sections in file order.
/// The full artifact checksum is fnv over header bytes [0, 128) — every
/// metadata field, so a bit flip anywhere in the header is detected, not
/// only in fields the parser can cross-check — followed by this.
std::uint64_t payload_checksum(std::uint64_t h, const OracleArtifact& a) {
  h = fnv1a_array_le(h, a.cluster_of.data(), a.cluster_of.size());
  h = fnv1a_array_le(h, a.dist_to_center.data(), a.dist_to_center.size());
  h = fnv1a_array_le(h, a.centers.data(), a.centers.size());
  h = fnv1a_array_le(h, a.quotient_offsets.data(), a.quotient_offsets.size());
  h = fnv1a_array_le(h, a.quotient_neighbors.data(),
                     a.quotient_neighbors.size());
  h = fnv1a_array_le(h, a.quotient_weights.data(), a.quotient_weights.size());
  h = fnv1a_array_le(h, a.apsp.data(), a.apsp.size());
  return h;
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
  const SectionLayout p = layout_for(m);

  // Assemble the header in memory: the checksum covers its first 128
  // bytes, so they must exist before the checksum can be computed.
  std::array<std::byte, kOrcHeaderBytes> header{};
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
  store_le_at(header.data() + 68, std::uint32_t{0});  // padding
  store_le_at(header.data() + 72, p.labels_pos);
  store_le_at(header.data() + 80, p.dist_pos);
  store_le_at(header.data() + 88, p.centers_pos);
  store_le_at(header.data() + 96, p.qoffsets_pos);
  store_le_at(header.data() + 104, p.qneighbors_pos);
  store_le_at(header.data() + 112, p.qweights_pos);
  store_le_at(header.data() + 120, p.apsp_pos);
  const std::uint64_t checksum = payload_checksum(
      fnv1a(kFnvOffsetBasis, header.data(), kOrcChecksumCoverBytes), a);
  store_le_at(header.data() + 128, checksum);
  store_le_at(header.data() + 136, std::uint64_t{0});  // reserved

  std::ofstream out(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("artifact.write") || !out.good()) {
    return IoError("cannot open artifact for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(header.data()), header.size());

  std::uint64_t pos = kOrcHeaderBytes;
  const auto section = [&](std::uint64_t target, const auto* data,
                           std::uint64_t count) {
    write_zeros(out, target - pos);
    write_array_le(out, data, count);
    pos = target + count * sizeof(*data);
  };
  section(p.labels_pos, a.cluster_of.data(), a.cluster_of.size());
  section(p.dist_pos, a.dist_to_center.data(), a.dist_to_center.size());
  section(p.centers_pos, a.centers.data(), a.centers.size());
  section(p.qoffsets_pos, a.quotient_offsets.data(),
          a.quotient_offsets.size());
  section(p.qneighbors_pos, a.quotient_neighbors.data(),
          a.quotient_neighbors.size());
  section(p.qweights_pos, a.quotient_weights.data(),
          a.quotient_weights.size());
  section(p.apsp_pos, a.apsp.data(), a.apsp.size());
  if (!out.good()) {
    return IoError("artifact write failed (disk full or I/O error): " + path);
  }
  return OkStatus();
}

/// Parses and bounds-checks the header against the buffer size.
/// kInvalidArgument: the bytes don't claim to be a supported artifact;
/// kDataLoss: they do, but the structure is inconsistent.  Bounds are
/// overflow-safe: divide before multiply, and every section-end position
/// is only computed after its element count was bounded by the file size.
Status parse_header(const std::byte* data, std::uint64_t size,
                    OracleArtifactMeta& m, SectionLayout& p) {
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
  // The padding and reserved fields are not covered by the payload
  // checksum, so a flipped bit there would otherwise load silently.
  if (read_le_at<std::uint32_t>(data + 68) != 0) {
    return InvalidArgumentError("nonzero artifact header padding");
  }
  p.labels_pos = read_le_at<std::uint64_t>(data + 72);
  p.dist_pos = read_le_at<std::uint64_t>(data + 80);
  p.centers_pos = read_le_at<std::uint64_t>(data + 88);
  p.qoffsets_pos = read_le_at<std::uint64_t>(data + 96);
  p.qneighbors_pos = read_le_at<std::uint64_t>(data + 104);
  p.qweights_pos = read_le_at<std::uint64_t>(data + 112);
  p.apsp_pos = read_le_at<std::uint64_t>(data + 120);
  if (read_le_at<std::uint64_t>(data + 136) != 0) {
    return InvalidArgumentError("nonzero reserved artifact header field");
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

  const std::uint64_t n = m.graph_num_nodes;
  const std::uint64_t k = m.num_clusters;
  const std::uint64_t qm = m.quotient_num_half_edges;
  const auto section_ok = [size](std::uint64_t pos, std::uint64_t prev_end,
                                 std::uint64_t count, std::uint64_t width) {
    return pos >= prev_end && pos % kOrcAlign == 0 && pos <= size &&
           count <= (size - pos) / width;
  };
  if (!section_ok(p.labels_pos, kOrcHeaderBytes, n, 4) ||
      !section_ok(p.dist_pos, p.labels_pos + n * 4, n, 4) ||
      !section_ok(p.centers_pos, p.dist_pos + n * 4, k, 4) ||
      !section_ok(p.qoffsets_pos, p.centers_pos + k * 4, k + 1, 8) ||
      !section_ok(p.qneighbors_pos, p.qoffsets_pos + (k + 1) * 8, qm, 4) ||
      !section_ok(p.qweights_pos, p.qneighbors_pos + qm * 4, qm, 8) ||
      !section_ok(p.apsp_pos, p.qweights_pos + qm * 8, k * k, 8)) {
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
  const auto& off = a.quotient_offsets;
  if (off.empty() || off.front() != 0 ||
      off.back() != a.quotient_neighbors.size()) {
    return DataLossError("corrupt artifact (quotient offset endpoints)");
  }
  for (std::size_t c = 1; c < off.size(); ++c) {
    if (off[c] < off[c - 1]) {
      return DataLossError("corrupt artifact (quotient offsets not "
                           "monotone)");
    }
  }
  for (const ClusterId c : a.quotient_neighbors) {
    if (c >= k) {
      return DataLossError("corrupt artifact (quotient neighbor out of "
                           "range)");
    }
  }
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
      std::move(build_quotient(g, clustering, /*with_weights=*/true).weighted);

  OracleArtifactMeta meta;
  meta.graph_num_nodes = g.num_nodes();
  meta.graph_num_half_edges = g.num_half_edges();
  meta.num_clusters = clustering.num_clusters();
  meta.quotient_num_half_edges = quotient.num_half_edges();
  meta.build_seed = opts.seed;
  meta.tau = tau;
  meta.use_cluster2 = opts.use_cluster2;
  meta.max_radius = clustering.max_radius();

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

StatusOr<OracleArtifact> load_oracle_artifact(const std::string& path,
                                              const ArtifactLoadOptions& opts) {
  // An injected load failure behaves like an undetected-until-now corrupt
  // sidecar: the caller's evict-and-rebuild path takes over.
  if (GCLUS_FAULTPOINT("artifact.load")) {
    return DataLossError(path + ": injected corrupt artifact");
  }
  // mmap zero-copy requires a little-endian host (the sections are used
  // in place); BE hosts decode through the copy path.
  io::FileContents fc;
  GCLUS_ASSIGN_OR_RETURN(
      fc, io::read_or_map_file(path, opts.prefer_mmap && kLittleEndian));
  const std::byte* data = fc.bytes.data();
  const std::uint64_t size = fc.bytes.size();

  OracleArtifactMeta meta;
  SectionLayout p;
  GCLUS_RETURN_IF_ERROR(parse_header(data, size, meta, p).with_context(path));
  const std::uint64_t n = meta.graph_num_nodes;
  const std::uint64_t k = meta.num_clusters;
  const std::uint64_t qm = meta.quotient_num_half_edges;

  std::uint64_t sum = fnv1a(kFnvOffsetBasis, data, kOrcChecksumCoverBytes);
  sum = fnv1a(sum, data + p.labels_pos, static_cast<std::size_t>(n) * 4);
  sum = fnv1a(sum, data + p.dist_pos, static_cast<std::size_t>(n) * 4);
  sum = fnv1a(sum, data + p.centers_pos, static_cast<std::size_t>(k) * 4);
  sum = fnv1a(sum, data + p.qoffsets_pos, static_cast<std::size_t>(k + 1) * 8);
  sum = fnv1a(sum, data + p.qneighbors_pos, static_cast<std::size_t>(qm) * 4);
  sum = fnv1a(sum, data + p.qweights_pos, static_cast<std::size_t>(qm) * 8);
  sum = fnv1a(sum, data + p.apsp_pos, static_cast<std::size_t>(k * k) * 8);
  if (sum != read_le_at<std::uint64_t>(data + 128)) {
    return DataLossError(path + ": artifact checksum mismatch");
  }

  OracleArtifact a;
  a.meta = meta;
  if (fc.mapped) {
    a.cluster_of = {reinterpret_cast<const ClusterId*>(data + p.labels_pos),
                    static_cast<std::size_t>(n)};
    a.dist_to_center = {reinterpret_cast<const Dist*>(data + p.dist_pos),
                        static_cast<std::size_t>(n)};
    a.centers = {reinterpret_cast<const NodeId*>(data + p.centers_pos),
                 static_cast<std::size_t>(k)};
    a.quotient_offsets = {
        reinterpret_cast<const EdgeId*>(data + p.qoffsets_pos),
        static_cast<std::size_t>(k + 1)};
    a.quotient_neighbors = {
        reinterpret_cast<const ClusterId*>(data + p.qneighbors_pos),
        static_cast<std::size_t>(qm)};
    a.quotient_weights = {
        reinterpret_cast<const Weight*>(data + p.qweights_pos),
        static_cast<std::size_t>(qm)};
    a.apsp = {reinterpret_cast<const Weight*>(data + p.apsp_pos),
              static_cast<std::size_t>(k * k)};
    a.mapped = true;
    a.storage = std::move(fc.keepalive);
  } else {
    auto owned = std::make_shared<OwnedPayload>();
    owned->cluster_of = decode_array_le<ClusterId>(data + p.labels_pos, n);
    owned->dist_to_center = decode_array_le<Dist>(data + p.dist_pos, n);
    owned->centers = decode_array_le<NodeId>(data + p.centers_pos, k);
    owned->quotient_offsets =
        decode_array_le<EdgeId>(data + p.qoffsets_pos, k + 1);
    owned->quotient_neighbors =
        decode_array_le<ClusterId>(data + p.qneighbors_pos, qm);
    owned->quotient_weights =
        decode_array_le<Weight>(data + p.qweights_pos, qm);
    owned->apsp = decode_array_le<Weight>(data + p.apsp_pos, k * k);
    a = artifact_from_owned(meta, std::move(owned));
  }

  GCLUS_RETURN_IF_ERROR(validate_artifact_arrays(a).with_context(path));
  return a;
}

Status validate_artifact_for_graph(const OracleArtifact& a, const Graph& g) {
  if (a.meta.graph_num_nodes != g.num_nodes() ||
      a.meta.graph_num_half_edges != g.num_half_edges()) {
    return InvalidArgumentError(
        "artifact was built over a different graph (" +
        std::to_string(a.meta.graph_num_nodes) + " nodes / " +
        std::to_string(a.meta.graph_num_half_edges) + " half-edges vs " +
        std::to_string(g.num_nodes()) + " / " +
        std::to_string(g.num_half_edges()) + ")");
  }
  return OkStatus();
}

}  // namespace gclus::server
