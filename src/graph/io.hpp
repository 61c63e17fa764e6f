// Graph serialization and ingestion.
//
// Two on-disk representations:
//
//   * Edge-list text — the format of the SNAP/LAW datasets the paper uses:
//     one "u v" pair per line, '#'/'%' comments, arbitrary sparse ids.
//     Reading a *file* goes through a parallel parser (per-thread byte
//     chunks split on line boundaries, merged with the prefix-sum
//     machinery in par/) whose output is byte-identical to the serial
//     stream parser at any thread count.
//
//   * CSR v2 binary — a sectioned file in the container of
//     graph/wire.hpp (fixed little-endian header with explicit section
//     positions, CRC32C payload checksum, 64-byte-aligned sections) holding
//     an unweighted graph in one of two layouts: plain (offsets and
//     neighbors sections) or, with flags bit 1, the Rice-compressed
//     adjacency of graph/compressed.hpp.  Loading maps the file (or reads it, on
//     platforms without mmap) and hands the offset/neighbor sections to
//     Graph *in place*, zero copy, pinned by the graph's keepalive.
//
// CSR v2 layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "GCLUSCS2"
//   8       4     version (3)
//   12      4     flags (bit 1: compressed layout, offsets_pos then locates
//                 its parameter block and neighbors_pos is 0; every other
//                 bit is unknown and rejected)
//   16      8     n  (node count; offsets section has n+1 entries)
//   24      8     m  (directed half-edge count; 2x undirected edges)
//   32      8     offsets_pos    (byte position of the offsets section)
//   40      8     neighbors_pos
//   48      8     reserved (0)
//   56      8     checksum (CRC32C over the payload sections, in order,
//                 zero-extended; a nonzero upper half is a mismatch)
//   64      8     reserved (0)
//   ...           zero padding to offsets_pos
//   sections: offsets (n+1)*8B, neighbors m*4B, each start aligned to 64
//   bytes and after the previous section's end.
//
// Error handling: every load_* / write_csr call reports failure as a
// Status, one error path per operation — kInvalidArgument: not a CSR v2
// file, or one whose header (unknown flags, a nonzero reserved word, the
// other layout for load_compressed_csr) the loader rejects before any
// checksum pass; kDataLoss: truncated, checksum-mismatched or structurally
// corrupt; kIoError: the environment failed.  A long-lived
// caller rejects one bad file and keeps serving; a batch caller for which
// any failure is terminal calls `.value()`, which aborts with the Status
// text.  Fault points "io.open", "io.mmap", "io.read", "io.write"
// (common/faultpoint.hpp) cover every environmental failure here; an
// injected "io.mmap" failure under CsrLoadMode::kAuto degrades to the
// read() path with byte-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"

namespace gclus {
class ThreadPool;
}

namespace gclus::io {

// ---- edge-list text ---------------------------------------------------------

/// Parses an edge-list stream: one "u v" pair per line; lines starting
/// with '#' or '%' are comments; malformed lines are skipped.  Node ids
/// may be sparse; they are compacted to [0, n) in first-appearance order.
/// The graph is symmetrized and deduplicated.  Serial — the reference
/// semantics the parallel parser reproduces exactly.
[[nodiscard]] Graph read_edge_list(std::istream& in);

/// Parallel edge-list parser over an in-memory buffer: the text is split
/// into fixed-size byte chunks advanced to line boundaries, chunks parse
/// concurrently on `pool`, and ids are interned from the per-chunk edge
/// lists in file order — so the result (including node numbering) is
/// byte-identical to read_edge_list at any thread count.  A line shaped
/// `digits [ \t]+ digits \r? \n` (1 to 19 digits a token, which cannot
/// overflow) is scanned in one pass; every other line — comments, signs,
/// leading whitespace, longer tokens, extra columns, junk, a last line
/// without '\n' — takes the reference tokenizer, read_edge_list's
/// semantics.  Space beyond `text` (the caller's) peaks at about 16 B per
/// line plus 8 B per node: the 16 B/line parsed tokens (each chunk
/// reserves one slot per line) and the dense id table (4 B × (max id + 1))
/// while interning, each chunk's tokens freed as its 8 B/edge pairs are
/// written; then the builder's scatter, where those pairs, the offsets and
/// the neighbors are all live.
[[nodiscard]] Graph parse_edge_list(std::string_view text, ThreadPool& pool);

/// Reads an edge-list file through the parse_edge_list parser (mmap-ing
/// the text when possible); kIoError when the file cannot be opened or
/// read.  A mapped text is never resident as a whole: each chunk's pages
/// are dropped once it is parsed.  On the 51.7 MiB perfbench road text
/// (1.96M nodes, 3.64M edges) the load's peak RSS is 74 MiB, set by the
/// builder's scatter, and at a pool of 3 on a shared 4-vCPU host the
/// load runs at 280–295 MB/s, build included (the perfbench social text,
/// 4M edges over 285k nodes: 160–167 MB/s).  A slurped text (no mmap) is
/// held whole until the parse returns.  The one-argument form uses the
/// process-global pool.
[[nodiscard]] StatusOr<Graph> load_edge_list(const std::string& path);
[[nodiscard]] StatusOr<Graph> load_edge_list(const std::string& path,
                                             ThreadPool& pool);

/// Writes "u v" per undirected edge (u < v).
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

// ---- CSR v2 binary ----------------------------------------------------------

enum class CsrLoadMode {
  kAuto,  ///< mmap when available, else copy
  kMmap,  ///< require mmap; kIoError if unsupported
  kCopy,  ///< read() into a private buffer
};

struct CsrLoadOptions {
  CsrLoadMode mode = CsrLoadMode::kAuto;
  /// Verify the payload checksum (CRC32C) and structural invariants
  /// (offsets monotone and in range, neighbor ids < n) before handing out
  /// the graph.  Two serial passes over the payload (the checksum one runs
  /// at memory speed on CPUs with a CRC32C instruction) — cheap next to
  /// any algorithm that will touch the data anyway.
  bool verify = true;
};

/// Header fields of a CSR v2 file (see probe_csr_file).
struct Csr2Info {
  std::uint32_t version = 0;
  bool compressed = false;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_half_edges = 0;
  std::uint64_t file_bytes = 0;
};

/// Writes a CSR v2 file; kIoError on any write failure (unwritable
/// directory, disk full).  A failed write may leave a partial file
/// behind; partial files never validate (checksum), so readers treat
/// them as absent.  A default-constructed Graph is written as the empty
/// graph (n = 0, offsets [0]).
[[nodiscard]] Status write_csr(const Graph& g, const std::string& path);

/// The checksum write_csr(g, ...) stores at header offset 56: CRC32C of
/// the offsets then neighbors arrays as little-endian bytes.  Serial, one
/// pass; the oracle artifact records it to name the graph it was built
/// over.
[[nodiscard]] std::uint32_t csr_checksum(const Graph& g);

/// Writes a compressed CSR v2 file (flags bit 1): a 128-byte parameter
/// block at offsets_pos followed by the six compressed sections (see
/// graph/compressed.hpp), all covered by the header checksum.
[[nodiscard]] Status write_csr(const CompressedGraph& g,
                               const std::string& path);

/// Loads a CSR v2 file.  On little-endian hosts the returned Graph views
/// the file's sections in place, mapped (mmap mode, or kAuto where mmap
/// works) or read (kCopy), and the bytes are pinned for the graph's
/// lifetime — a mapped file may be unlinked afterwards.  Big-endian hosts
/// decode into owned arrays.  The file is mapped and its header parsed
/// once; a compressed file is decoded as by load_compressed_csr and
/// decompressed, so plain-CSR consumers (the dataset cache) accept either
/// layout transparently.  Errors: kInvalidArgument (not CSR v2 / unknown
/// flags / nonzero reserved word), kDataLoss (truncated, checksum
/// mismatch, corrupt payload), kIoError (cannot open / mmap).
[[nodiscard]] StatusOr<Graph> load_csr(const std::string& path,
                                       const CsrLoadOptions& opts = {});

/// Loads a compressed CSR v2 file as a CompressedGraph viewing the file's
/// sections in place (mmap mode; the byte sections are position- and
/// endian-independent, so zero-copy works on any host) or a private copy
/// of the file bytes (kCopy).  With opts.verify the payload checksum and
/// a full structural decode walk run first, so a flipped bit anywhere in
/// the parameter block, index, or bitstream is kDataLoss here rather than
/// a wrong answer later.  kInvalidArgument when the file is a plain CSR v2
/// (decided at the header, before any checksum pass).
[[nodiscard]] StatusOr<CompressedGraph> load_compressed_csr(
    const std::string& path, const CsrLoadOptions& opts = {});

/// True if `path` exists and starts with the CSR v2 magic.
[[nodiscard]] bool is_csr_file(const std::string& path);

/// Header of a CSR v2 file without loading the payload; nullopt if the
/// file is missing, short, or not CSR v2.
[[nodiscard]] std::optional<Csr2Info> probe_csr_file(const std::string& path);

/// True when this platform supports mmap-backed loading (POSIX).
[[nodiscard]] bool mmap_supported();

// ---- raw file bytes ---------------------------------------------------------

/// Read-only contents of a whole file.  `keepalive` pins the backing
/// storage (an mmap-ed region or an owned buffer) for as long as any copy
/// of it lives, so `bytes` may be viewed in place — the same contract as
/// a loaded Graph's keepalive.
struct FileContents {
  std::span<const std::byte> bytes;
  std::shared_ptr<const void> keepalive;
  bool mapped = false;
};

/// Maps or reads `path` as `mode` asks: kAuto maps when the platform
/// allows and falls back to a plain read, kMmap maps or fails (kIoError;
/// kInvalidArgument without mmap support), kCopy reads.  kIoError when
/// the file cannot be opened or read.  Every error message names `path`.
/// The one mapping path of every binary loader (CSR v2, compressed CSR,
/// the oracle artifact sidecar); covered by the "io.open" / "io.mmap" /
/// "io.read" fault points.
[[nodiscard]] StatusOr<FileContents> read_or_map_file(
    const std::string& path, CsrLoadMode mode = CsrLoadMode::kAuto);

/// Structural validation of CSR arrays read from a file: offsets monotone
/// from 0 to neighbors.size(), every neighbor id < offsets.size() - 1.
/// Guards algorithms against out-of-bounds indexing on corrupted (but
/// checksum-consistent, e.g. maliciously crafted) files.  kDataLoss whose
/// message starts with `what`.
[[nodiscard]] Status validate_csr_arrays(std::span<const EdgeId> offsets,
                                         std::span<const NodeId> neighbors,
                                         std::string_view what);

// ---- atomic publish ---------------------------------------------------------

/// `path` plus a ".tmp." suffix distinct per process and per call, so
/// concurrent writers never collide on the temp file they publish from.
[[nodiscard]] std::string unique_tmp_path(const std::string& path);

/// Publishes the fully written temp file `tmp` as `path`, crash-
/// consistently: fsync `tmp`, rename it over `path`, fsync the directory
/// so the rename itself survives a crash.  A reader never observes a torn
/// file: before the rename it sees the old inode (or nothing), after it a
/// durable new one.  kIoError names the failed step and `what` (e.g.
/// "cannot fsync artifact temp file: ..."); a failure before the rename
/// removes `tmp` (best effort).  A failed directory fsync leaves the
/// complete file published, only its crash durability in doubt.  Without
/// fsync (non-POSIX) the publish is atomic but not crash-durable.
[[nodiscard]] Status publish_file(const std::string& tmp,
                                  const std::string& path,
                                  std::string_view what);

}  // namespace gclus::io
