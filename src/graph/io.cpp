#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

// POSIX: mmap for zero-copy loads, fsync for crash-durable publishes.
#if defined(__unix__) || defined(__APPLE__)
#define GCLUS_HAS_POSIX_IO 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/faultpoint.hpp"
#include "graph/builder.hpp"
#include "graph/wire.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus::io {

using namespace wire;  // the shared little-endian wire dialect

namespace {

// ---- shared helpers ---------------------------------------------------------

// Bytes "GCLUSCS2" when stored little-endian.
constexpr std::uint64_t kCsr2Magic = 0x32534353554C4347ULL;
constexpr std::uint32_t kCsr2Version = 3;
constexpr std::uint32_t kCsr2FlagCompressed = 1u << 1;
constexpr std::uint32_t kCsr2KnownFlags = kCsr2FlagCompressed;
constexpr std::uint64_t kCsr2HeaderBytes = 72;
constexpr std::uint64_t kCsr2Align = 64;

// Compressed layout (flags bit 1): offsets_pos points at a 128-byte
// parameter block instead of an offsets array; neighbors_pos is zero.  The
// block records the per-graph encoding choices (graph/compressed.hpp) and
// the positions of the six sections; section *sizes* are derived through
// compressed_section_sizes, so the reader's bounds checks cannot drift from
// the writer.  The header checksum covers the parameter block plus every
// section, in file order.
//
//   offset  size  field
//   0       4     cparams version (1)
//   4       1     first_mode
//   5       1     k_first
//   6       1     k_gap
//   7       1     relabeled (0/1)
//   8       4     degree_bits
//   12      4     local_bits
//   16      8     adj_bytes
//   24      8     degrees_pos
//   32      8     anchors_pos
//   40      8     locals_pos
//   48      8     adj_pos
//   56      8     perm_pos (0 unless relabeled)
//   64      8     inv_pos  (0 unless relabeled)
//   72      56    reserved (zeros)
constexpr std::uint64_t kCz2ParamsBytes = 128;
constexpr std::uint32_t kCz2ParamsVersion = 1;

// ---- file mapping -----------------------------------------------------------

/// A read-only mapping (or, on platforms without mmap, nothing).  Held via
/// shared_ptr as the keepalive of mapped Graphs; the mapping outlives
/// the file's directory entry, so mapped files may be unlinked or replaced
/// (the dataset cache's atomic-rename refresh) while in use.
class MappedFile {
 public:
  static std::shared_ptr<MappedFile> map(const std::string& path) {
#ifdef GCLUS_HAS_POSIX_IO
    // An injected mmap failure behaves exactly like a real one: callers
    // in kAuto mode fall back to the read() path (byte-identical result),
    // kMmap callers report it.
    if (GCLUS_FAULTPOINT("io.mmap")) return nullptr;
    const int fd =
        GCLUS_FAULTPOINT("io.open") ? -1 : ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return nullptr;
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return nullptr;
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps the inode alive
    if (addr == MAP_FAILED) return nullptr;
#ifdef MADV_SEQUENTIAL
    ::madvise(addr, size, MADV_SEQUENTIAL);
#endif
    return std::shared_ptr<MappedFile>(new MappedFile(addr, size));
#else
    (void)path;
    return nullptr;
#endif
  }

  [[nodiscard]] const std::byte* data() const {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  ~MappedFile() {
#ifdef GCLUS_HAS_POSIX_IO
    if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

 private:
  friend Graph parse_text(std::string_view text, ThreadPool& pool,
                          const MappedFile* mapping);

  MappedFile(void* addr, std::size_t size) : addr_(addr), size_(size) {}

  /// Drops the whole pages inside [lo, hi) from the resident set (rounded
  /// inward, clamped to the mapping).  The mapping is private and never
  /// written, so a later read refaults the file's bytes: only memory
  /// changes, never contents.  The edge-list parser calls it per parsed
  /// chunk, so the text is never resident all at once.
  void release(std::size_t lo, std::size_t hi) const {
#if defined(GCLUS_HAS_POSIX_IO) && defined(MADV_DONTNEED)
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    hi = std::min(hi, size_);
    const std::size_t first = (lo + page - 1) / page * page;
    const std::size_t last = hi / page * page;
    if (first < last) {
      ::madvise(static_cast<std::byte*>(addr_) + first, last - first,
                MADV_DONTNEED);
    }
#else
    (void)lo;
    (void)hi;
#endif
  }

  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

/// Reads a whole file into memory.
StatusOr<std::vector<std::byte>> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.open") || !in.good()) {
    return IoError("cannot open file");
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return IoError("cannot stat file: " + ec.message());
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
    if (GCLUS_FAULTPOINT("io.read") || !in.good()) {
      return IoError("read failed");
    }
  }
  return bytes;
}

}  // namespace

// ---- edge-list text ---------------------------------------------------------

Graph read_edge_list(std::istream& in) {
  std::unordered_map<std::uint64_t, NodeId> compact;
  std::vector<Edge> edges;
  std::string line;
  auto intern = [&](std::uint64_t raw) {
    const auto [it, inserted] =
        compact.emplace(raw, static_cast<NodeId>(compact.size()));
    (void)inserted;
    return it->second;
  };
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) continue;
    // Intern in (u, v) order through named locals: function-argument
    // evaluation order is unspecified, and the id numbering must not be.
    const NodeId a = intern(u);
    const NodeId b = intern(v);
    edges.emplace_back(a, b);
  }
  GraphBuilder b(static_cast<NodeId>(compact.size()));
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

namespace {

struct RawEdge {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
};

/// strtoull-compatible token parse (the semantics of `istream >> uint64`):
/// optional sign ('-' wraps modulo 2^64), decimal digits, failure on
/// overflow or no digits.  Advances `p` past the token on success.
bool parse_u64_token(const char*& p, const char* end, std::uint64_t& out) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\v' ||
                     *p == '\f')) {
    ++p;
  }
  bool negate = false;
  if (p < end && (*p == '+' || *p == '-')) {
    negate = *p == '-';
    ++p;
  }
  if (p >= end || *p < '0' || *p > '9') return false;
  std::uint64_t value = 0;
  bool overflow = false;
  while (p < end && *p >= '0' && *p <= '9') {
    const unsigned digit = static_cast<unsigned>(*p - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      overflow = true;
    }
    value = value * 10 + digit;
    ++p;
  }
  if (overflow) return false;
  out = negate ? std::uint64_t{0} - value : value;
  return true;
}

/// One line in [p, end): blank and '#'/'%' comment lines are skipped, as
/// are lines without two parseable integers — exactly the serial parser's
/// per-line behavior.
void parse_line(const char* p, const char* end, std::vector<RawEdge>& out) {
  if (p >= end) return;
  if (*p == '#' || *p == '%') return;
  RawEdge e;
  if (!parse_u64_token(p, end, e.u)) return;
  if (!parse_u64_token(p, end, e.v)) return;
  out.push_back(e);
}

/// One fast-path token: 1 to 19 decimal digits, which cannot overflow a
/// u64.  Advances `p` past every digit, so a longer run is rejected, not
/// split; the caller guarantees a non-digit ('\n') ends the run.
bool scan_short_u64(const char*& p, std::uint64_t& out) {
  const char* const first = p;
  std::uint64_t value = 0;
  unsigned digit = 0;
  while ((digit = static_cast<unsigned>(static_cast<unsigned char>(*p)) -
                  unsigned{'0'}) <= 9) {
    value = value * 10 + digit;  // wraps past 19 digits; rejected below
    ++p;
  }
  out = value;
  return p != first && p - first <= 19;
}

/// Parses every line whose first byte lies in [lo, hi) into `out` and
/// returns the largest id it accepted.  Chunk boundaries are line starts,
/// so no line crosses chunks.  A line shaped `digits [ \t]+ digits \r? \n`
/// (at most 19 digits a token) is scanned once; any other line, and a last
/// line without '\n', takes parse_line, the reference tokenizer.
std::uint64_t parse_chunk(std::string_view text, std::size_t lo,
                          std::size_t hi, std::vector<RawEdge>& out) {
  const char* p = text.data() + lo;
  const char* const end = text.data() + hi;
  // At most one edge a line: sizing `out` up front replaces its regrowths,
  // each a copy into freshly faulted pages.
  const auto newlines = static_cast<std::size_t>(std::count(p, end, '\n'));
  out.reserve(newlines + 1);
  // Every line in [p, terminated) ends in '\n', which stops each scan
  // below, so the fast path needs no bounds checks.
  const char* terminated = end;
  while (terminated > p && terminated[-1] != '\n') --terminated;
  std::uint64_t most = 0;
  const auto fallback = [&](const char* line, const char* line_end) {
    const std::size_t before = out.size();
    parse_line(line, line_end, out);
    if (out.size() > before) {
      most = std::max({most, out.back().u, out.back().v});
    }
  };
  while (p < terminated) {
    const char* q = p;
    RawEdge e;
    if (scan_short_u64(q, e.u) && (*q == ' ' || *q == '\t')) {
      do {
        ++q;
      } while (*q == ' ' || *q == '\t');
      if (scan_short_u64(q, e.v)) {
        q += *q == '\r';
        if (*q == '\n') {
          out.push_back(e);
          most = std::max({most, e.u, e.v});
          p = q + 1;
          continue;
        }
      }
    }
    // Not the fast shape.  `q` has not passed the line's '\n'.
    const auto* nl = static_cast<const char*>(
        std::memchr(q, '\n', static_cast<std::size_t>(terminated - q)));
    fallback(p, nl);
    p = nl + 1;
  }
  fallback(terminated, end);
  return most;
}

// Chunking is a fixed byte grain, *not* a function of the thread count:
// the chunk decomposition (and therefore the merged, file-ordered edge
// list) is identical on 1, 2, or 64 threads.
constexpr std::size_t kParseChunkBytes = std::size_t{1} << 20;

/// parse_edge_list, releasing each chunk's text pages once it is parsed
/// when `mapping` holds the text (never for heap text: MADV_DONTNEED would
/// zero those pages).
Graph parse_text(std::string_view text, ThreadPool& pool,
                 const MappedFile* mapping) {
  const std::size_t nbytes = text.size();
  const std::size_t num_chunks =
      std::max<std::size_t>(1, (nbytes + kParseChunkBytes - 1) /
                                   kParseChunkBytes);

  // Chunk i starts at the first line start at or after i*kParseChunkBytes
  // (a line start is position 0 or any position preceded by '\n').
  std::vector<std::size_t> start(num_chunks + 1);
  start[0] = 0;
  start[num_chunks] = nbytes;
  for (std::size_t i = 1; i < num_chunks; ++i) {
    const std::size_t b = i * kParseChunkBytes;
    if (text[b - 1] == '\n') {
      start[i] = b;
    } else {
      const std::size_t nl = text.find('\n', b);
      start[i] = nl == std::string_view::npos ? nbytes : nl + 1;
    }
  }

  // The boundary search above is done before any chunk parses, and chunk i
  // reads only [start[i], start[i + 1]), so its pages can go once it is
  // parsed.
  std::vector<std::vector<RawEdge>> parts(num_chunks);
  std::vector<std::uint64_t> chunk_max(num_chunks);
  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t i) {
        chunk_max[i] = parse_chunk(text, start[i], start[i + 1], parts[i]);
        if (mapping != nullptr) mapping->release(start[i], start[i + 1]);
      },
      /*grain=*/1);

  // Intern ids serially, reading the chunks in place in chunk (= file)
  // order: first-appearance numbering, the same the serial parser
  // produces.  (A parallel rank of each id's first position measured
  // slower than this loop at the perfbench pool size of 3.)  Each chunk's
  // 16 B/edge buffer is freed once interned; `edges` is reserved, so its
  // 8 B/edge pages become resident only as they are written.
  std::size_t num_edges = 0;
  for (const auto& part : parts) num_edges += part.size();
  const std::uint64_t max_id =
      *std::max_element(chunk_max.begin(), chunk_max.end());
  const std::uint64_t dense_limit =
      std::max<std::uint64_t>(std::uint64_t{1} << 16, 4 * num_edges);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  NodeId next = 0;
  const auto intern_all = [&](const auto& intern) {
    for (auto& part : parts) {
      for (const RawEdge& e : part) edges.push_back({intern(e.u), intern(e.v)});
      std::vector<RawEdge>().swap(part);  // `part = {}` would keep capacity
    }
  };
  if (max_id < dense_limit) {
    // Dense ids (the common case for generated/preprocessed lists): a
    // flat table beats hashing by an order of magnitude.
    std::vector<NodeId> table(static_cast<std::size_t>(max_id) + 1,
                              kInvalidNode);
    intern_all([&](std::uint64_t id) {
      NodeId& slot = table[static_cast<std::size_t>(id)];
      if (slot == kInvalidNode) slot = next++;
      return slot;
    });
  } else {
    std::unordered_map<std::uint64_t, NodeId> compact;
    compact.reserve(2 * num_edges);
    intern_all([&](std::uint64_t id) {
      const auto [it, inserted] = compact.emplace(id, next);
      if (inserted) ++next;
      return it->second;
    });
  }

  GraphBuilder b(next);
  b.adopt_edges(std::move(edges));
  return b.build(pool);
}

}  // namespace

Graph parse_edge_list(std::string_view text, ThreadPool& pool) {
  return parse_text(text, pool, /*mapping=*/nullptr);
}

StatusOr<Graph> load_edge_list(const std::string& path, ThreadPool& pool) {
  if (const auto mapped = MappedFile::map(path)) {
    const std::string_view text(reinterpret_cast<const char*>(mapped->data()),
                                mapped->size());
    return parse_text(text, pool, mapped.get());
  }
  // No mmap (unsupported platform, injected "io.mmap" fault, or an
  // empty/special file): slurp.  Byte-identical to the mapped path.
  std::ifstream in(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.open") || !in.good()) {
    return IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (GCLUS_FAULTPOINT("io.read") || in.bad()) {
    return IoError("read failed: " + path);
  }
  const std::string text = std::move(buf).str();
  return parse_edge_list(text, pool);
}

StatusOr<Graph> load_edge_list(const std::string& path) {
  return load_edge_list(path, ThreadPool::global());
}

void write_edge_list(const Graph& g, std::ostream& out) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  GCLUS_CHECK(out.good(), "cannot open ", path.c_str());
  write_edge_list(g, out);
}

// ---- CSR v2 binary ----------------------------------------------------------

bool mmap_supported() {
#ifdef GCLUS_HAS_POSIX_IO
  return true;
#else
  return false;
#endif
}

StatusOr<FileContents> read_or_map_file(const std::string& path,
                                        CsrLoadMode mode) {
  if (mode == CsrLoadMode::kMmap && !mmap_supported()) {
    return InvalidArgumentError(
        path + ": mmap loading not supported on this platform");
  }
  if (mode != CsrLoadMode::kCopy) {
    if (auto mapping = MappedFile::map(path)) {
      FileContents fc;
      fc.bytes = {mapping->data(), mapping->size()};
      fc.mapped = true;
      fc.keepalive = std::move(mapping);
      return fc;
    }
    if (mode == CsrLoadMode::kMmap) return IoError(path + ": cannot mmap file");
    // kAuto falls through to the read() path.
  }
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return Status(bytes.status()).with_context(path);
  auto owned =
      std::make_shared<std::vector<std::byte>>(std::move(bytes).value());
  FileContents fc;
  fc.bytes = {owned->data(), owned->size()};
  fc.keepalive = std::move(owned);
  return fc;
}

Status validate_csr_arrays(std::span<const EdgeId> offsets,
                           std::span<const NodeId> neighbors,
                           std::string_view what) {
  const auto corrupt = [what](std::string_view detail) {
    return DataLossError(std::string(what) + " (" + std::string(detail) + ")");
  };
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != neighbors.size()) {
    return corrupt("offset endpoints");
  }
  for (std::size_t u = 1; u < offsets.size(); ++u) {
    if (offsets[u] < offsets[u - 1]) return corrupt("offsets not monotone");
  }
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  for (const NodeId v : neighbors) {
    if (v >= n) return corrupt("neighbor id out of range");
  }
  return OkStatus();
}

namespace {

struct Csr2Header {
  std::uint32_t flags = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_half_edges = 0;
  std::uint64_t offsets_pos = 0;
  std::uint64_t neighbors_pos = 0;
  std::uint64_t checksum = 0;

  [[nodiscard]] bool compressed() const {
    return (flags & kCsr2FlagCompressed) != 0;
  }
};

/// The plain layout's sections in file order: offsets, neighbors.
std::array<Section, 2> csr2_sections(const Csr2Header& h) {
  return {{{.pos = h.offsets_pos, .count = h.num_nodes + 1, .width = 8},
           {.pos = h.neighbors_pos, .count = h.num_half_edges, .width = 4}}};
}

/// The plain layout's sections viewing `g`'s arrays, not yet placed.  A
/// default-constructed Graph has no offsets array; it is the empty graph,
/// whose offsets section is the one entry 0.
std::array<Section, 2> csr2_sections(const Graph& g) {
  static constexpr EdgeId kEmptyOffsets[] = {0};
  const std::span<const EdgeId> offsets =
      g.offsets().empty() ? std::span<const EdgeId>(kEmptyOffsets)
                          : g.offsets();
  Csr2Header h;
  h.num_nodes = offsets.size() - 1;
  h.num_half_edges = g.num_half_edges();
  auto table = csr2_sections(h);
  table[0].data = offsets.data();
  table[1].data = g.neighbor_array().data();
  return table;
}

/// The compressed layout's sections in file order: the parameter block,
/// then the six sections whose sizes it implies.  Block byte 24 + 8i
/// holds the position of section i + 1; perm and inv exist only in
/// relabeled files.
std::array<Section, 7> cz2_sections(const CompressedSectionSizes& z) {
  return {{{.count = kCz2ParamsBytes},
           {.count = z.degrees},
           {.count = z.anchors},
           {.count = z.locals},
           {.count = z.adj},
           {.count = z.perm, .optional = true},
           {.count = z.inv, .optional = true}}};
}

std::size_t num_cz2_sections(const CompressedParams& p) {
  return p.relabeled ? 7 : 5;
}

/// Writes a CSR v2 file: the header for `h` (whose checksum covers the
/// placed `table`), then the sections.  kIoError on any write failure.
[[nodiscard]] Status write_csr2(const std::string& path, const Csr2Header& h,
                                std::span<const Section> table) {
  std::array<std::byte, kCsr2HeaderBytes> header{};  // reserved words: 0
  store_le_at(header.data(), kCsr2Magic);
  store_le_at(header.data() + 8, kCsr2Version);
  store_le_at(header.data() + 12, h.flags);
  store_le_at(header.data() + 16, h.num_nodes);
  store_le_at(header.data() + 24, h.num_half_edges);
  store_le_at(header.data() + 32, h.offsets_pos);
  store_le_at(header.data() + 40, h.neighbors_pos);
  store_le_at(header.data() + 56, h.checksum);

  std::ofstream out(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.write") || !out.good()) {
    return IoError("cannot open for writing: " + path);
  }
  emit_sections(out, header, table);
  if (!out.good()) {
    // ofstream hides errno, so disk-full vs hard error is not
    // distinguishable here; both are terminal for this write.
    return IoError("write failed (disk full or I/O error): " + path);
  }
  return OkStatus();
}

/// Parses and sanity-checks a CSR v2 header and its section table against
/// the file size.  kInvalidArgument: the bytes don't claim to be a
/// (supported) CSR v2 file, or, with `want_compressed`, they claim the
/// plain layout; kDataLoss: they do, but the structure is inconsistent.
Status parse_csr2_header(std::span<const std::byte> file, bool want_compressed,
                         Csr2Header& h) {
  const std::byte* data = file.data();
  const std::uint64_t size = file.size();
  if (size < 8 || read_le_at<std::uint64_t>(data) != kCsr2Magic) {
    return InvalidArgumentError("not a gclus CSR v2 file (bad magic)");
  }
  if (size < kCsr2HeaderBytes) {
    return DataLossError("file shorter than a CSR v2 header");
  }
  if (read_le_at<std::uint32_t>(data + 8) != kCsr2Version) {
    return InvalidArgumentError("unsupported CSR version");
  }
  h.flags = read_le_at<std::uint32_t>(data + 12);
  if ((h.flags & ~kCsr2KnownFlags) != 0) {
    return InvalidArgumentError("unknown CSR v2 flags");
  }
  h.num_nodes = read_le_at<std::uint64_t>(data + 16);
  h.num_half_edges = read_le_at<std::uint64_t>(data + 24);
  h.offsets_pos = read_le_at<std::uint64_t>(data + 32);
  h.neighbors_pos = read_le_at<std::uint64_t>(data + 40);
  h.checksum = read_le_at<std::uint64_t>(data + 56);
  if (read_le_at<std::uint64_t>(data + 48) != 0 ||
      read_le_at<std::uint64_t>(data + 64) != 0) {
    // The reserved words are not covered by the payload checksum, so a
    // flipped bit here would otherwise load silently.
    return InvalidArgumentError("nonzero reserved header field");
  }
  if (want_compressed && !h.compressed()) {
    return InvalidArgumentError("plain CSR v2 file (use load_csr)");
  }

  if (h.num_nodes > std::numeric_limits<NodeId>::max()) {
    return DataLossError("node count exceeds NodeId range");
  }
  if (h.compressed()) {
    // Compressed layout: offsets_pos locates the parameter block, the
    // other section positions are unused.  The sections the block locates
    // are checked by parse_cz2.
    if (h.neighbors_pos != 0) {
      return DataLossError("compressed CSR v2 header has stray section "
                           "positions");
    }
    const Section block{.pos = h.offsets_pos, .count = kCz2ParamsBytes};
    if (!sections_fit({&block, 1}, kCsr2HeaderBytes, size)) {
      return DataLossError("truncated CSR v2 file (compressed parameter "
                           "block out of bounds)");
    }
    return OkStatus();
  }
  if (!sections_fit(csr2_sections(h), kCsr2HeaderBytes, size)) {
    return DataLossError("truncated CSR v2 file (section out of bounds)");
  }
  return OkStatus();
}

/// A mapped or read CSR v2 file and its parsed header.
struct Csr2File {
  FileContents file;
  Csr2Header header;
};

StatusOr<Csr2File> open_csr2(const std::string& path, CsrLoadMode mode,
                             bool want_compressed) {
  Csr2File f;
  GCLUS_ASSIGN_OR_RETURN(f.file, read_or_map_file(path, mode));
  GCLUS_RETURN_IF_ERROR(
      parse_csr2_header(f.file.bytes, want_compressed, f.header)
          .with_context(path));
  return f;
}

// ---- CSR v2 compressed layout ----------------------------------------------

/// Parses the parameter block of a compressed file into `p` and checks the
/// sections it locates (and, with `verify`, the checksum); `table` is left
/// pointing into the file.
Status parse_cz2(std::span<const std::byte> file, const Csr2Header& h,
                 bool verify, CompressedParams& p,
                 std::array<Section, 7>& table) {
  const std::byte* b = file.data() + h.offsets_pos;
  if (read_le_at<std::uint32_t>(b) != kCz2ParamsVersion) {
    return InvalidArgumentError("unsupported compressed CSR parameter "
                                "version");
  }
  p.num_nodes = h.num_nodes;
  p.num_half_edges = h.num_half_edges;
  p.first_mode = static_cast<std::uint8_t>(b[4]);
  p.k_first = static_cast<std::uint8_t>(b[5]);
  p.k_gap = static_cast<std::uint8_t>(b[6]);
  p.relabeled = static_cast<std::uint8_t>(b[7]) != 0;
  p.degree_bits = read_le_at<std::uint32_t>(b + 8);
  p.local_bits = read_le_at<std::uint32_t>(b + 12);
  p.adj_bytes = read_le_at<std::uint64_t>(b + 16);
  for (std::uint64_t i = 72; i < kCz2ParamsBytes; ++i) {
    if (b[i] != std::byte{0}) {
      return DataLossError("nonzero reserved compressed parameter field");
    }
  }
  if (static_cast<std::uint8_t>(b[7]) > 1 || p.first_mode > 1 ||
      p.k_first > cz::kMaxK || p.k_gap > cz::kMaxK || p.degree_bits > 32 ||
      p.local_bits > 56 || p.adj_bytes > file.size()) {
    return DataLossError("compressed CSR parameters out of range");
  }
  table = cz2_sections(compressed_section_sizes(p));
  table[0].pos = h.offsets_pos;
  for (std::size_t i = 1; i < table.size(); ++i) {
    table[i].pos = read_le_at<std::uint64_t>(b + 16 + 8 * i);
  }
  if (!sections_fit(table, kCsr2HeaderBytes, file.size())) {
    return DataLossError("corrupt CSR v2 file (compressed sections overlap "
                         "or out of bounds)");
  }
  if (p.relabeled != (table[5].pos != 0) ||
      p.relabeled != (table[6].pos != 0)) {
    return DataLossError("compressed CSR relabeling sections inconsistent "
                         "with the relabeled flag");
  }
  // The byte sections are used in place on any host.
  for (Section& s : table) s.data = file.data() + s.pos;
  if (verify && checksum_sections(0, table) != h.checksum) {
    return DataLossError("CSR v2 checksum mismatch");
  }
  return OkStatus();
}

/// Serializes the parameter block of `p`, with the section positions of
/// `table`, into `out`.
void store_cz2_params(const CompressedParams& p,
                      const std::array<Section, 7>& table,
                      std::span<std::byte, kCz2ParamsBytes> out) {
  std::ranges::fill(out, std::byte{0});
  store_le_at(out.data(), kCz2ParamsVersion);
  out[4] = static_cast<std::byte>(p.first_mode);
  out[5] = static_cast<std::byte>(p.k_first);
  out[6] = static_cast<std::byte>(p.k_gap);
  out[7] = static_cast<std::byte>(p.relabeled ? 1 : 0);
  store_le_at(out.data() + 8, p.degree_bits);
  store_le_at(out.data() + 12, p.local_bits);
  store_le_at(out.data() + 16, p.adj_bytes);
  for (std::size_t i = 1; i < table.size(); ++i) {
    store_le_at(out.data() + 16 + 8 * i, table[i].pos);
  }
}

/// The compressed graph of an opened compressed file; a flipped bit
/// anywhere in it is kDataLoss here (with `verify`), not a wrong answer
/// later.
StatusOr<CompressedGraph> load_cz2(const std::string& path, const Csr2File& f,
                                   bool verify) {
  CompressedParams p;
  std::array<Section, 7> table;
  GCLUS_RETURN_IF_ERROR(
      parse_cz2(f.file.bytes, f.header, verify, p, table).with_context(path));
  const auto bytes = [&](std::size_t i) -> std::span<const std::byte> {
    return {static_cast<const std::byte*>(table[i].data),
            static_cast<std::size_t>(table[i].count)};
  };
  CompressedGraph cg(p, bytes(1), bytes(2), bytes(3), bytes(4), bytes(5),
                     bytes(6), f.file.keepalive);
  if (verify) {
    GCLUS_RETURN_IF_ERROR(
        validate_compressed_structure(cg, ThreadPool::global())
            .with_context(path));
  }
  return cg;
}

}  // namespace

std::string unique_tmp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t salt = std::random_device{}();
  return path + ".tmp." + std::to_string(salt) + "-" +
         std::to_string(counter.fetch_add(1));
}

namespace {

/// fsyncs one path (a file, or with `directory` a directory entry).  On
/// platforms without fsync this is a no-op success.
bool sync_path(const std::string& path, bool directory) {
#ifdef GCLUS_HAS_POSIX_IO
  const int fd = ::open(path.c_str(), directory ? O_RDONLY : O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)directory;
  return true;
#endif
}

}  // namespace

Status publish_file(const std::string& tmp, const std::string& path,
                    std::string_view what) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!sync_path(tmp, /*directory=*/false)) {
    fs::remove(tmp, ec);
    return IoError("cannot fsync " + std::string(what) + " temp file: " + tmp);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    fs::remove(tmp, ec);
    return IoError("cannot publish " + std::string(what) + " " + path + ": " +
                   reason);
  }
  const fs::path target(path);
  const std::string dir = target.has_parent_path()
                              ? target.parent_path().string()
                              : std::string(".");
  if (!sync_path(dir, /*directory=*/true)) {
    return IoError("cannot fsync " + std::string(what) + " directory: " + dir);
  }
  return OkStatus();
}

std::uint32_t csr_checksum(const Graph& g) {
  return checksum_sections(0, csr2_sections(g));
}

Status write_csr(const Graph& g, const std::string& path) {
  auto table = csr2_sections(g);
  place_sections(table, kCsr2HeaderBytes);
  Csr2Header h;
  h.num_nodes = table[0].count - 1;
  h.num_half_edges = table[1].count;
  h.offsets_pos = table[0].pos;
  h.neighbors_pos = table[1].pos;
  h.checksum = csr_checksum(g);
  return write_csr2(path, h, table);
}

Status write_csr(const CompressedGraph& g, const std::string& path) {
  const CompressedParams& p = g.params();
  auto table = cz2_sections(compressed_section_sizes(p));
  const std::span<const std::byte> sections[] = {
      g.degrees_section(), g.anchors_section(), g.locals_section(),
      g.adj_section(),     g.perm_section(),    g.inv_section()};
  for (std::size_t i = 1; i < table.size(); ++i) {
    GCLUS_CHECK(table[i].count == sections[i - 1].size(),
                "compressed graph sections inconsistent with parameters");
    table[i].data = sections[i - 1].data();
  }
  std::array<std::byte, kCz2ParamsBytes> params_block{};
  table[0].data = params_block.data();
  const auto placed = std::span(table).first(num_cz2_sections(p));
  place_sections(placed, kCsr2HeaderBytes);
  store_cz2_params(p, table, params_block);

  Csr2Header h;
  h.flags = kCsr2FlagCompressed;
  h.num_nodes = p.num_nodes;
  h.num_half_edges = p.num_half_edges;
  h.offsets_pos = table[0].pos;
  h.checksum = checksum_sections(0, placed);
  return write_csr2(path, h, placed);
}

StatusOr<CompressedGraph> load_compressed_csr(const std::string& path,
                                              const CsrLoadOptions& opts) {
  // The compressed sections are byte sequences (LSB-first bitstreams,
  // explicit little-endian fields), so zero-copy mapping is endian-
  // independent: kMmap works everywhere mmap exists.
  GCLUS_ASSIGN_OR_RETURN(const Csr2File f,
                         open_csr2(path, opts.mode, /*want_compressed=*/true));
  return load_cz2(path, f, opts.verify);
}

StatusOr<Graph> load_csr(const std::string& path, const CsrLoadOptions& opts) {
  GCLUS_ASSIGN_OR_RETURN(Csr2File f,
                         open_csr2(path, opts.mode, /*want_compressed=*/false));
  if (f.header.compressed()) {
    // Decompressed, so plain-CSR consumers accept either layout.
    GCLUS_ASSIGN_OR_RETURN(const CompressedGraph cg,
                           load_cz2(path, f, opts.verify));
    return cg.decompress();
  }
  // Zero copy uses the arrays in place, which needs a little-endian host.
  if (!kLittleEndian && opts.mode == CsrLoadMode::kMmap) {
    return InvalidArgumentError(
        path + ": mmap loading not supported on this platform");
  }
  // On little-endian hosts the graph views the pinned file bytes in place,
  // mapped or read; only a big-endian host decodes into owned arrays.
  auto table = csr2_sections(f.header);
  constexpr bool in_place = kLittleEndian;
  std::span<const EdgeId> offsets;
  std::span<const NodeId> neighbors;
  std::vector<EdgeId> owned_offsets;
  std::vector<NodeId> owned_neighbors;
  const std::byte* data = f.file.bytes.data();
  read_section(table[0], data, in_place, offsets, owned_offsets);
  read_section(table[1], data, in_place, neighbors, owned_neighbors);
  if (opts.verify) {
    if (checksum_sections(0, table) != f.header.checksum) {
      return DataLossError(path + ": CSR v2 checksum mismatch");
    }
    GCLUS_RETURN_IF_ERROR(
        validate_csr_arrays(offsets, neighbors, "corrupt CSR v2 payload")
            .with_context(path));
  }
  if (in_place) return Graph(offsets, neighbors, std::move(f.file.keepalive));
  return Graph(std::move(owned_offsets), std::move(owned_neighbors));
}

bool is_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::byte head[8];
  in.read(reinterpret_cast<char*>(head), sizeof head);
  if (!in.good()) return false;
  return read_le_at<std::uint64_t>(head) == kCsr2Magic;
}

std::optional<Csr2Info> probe_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::byte head[kCsr2HeaderBytes];
  in.read(reinterpret_cast<char*>(head), sizeof head);
  if (!in.good()) return std::nullopt;
  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  if (read_le_at<std::uint64_t>(head) != kCsr2Magic) return std::nullopt;
  Csr2Info info;
  info.version = read_le_at<std::uint32_t>(head + 8);
  if (info.version != kCsr2Version) return std::nullopt;
  const auto flags = read_le_at<std::uint32_t>(head + 12);
  info.compressed = (flags & kCsr2FlagCompressed) != 0;
  info.num_nodes = read_le_at<std::uint64_t>(head + 16);
  info.num_half_edges = read_le_at<std::uint64_t>(head + 24);
  info.file_bytes = file_bytes;
  return info;
}

}  // namespace gclus::io
