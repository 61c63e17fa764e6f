// Tests for graph serialization and ingestion: edge-list text parsing
// (serial reference and the parallel parser, including SNAP-style
// comments, sparse ids, and junk lines, in memory and through the mapped
// and slurped file paths) and the CSR v2 format —
// text↔CSRv2↔mmap round trips over the whole corpus, checksum, truncation,
// header-first (unknown flag, reserved word) and wrong-family rejection as
// Status codes, an every-bit-flip and every-truncation sweep over a plain
// and a compressed file, and owning-vs-mmap byte equality through the
// algorithm registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "common/faultpoint.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/wire.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus::io {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// RAII temp file.
struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Graph serial_parse(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

// ---- edge-list text: serial reference ---------------------------------------

TEST(EdgeListRead, ParsesPlainPairs) {
  std::istringstream in("0 1\n1 2\n2 0\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(EdgeListRead, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# SNAP-style comment\n% matrix-market comment\n\n0 1\n\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListRead, CompactsSparseIds) {
  std::istringstream in("1000000 2000000\n2000000 30\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.validate());
}

TEST(EdgeListRead, SymmetrizesAndDedups) {
  std::istringstream in("0 1\n1 0\n0 1\n2 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);  // self-loop dropped, duplicates merged
}

TEST(EdgeListRoundTrip, PreservesStructure) {
  const Graph g = gen::grid(7, 9);
  std::stringstream buf;
  write_edge_list(g, buf);
  const Graph h = read_edge_list(buf);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

// ---- edge-list text: parallel parser ----------------------------------------

/// Inputs chosen to stress every skip/accept path: comment-heavy, sparse
/// ids, duplicates and reversals, junk tokens, CRLF, leading whitespace,
/// extra columns (SNAP ships weighted lists we read unweighted), and a
/// missing trailing newline.
const char* kMessyInputs[] = {
    "",
    "\n\n\n",
    "# only comments\n% and more\n",
    "0 1\n1 2\n2 0\n",
    "0 1\n1 0\n0 1\n2 2\n",
    "1000000 2000000\n2000000 30\n9999999999 1000000\n",
    "# c\n5 7\n% c\n7 9\n\n9 5\n# trailing\n",
    "0 1 42\n1 2 99\n",                      // extra weight column ignored
    "  3 4\n\t5\t6\n 7  8 \n",               // leading/embedded whitespace
    "0 1\r\n1 2\r\n# crlf\r\n2 0\r\n",       // CRLF
    "junk line\n1 x\nx 1\n0 1\n1\n",         // junk tokens / missing column
    "+3 +4\n4 5\n",                          // explicit plus signs
    "0 1\n1 2",                              // no trailing newline
    // The one-pass scanner's line shape, `digits [ \t]+ digits \r? \n`
    // with at most 19 digits a token, and the lines just outside it.
    "1234567890123456789 9999999999999999999\n1 2\n",  // 19 digits
    "18446744073709551615 1\n1 2\n",                   // 20 digits, u64 max
    "18446744073709551616 1\n1 2\n",                   // 20 digits, overflow
    "1 99999999999999999999\n1 2\n",                   // 20 digits, overflow
    "0000000000000000000007 1\n7 2\n",  // 22 digits, zero-padded, small
    "1\t2\n2\t3\n",                      // tab separator
    "1   2\n2 \t \t3\n3\t\t\t1\n",          // runs of spaces and tabs
    "1 2 \n2 3\n",                         // trailing space
    "1 2\r\n2 3\r\n",                      // CRLF
    "1 2\rx\n2 3\n",                       // '\r' then junk
    "1 2\n2 3\n3 4",                       // last line without '\n'
    "1 2\n2 3\n3 4\r",                     // ... ending in '\r'
};

TEST(ParallelParser, MatchesSerialOnMessyInputs) {
  ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  for (const char* input : kMessyInputs) {
    const Graph serial = serial_parse(input);
    for (ThreadPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
      EXPECT_TRUE(testutil::same_csr(serial, parse_edge_list(input, *pool)))
          << "input: " << std::string(input).substr(0, 40) << " at "
          << pool->num_threads() << " threads";
    }
  }
}

TEST(ParallelParser, DeterministicAcrossThreadCounts) {
  // Large enough to span several parse chunks (1 MiB each): ~2.8 MB.
  // (An expander: no isolated nodes, so every id appears in the text.)
  const Graph g = gen::expander(50000, 10, 11);
  std::stringstream buf;
  write_edge_list(g, buf);
  const std::string text = buf.str();
  ASSERT_GT(text.size(), std::size_t{2} << 20);

  ThreadPool pool1(1), pool2(2), pool8(8);
  const Graph a = parse_edge_list(text, pool1);
  const Graph b = parse_edge_list(text, pool2);
  const Graph c = parse_edge_list(text, pool8);
  EXPECT_TRUE(testutil::same_csr(a, b));
  EXPECT_TRUE(testutil::same_csr(a, c));
  EXPECT_TRUE(testutil::same_csr(a, serial_parse(text)));
  EXPECT_EQ(a.num_nodes(), g.num_nodes());
  EXPECT_EQ(a.num_edges(), g.num_edges());
}

TEST(ParallelParser, CorpusTextRoundTrip) {
  // Text round trips relabel nodes (ids compact in first-appearance
  // order), so equality is against the serial reference parser — the
  // parallel parser must reproduce its numbering byte for byte — plus
  // structural invariants against the original.
  ThreadPool pool(4);
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    std::stringstream buf;
    write_edge_list(g, buf);
    const std::string text = buf.str();
    const Graph h = parse_edge_list(text, pool);
    EXPECT_TRUE(testutil::same_csr(serial_parse(text), h)) << name;
    EXPECT_EQ(h.num_nodes(), g.num_nodes()) << name;
    EXPECT_EQ(h.num_edges(), g.num_edges()) << name;
    EXPECT_TRUE(h.validate()) << name;
  }
}

TEST(ParallelParser, FileEntryPointUsesGlobalPool) {
  TempFile f("gclus_io_parse.txt");
  const Graph g = gen::ring_of_cliques(12, 8);
  write_edge_list_file(g, f.path);
  const Graph h = load_edge_list(f.path).value();
  std::stringstream buf;
  write_edge_list(g, buf);
  EXPECT_TRUE(testutil::same_csr(serial_parse(buf.str()), h));
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

/// One line per edge of `g` (u < v), ids written through `id`.
template <typename IdMap>
std::vector<std::string> edge_lines(const Graph& g, const IdMap& id) {
  std::vector<std::string> lines;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) {
        lines.push_back(std::to_string(id(u)) + ' ' + std::to_string(id(v)));
      }
    }
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + '\n';
  return text;
}

TEST(ParallelParser, ShuffledMultiChunkTextMatchesSerialNumbering) {
  // Shuffled lines make first appearance non-monotone in the ids, and the
  // text spans several 1 MiB parse chunks.  Dense ids take the flat-table
  // path; the same lines with every id spread above 4·m take the hash path.
  const Graph g = gen::expander(50000, 10, 11);
  auto dense = edge_lines(g, [](NodeId x) { return std::uint64_t{x}; });
  auto sparse = edge_lines(g, [](NodeId x) {
    return std::uint64_t{x} * 7919 + 1000000000000ULL;
  });
  testutil::deterministic_shuffle(dense, 3);
  testutil::deterministic_shuffle(sparse, 3);
  for (const std::string& text : {join_lines(dense), join_lines(sparse)}) {
    ASSERT_GT(text.size(), std::size_t{2} << 20);
    const Graph want = serial_parse(text);
    EXPECT_EQ(want.num_nodes(), g.num_nodes());
    for (const std::size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      EXPECT_TRUE(testutil::same_csr(parse_edge_list(text, pool), want))
          << threads << " threads, ids from " << text.substr(0, 20);
    }
  }
}

TEST(ParallelParser, MappedFileMatchesSerialAtEveryPoolSize) {
  // The mapped path drops each chunk's whole text pages once it is parsed.
  // This file puts a line across the page boundary at the first and last
  // chunk starts, and a line longer than a chunk that leaves chunk 2
  // empty; CRLF and comment lines throughout.  4 KiB divides every page
  // size, so a size off its multiples ends mid-page.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  const Graph g = gen::expander(50000, 10, 11);
  const auto lines = edge_lines(g, [](NodeId x) { return std::uint64_t{x}; });
  std::string text;
  std::size_t next = 0;
  const auto append_edges_until = [&](std::size_t size) {
    while (text.size() < size) {
      text += lines[next % lines.size()];
      text += next % 7 == 0 ? "\r\n" : "\n";
      if (next % 53 == 0) text += "# comment\r\n";
      ++next;
    }
  };
  const auto comment_until = [&](std::size_t size) {  // the next line's start
    ASSERT_GE(size, text.size() + 2);
    text.append(size - text.size() - 1, '%');
    text += '\n';
  };
  append_edges_until(kChunk - 64);
  comment_until(kChunk - 3);
  text += "1 2\r\n";
  append_edges_until(2 * kChunk - 200);
  comment_until(2 * kChunk - 100);
  text += "3 4 " + std::string(kChunk + 4096, 'x') + '\n';
  append_edges_until(4 * kChunk - 64);
  comment_until(4 * kChunk - 2);
  text += "5 6\n";
  append_edges_until(4 * kChunk + 300000);
  if (text.size() % 4096 == 0) text += "7 8\n";
  ASSERT_GT(text.size(), std::size_t{2} << 20);
  ASSERT_NE(text.size() % 4096, 0u);
  ASSERT_NE(text[kChunk - 1], '\n');
  ASSERT_NE(text[4 * kChunk - 1], '\n');
  ASSERT_EQ(text.find('\n', 2 * kChunk), text.find('\n', 3 * kChunk));

  TempFile f("gclus_io_mapped_parse.txt");
  spit(f.path, std::vector<char>(text.begin(), text.end()));
  const Graph want = serial_parse(text);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_TRUE(testutil::same_csr(load_edge_list(f.path, pool).value(), want))
        << threads << " threads";
  }
  // The slurped text (an injected mmap failure) parses the same; nothing
  // is released from it.
  fault::disarm_all();
  fault::arm("io.mmap", fault::FaultSpec::always());
  const auto fired = fault::trigger_count("io.mmap");
  ThreadPool pool(2);
  const StatusOr<Graph> slurped = load_edge_list(f.path, pool);
  EXPECT_GT(fault::trigger_count("io.mmap"), fired);
  fault::disarm_all();
  EXPECT_TRUE(testutil::same_csr(slurped.value(), want));
}

// ---- CSR v2 -----------------------------------------------------------------

/// The CSR v2 file write_csr makes of `g`.
std::vector<char> csr2_file(const Graph& g) {
  TempFile f("gclus_io_golden.csr");
  EXPECT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  return slurp(f.path);
}

std::uint64_t le64_at(const std::vector<char>& bytes, std::size_t off) {
  return wire::read_le_at<std::uint64_t>(
      reinterpret_cast<const std::byte*>(bytes.data() + off));
}

/// Hashes of a plain CSR v2 file's payload — its offsets then neighbors
/// section bytes, located through the header — by the test_util
/// references.
struct PayloadHashes {
  std::uint64_t fnv1a = testutil::kFnv1aOffsetBasis;
  std::uint32_t crc32c = 0;
};

PayloadHashes payload_hashes(const std::vector<char>& file) {
  const std::uint64_t n = le64_at(file, 16);
  const std::uint64_t m = le64_at(file, 24);
  const std::pair<std::uint64_t, std::uint64_t> sections[] = {
      {le64_at(file, 32), (n + 1) * 8}, {le64_at(file, 40), m * 4}};
  PayloadHashes h;
  for (const auto& [pos, len] : sections) {
    EXPECT_LE(pos + len, file.size());
    h.fnv1a = testutil::fnv1a64(h.fnv1a, file.data() + pos, len);
    h.crc32c = testutil::crc32c_bitwise(h.crc32c, file.data() + pos, len);
  }
  return h;
}

/// A messy sparse-id edge list: ids spread above 4·m (the hash path), each
/// edge in a drawn direction, every fifth repeated reversed with a tab,
/// every seventh with a weight column, every eleventh CRLF, a self-loop
/// per 16th node, comment lines, then the lines shuffled.
std::string messy_sparse_text() {
  const Graph g = gen::road_like(30, 30, 0.1, 0.05, 4);
  const auto id = [](NodeId x) {
    return std::to_string(std::uint64_t{x} * 1000003 + 1000000000000ULL);
  };
  std::vector<std::string> lines;
  std::uint64_t k = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u > v) continue;
      ++k;
      const bool flip = (mix64(k) & 1) != 0;
      lines.push_back(id(flip ? v : u) + ' ' + id(flip ? u : v) +
                      (k % 7 == 0 ? " 42" : "") + (k % 11 == 0 ? "\r" : ""));
      if (k % 5 == 0) lines.push_back(id(v) + '\t' + id(u));
    }
    if (u % 16 == 0) lines.push_back(id(u) + ' ' + id(u));
    if (u % 50 == 0) lines.push_back("# comment " + std::to_string(u));
  }
  testutil::deterministic_shuffle(lines, 9);
  return join_lines(lines);
}

std::string edge_list_text(const Graph& g) {
  std::stringstream buf;
  write_edge_list(g, buf);
  return buf.str();
}

TEST(Csr2Golden, TextToCsr2ChecksumsArePinned) {
  // FNV-1a of the payload bytes, recorded with the comparison-sort CSR
  // builder that the counting sort replaced, when FNV-1a was the file
  // checksum (CSR v2 version 2): the CSR bytes of a parse must not change
  // with the builder's implementation, the file checksum or the pool.
  // The checksum the file records is checked against a bitwise CRC32C of
  // the same bytes.
  const struct {
    const char* name;
    std::string text;
    std::uint64_t payload_fnv1a;
  } cases[] = {
      {"road_like(60,60,0.08,0.02,1)",
       edge_list_text(gen::road_like(60, 60, 0.08, 0.02, 1)),
       0xed9c4d08ec68747dULL},
      {"largest component of rmat(2^12)",
       edge_list_text(
           testutil::largest_component_of(gen::rmat(1 << 12, 1 << 15, 3))),
       0xc0b95fa67eb948faULL},
      {"messy sparse ids", messy_sparse_text(), 0x986b22f7389a0510ULL},
  };
  for (const auto& c : cases) {
    for (const std::size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const Graph g = parse_edge_list(c.text, pool);
      const std::vector<char> file = csr2_file(g);
      const PayloadHashes h = payload_hashes(file);
      EXPECT_EQ(h.fnv1a, c.payload_fnv1a)
          << c.name << " at " << threads << " threads";
      EXPECT_EQ(le64_at(file, 56), h.crc32c)
          << c.name << " at " << threads << " threads";
      EXPECT_EQ(csr_checksum(g), h.crc32c) << c.name;
    }
  }
}

TEST(Crc32c, MatchesRfc3720Vectors) {
  std::array<unsigned char, 32> zeros{};
  std::array<unsigned char, 32> ones{};
  std::array<unsigned char, 32> ascending{};
  ones.fill(0xFF);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<unsigned char>(i);
  }
  const std::string digits = "123456789";
  const struct {
    const void* data;
    std::size_t len;
    std::uint32_t want;
  } vectors[] = {{zeros.data(), zeros.size(), 0x8A9136AAu},
                 {ones.data(), ones.size(), 0x62A8AB43u},
                 {ascending.data(), ascending.size(), 0x46DD794Eu},
                 {digits.data(), digits.size(), 0xE3069283u},
                 {nullptr, 0, 0u}};
  for (const auto& v : vectors) {
    EXPECT_EQ(testutil::crc32c_bitwise(0, v.data, v.len), v.want);
    EXPECT_EQ(wire::crc32c(0, v.data, v.len), v.want);
    EXPECT_EQ(wire::crc32c_table(0, v.data, v.len), v.want);
  }
}

// crc32c takes the CPU's instruction where there is one; the table path
// must agree with it (and with the bitwise reference) at every length
// around the 8-byte steps and at every start alignment, and a stream
// continued across a split must equal the one-shot value.
TEST(Crc32c, InstructionAndTablePathsAgree) {
  constexpr std::size_t kMaxLen = 4100;
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(mix64(i));
  }
  std::size_t mismatches = 0;
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::uint32_t want = wire::crc32c_table(0, p, len);
      if (wire::crc32c(0, p, len) != want) ++mismatches;
      if (len <= 256 && testutil::crc32c_bitwise(0, p, len) != want) {
        ++mismatches;
      }
      const std::size_t split = len / 3;
      const std::uint32_t head = wire::crc32c(0, p, split);
      if (wire::crc32c(head, p + split, len - split) != want) ++mismatches;
      if (wire::crc32c_table(wire::crc32c_table(0, p, split), p + split,
                             len - split) != want) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Wire, ByteswapIntReversesEveryWidth) {
  EXPECT_EQ(wire::byteswap_int<std::uint16_t>(0x1234), 0x3412);
  EXPECT_EQ(wire::byteswap_int<std::int16_t>(-2), std::int16_t{-257});
  EXPECT_EQ(wire::byteswap_int<std::uint32_t>(0x12345678u), 0x78563412u);
  EXPECT_EQ(wire::byteswap_int<std::uint64_t>(0x0102030405060708ULL),
            0x0807060504030201ULL);
  std::array<std::byte, 2> buf{};
  wire::store_le_at<std::uint16_t>(buf.data(), 0xBEEF);
  EXPECT_EQ(buf[0], std::byte{0xEF});
  EXPECT_EQ(wire::read_le_at<std::uint16_t>(buf.data()), 0xBEEF);
}

TEST(Csr2, CorpusRoundTripCopyAndMmap) {
  TempFile f("gclus_io_corpus.csr2");
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path))) << name;
    EXPECT_TRUE(is_csr_file(f.path)) << name;

    const auto info = probe_csr_file(f.path);
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_EQ(info->version, 3u);
    EXPECT_FALSE(info->compressed);
    EXPECT_EQ(info->num_nodes, g.num_nodes());
    EXPECT_EQ(info->num_half_edges, g.num_half_edges());

    const Graph copy = load_csr(f.path, {.mode = CsrLoadMode::kCopy}).value();
    EXPECT_FALSE(testutil::in_file_mapping(copy.offsets().data())) << name;
    EXPECT_TRUE(testutil::same_csr(g, copy)) << name;

    if (mmap_supported()) {
      const Graph mapped =
          load_csr(f.path, {.mode = CsrLoadMode::kMmap}).value();
      if (testutil::kCanSeeMappings) {
        EXPECT_TRUE(testutil::in_file_mapping(mapped.offsets().data()))
            << name;
      }
      EXPECT_TRUE(testutil::same_csr(g, mapped)) << name;
    }
  }
}

TEST(Csr2, TextToCsr2ToMmapPipeline) {
  // The end-to-end ingestion pipeline: SNAP-style text in, CSR v2 out,
  // mapped back in place.
  TempFile txt("gclus_io_pipe.txt");
  TempFile bin("gclus_io_pipe.csr2");
  const Graph g = gen::expander_with_path(2000, 44, 4, 9);
  write_edge_list_file(g, txt.path);
  const Graph parsed = load_edge_list(txt.path).value();
  ASSERT_TRUE(testutil::is_ok(write_csr(parsed, bin.path)));
  const Graph loaded = load_csr(bin.path).value();
  EXPECT_TRUE(testutil::same_csr(parsed, loaded));
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_TRUE(loaded.validate());
}

TEST(Csr2, EmptyAndEdgelessGraphs) {
  TempFile f("gclus_io_edgeless.csr2");
  const Graph g = build_graph(5, {});
  ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  const Graph h = load_csr(f.path).value();
  EXPECT_EQ(h.num_nodes(), 5u);
  EXPECT_EQ(h.num_edges(), 0u);

  // The empty neighbors section (and, with no nodes, a one-entry offsets
  // section) round-trips copied and mapped in place.
  std::vector<CsrLoadMode> modes = {CsrLoadMode::kCopy};
  if (mmap_supported()) modes.push_back(CsrLoadMode::kMmap);
  for (const Graph& e : {g, build_graph(0, {})}) {
    ASSERT_TRUE(testutil::is_ok(write_csr(e, f.path)));
    const auto info = probe_csr_file(f.path);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->num_nodes, e.num_nodes());
    EXPECT_EQ(info->num_half_edges, 0u);
    for (const CsrLoadMode mode : modes) {
      EXPECT_TRUE(
          testutil::same_csr(e, load_csr(f.path, {.mode = mode}).value()));
    }
  }
}

// A default-constructed Graph has no offsets array; it is written as the
// empty graph, which loads back with no nodes.
TEST(Csr2, DefaultConstructedGraphRoundTripsAsTheEmptyGraph) {
  TempFile f("gclus_io_default.csr2");
  ASSERT_TRUE(testutil::is_ok(write_csr(Graph(), f.path)));
  const auto info = probe_csr_file(f.path);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->num_nodes, 0u);
  EXPECT_EQ(info->num_half_edges, 0u);
  const Graph loaded = load_csr(f.path).value();
  EXPECT_EQ(loaded.num_nodes(), 0u);
  EXPECT_TRUE(testutil::same_csr(loaded, build_graph(0, {})));
  EXPECT_EQ(csr_checksum(Graph()), csr_checksum(build_graph(0, {})));
}

TEST(Csr2, MappedGraphSurvivesUnlink) {
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  TempFile f("gclus_io_unlink.csr2");
  const Graph g = gen::torus(20, 20);
  ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  const Graph mapped = load_csr(f.path, {.mode = CsrLoadMode::kMmap}).value();
  std::remove(f.path.c_str());  // mapping pins the inode
  EXPECT_TRUE(testutil::same_csr(g, mapped));
  // Copies share the mapping rather than materializing.
  const Graph copy = mapped;  // NOLINT(performance-unnecessary-copy-...)
  EXPECT_EQ(copy.neighbor_array().data(), mapped.neighbor_array().data());
  if (testutil::kCanSeeMappings) {
    EXPECT_TRUE(testutil::in_file_mapping(copy.neighbor_array().data()));
  }
  EXPECT_TRUE(testutil::same_csr(g, copy));
}

TEST(Csr2Status, RejectsChecksumMismatch) {
  TempFile f("gclus_io_checksum.csr2");
  const Graph g = gen::grid(8, 8);
  ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  {
    // Flip one payload byte in the neighbors section (near the end).
    std::fstream patch(f.path,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekg(-1, std::ios::end);
    const char c = static_cast<char>(patch.get() ^ 0x40);
    patch.seekp(-1, std::ios::end);
    patch.write(&c, 1);
  }
  EXPECT_TRUE(testutil::fails_with(load_csr(f.path).status(),
                                   StatusCode::kDataLoss, "checksum mismatch"));
  // Opting out of verification loads the (corrupt) bytes — the caller's
  // explicit choice.
  const Graph unchecked = load_csr(f.path, {.verify = false}).value();
  EXPECT_EQ(unchecked.num_nodes(), g.num_nodes());

  // The 32-bit checksum is stored zero-extended: a nonzero upper half of
  // the field is a mismatch too.
  ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  std::vector<char> bytes = slurp(f.path);
  bytes[60] = static_cast<char>(bytes[60] ^ 1);
  spit(f.path, bytes);
  EXPECT_TRUE(testutil::fails_with(load_csr(f.path).status(),
                                   StatusCode::kDataLoss, "checksum mismatch"));
}

TEST(Csr2Status, RejectsTruncation) {
  TempFile f("gclus_io_truncated.csr2");
  const Graph g = gen::grid(8, 8);
  ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  const auto full = std::filesystem::file_size(f.path);
  std::filesystem::resize_file(f.path, full - 16);
  EXPECT_TRUE(testutil::fails_with(load_csr(f.path).status(),
                                   StatusCode::kDataLoss, "truncated CSR v2"));
}

// The compressed loader decides the layout at the header, before the
// plain sections are bounds-checked: a truncated plain file is the wrong
// family for it, as an intact one is.
TEST(Csr2Status, TruncatedPlainFileIsTheWrongLayoutForTheCompressedLoader) {
  TempFile f("gclus_io_truncated_family.csr2");
  ASSERT_TRUE(testutil::is_ok(write_csr(gen::grid(6, 6), f.path)));
  std::filesystem::resize_file(f.path, std::filesystem::file_size(f.path) - 1);
  EXPECT_TRUE(testutil::fails_with(load_compressed_csr(f.path).status(),
                                   StatusCode::kInvalidArgument,
                                   "plain CSR v2 file"));
  EXPECT_TRUE(testutil::fails_with(load_csr(f.path).status(),
                                   StatusCode::kDataLoss, "truncated CSR v2"));
}

TEST(Csr2Status, RejectsWrongFormatFamily) {
  TempFile f("gclus_io_family.csr2");
  {
    // A foreign binary graph: another format's 8-byte magic ("gclusv1"
    // plus a version byte, little-endian) followed by a plausible
    // header.
    std::ofstream out(f.path, std::ios::binary);
    const unsigned char foreign[] = {0x01, 0x31, 0x76, 0x73, 0x75, 0x6c,
                                     0x63, 0x67, 25,   0,    0,    0,
                                     0,    0,    0,    0};
    out.write(reinterpret_cast<const char*>(foreign), sizeof foreign);
    out << std::string(200, '\0');
  }
  EXPECT_TRUE(testutil::fails_with(load_csr(f.path).status(),
                                   StatusCode::kInvalidArgument, "bad magic"));
  EXPECT_FALSE(is_csr_file(f.path));
  EXPECT_FALSE(probe_csr_file(f.path).has_value());

  // The compressed loader is strict about the layout flag; load_csr
  // accepts either layout.
  const Graph g = gen::grid(5, 5);
  ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  EXPECT_TRUE(testutil::fails_with(load_compressed_csr(f.path).status(),
                                   StatusCode::kInvalidArgument,
                                   "plain CSR v2"));
  ASSERT_TRUE(testutil::is_ok(write_csr(compress(g), f.path)));
  EXPECT_TRUE(testutil::same_csr(load_csr(f.path).value(), g));
}

// A header the loaders do not accept — flags bit 0 (once the retired
// weights flag, now unknown) or a nonzero reserved word at offset 48 — is
// kInvalidArgument from both loaders even with a damaged payload: the
// family is decided at the header, before any checksum pass.
TEST(Csr2Status, UnknownFlagAndReservedWordAreRejectedAtTheHeader) {
  TempFile f("gclus_io_header_first.csr2");
  std::vector<CsrLoadMode> modes = {CsrLoadMode::kCopy};
  if (mmap_supported()) modes.push_back(CsrLoadMode::kMmap);
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path))) << name;
    std::vector<char> pristine = slurp(f.path);
    pristine.back() = static_cast<char>(pristine.back() ^ 0x5A);  // payload
    const std::pair<std::size_t, const char*> damage[] = {
        {12, "unknown CSR v2 flags"}, {48, "nonzero reserved header field"}};
    for (const auto& [offset, message] : damage) {
      std::vector<char> bytes = pristine;
      bytes[offset] = static_cast<char>(bytes[offset] | 1);
      spit(f.path, bytes);
      for (const CsrLoadMode mode : modes) {
        EXPECT_TRUE(testutil::fails_with(
            load_csr(f.path, {.mode = mode}).status(),
            StatusCode::kInvalidArgument, message))
            << name << " offset " << offset;
        EXPECT_TRUE(testutil::fails_with(
            load_compressed_csr(f.path, {.mode = mode}).status(),
            StatusCode::kInvalidArgument, message))
            << name << " offset " << offset;
      }
    }
  }
}

TEST(Csr2Status, ShortGarbageIsRejected) {
  TempFile f("gclus_io_short.csr2");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_TRUE(testutil::fails_with(load_csr(f.path).status(),
                                   StatusCode::kInvalidArgument, "bad magic"));
  const Graph g = gen::cycle(12);
  ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path)));
  EXPECT_TRUE(testutil::same_csr(g, load_csr(f.path).value()));
}

// ---- Status API -------------------------------------------------------------
// The load_* / write_* Status entry points carry the failure taxonomy the
// long-lived callers (dataset cache, CLI) dispatch on.

TEST(Csr2Status, CodesMatchFailureTaxonomy) {
  // Hard environment failure: the file does not exist.
  const auto missing = load_csr("/nonexistent/gclus/file.csr2");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  TempFile f("gclus_io_status.csr2");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "garbage that is much longer than the CSR v2 header needs";
  }
  // Not what it claims to be: wrong magic.
  const auto garbage = load_csr(f.path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);

  const Graph g = gen::grid(8, 8);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  // Was valid, now torn: truncation and checksum damage are kDataLoss.
  const auto full = std::filesystem::file_size(f.path);
  std::filesystem::resize_file(f.path, full - 16);
  const auto truncated = load_csr(f.path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);

  // Errors carry the path as context for one-line diagnostics.
  EXPECT_NE(truncated.status().message().find(f.path), std::string::npos);

  // Layout mismatch: a plain file through the compressed loader.
  ASSERT_TRUE(write_csr(g, f.path).ok());
  const auto wrong_family = load_compressed_csr(f.path);
  ASSERT_FALSE(wrong_family.ok());
  EXPECT_EQ(wrong_family.status().code(), StatusCode::kInvalidArgument);
}

TEST(Csr2Status, WriteToUnwritableDirectoryIsIoError) {
  const Status st =
      write_csr(gen::cycle(8), "/proc/definitely/not/writable/x.csr2");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(EdgeListStatus, MissingFileIsIoError) {
  const auto missing = load_edge_list("/nonexistent/gclus/edges.txt");
  EXPECT_TRUE(testutil::fails_with(missing.status(), StatusCode::kIoError,
                                   "cannot open"));
  EXPECT_NE(missing.status().message().find("/nonexistent/gclus/edges.txt"),
            std::string::npos);
}

// ---- corruption sweep -------------------------------------------------------

// Every single-bit flip and every truncation of a plain and a compressed
// file, copied and mapped, through load_csr (which decompresses the
// latter): each load either fails with a Status or returns the original
// graph (a flip in the alignment padding, which the checksum does not
// cover) — never a different graph, never an abort.
TEST(Csr2Corruption, EveryBitFlipAndTruncationIsStatusOrOriginal) {
  const Graph g = gen::road_like(6, 6, 0.08, 0.02, 1);
  std::vector<CsrLoadMode> modes = {CsrLoadMode::kCopy};
  if (mmap_supported()) modes.push_back(CsrLoadMode::kMmap);
  TempFile f("gclus_io_sweep.csr2");

  for (const bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "compressed" : "plain");
    ASSERT_TRUE(testutil::is_ok(compressed ? write_csr(compress(g), f.path)
                                           : write_csr(g, f.path)));
    const std::vector<char> pristine = slurp(f.path);
    std::size_t rejected = 0;
    std::size_t identical = 0;
    const auto check = [&](const std::vector<char>& bytes,
                           const std::string& what) {
      spit(f.path, bytes);
      for (const CsrLoadMode mode : modes) {
        const auto r = load_csr(f.path, {.mode = mode});
        if (r.ok()) {
          EXPECT_TRUE(testutil::same_csr(*r, g)) << what;
        }
        ++(r.ok() ? identical : rejected);
      }
    };
    for (std::size_t i = 0; i < pristine.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<char> bytes = pristine;
        bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
        check(bytes, "flip byte " + std::to_string(i) + " bit " +
                         std::to_string(bit));
      }
    }
    for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
      check({pristine.begin(), pristine.begin() + static_cast<long>(keep)},
            "truncated to " + std::to_string(keep));
    }
    // Most flips land in the header or a section; every truncation fails.
    EXPECT_GT(rejected, identical);
    EXPECT_GE(rejected, pristine.size() * modes.size());
  }
}

// ---- owning vs mmap through the registry ------------------------------------

/// Cheap, well-defined parameters for every registered algorithm on small
/// graphs (mirrors the registry corpus sweep in test_api.cpp).
AlgoParams sweep_params(const std::string& algo) {
  AlgoParams p;
  if (algo == "mpx" || algo == "mr.mpx") {
    p.set("beta", 0.4);
  } else if (algo == "random_centers" || algo == "gonzalez" ||
             algo == "kcenter") {
    p.set("k", std::uint64_t{4});
  } else if (algo == "mr.bfs") {
    p.set("source", std::uint64_t{0});
  } else {
    p.set("tau", std::uint64_t{2});
  }
  return p;
}

TEST(Csr2Registry, OwningAndMappedGraphsDecomposeIdentically) {
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  TempFile f("gclus_io_registry.csr2");
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    ASSERT_TRUE(testutil::is_ok(write_csr(g, f.path))) << name;
    const Graph mapped = load_csr(f.path, {.mode = CsrLoadMode::kMmap}).value();
    if (testutil::kCanSeeMappings) {
      ASSERT_TRUE(testutil::in_file_mapping(mapped.offsets().data())) << name;
    }
    for (const std::string& algo : registry().names()) {
      RunContext ctx_own, ctx_map;
      ctx_own.seed = ctx_map.seed = 12345;
      const Clustering own =
          registry().run(algo, g, sweep_params(algo), ctx_own).value();
      const Clustering map =
          registry().run(algo, mapped, sweep_params(algo), ctx_map).value();
      EXPECT_EQ(own.assignment, map.assignment) << name << "/" << algo;
      EXPECT_EQ(own.centers, map.centers) << name << "/" << algo;
      EXPECT_EQ(own.dist_to_center, map.dist_to_center)
          << name << "/" << algo;
    }
  }
}

}  // namespace
}  // namespace gclus::io
