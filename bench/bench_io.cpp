// Ingestion benchmark — the perf/compliance anchor for the storage layer.
//
// On the 1.2M-edge 8-regular expander (the same graph as
// bench_decomposition) this demonstrates the three claims of the CSR v2
// ingestion subsystem:
//
//   1. Parallel parse: the chunked edge-list parser at 8 threads beats
//      the serial istream parser by ≥4x, and its output is byte-identical
//      at 1, 2, and 8 threads (and to the serial parser).  The same edges
//      written tab-separated with CRLF endings (SNAP's dialect) must parse
//      to the same graph; their 1-thread time is recorded, not gated.
//
//   2. Binary beats text: loading the CSR v2 file — checksum-verified —
//      is ≥10x faster than parsing the text edge list, with the mmap
//      zero-copy path at least matching the copying read() path.
//
//   3. Storage transparency: a registry decomposition on the graph that
//      views the mapped file is byte-identical to the built graph.
//
//   4. Compressed CSR reach: the Rice-coded adjacency file is >= 2x
//      smaller than plain CSR v2, the encoder is byte-identical at 1, 2,
//      and 8 threads, a push-mode registry decomposition pays <= 25%
//      decode overhead over plain CSR, and compressed-mode outputs are
//      byte-identical to the plain run at every thread count.  The
//      degree-descending relabeling's pull-mode locality win is measured
//      on its own (plain graph vs physically relabeled plain graph), so
//      the report separates layout gains from decode costs.
//
// Results go to stdout as paper-style tables and to BENCH_io.json
// (override with GCLUS_BENCH_OUT).  Exits nonzero if any claim fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/file_mapping.hpp"
#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "bench_common.hpp"
#include "common/timer.hpp"
#include "graph/bfs.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "par/thread_pool.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr NodeId kNodes = 300000;
constexpr unsigned kDegree = 8;
constexpr std::uint64_t kGraphSeed = 42;
constexpr double kMinParallelSpeedup = 4.0;
constexpr double kMinMmapSpeedup = 10.0;
constexpr double kMinCompressionRatio = 2.0;
constexpr double kMaxDecodeOverhead = 0.25;

// Skewed graph for the relabeling ablation: pull-mode locality only moves
// when the degree distribution is heavy-tailed, so the 8-regular expander
// (where degree order is the identity) cannot show it.
constexpr NodeId kSkewNodes = 200000;
constexpr NodeId kSkewAttach = 4;
constexpr std::uint64_t kSkewSeed = 11;

/// Best-of-N wall time for a loader; every invocation's result must
/// satisfy `check` (so timing never trades off correctness).
template <typename Fn, typename Check>
double best_of(int reps, const Fn& fn, const Check& check) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    auto result = fn();
    best = std::min(best, t.elapsed_s());
    check(result);
  }
  return best;
}

/// Failing to write the bench's own scratch files ends the run.
void expect_written(const Status& st) {
  if (st.ok()) return;
  std::fprintf(stderr, "BENCH FAILED: %s\n", st.to_string().c_str());
  std::exit(1);
}

bool same_clustering(const Clustering& a, const Clustering& b) {
  return a.assignment == b.assignment && a.centers == b.centers &&
         a.dist_to_center == b.dist_to_center;
}

}  // namespace

int main() {
  const Graph g = cached_expander(kNodes, kDegree, kGraphSeed);
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string txt_path = dir + "/gclus_bench_io.txt";
  const std::string csr_path = dir + "/gclus_bench_io.csr2";

  Timer t_write_txt;
  io::write_edge_list_file(g, txt_path);
  const double write_text_s = t_write_txt.elapsed_s();
  Timer t_write_csr;
  expect_written(io::write_csr(g, csr_path));
  const double write_csr_s = t_write_csr.elapsed_s();
  const auto text_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(txt_path));
  const auto csr_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(csr_path));

  std::printf("expander: n=%u m=%llu  text=%llu bytes  csr2=%llu bytes\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(text_bytes),
              static_cast<unsigned long long>(csr_bytes));

  // Reference numbering for equality checks: the serial parser's output.
  const Graph reference = [&] {
    std::ifstream in(txt_path);
    return io::read_edge_list(in);
  }();
  const auto expect_same = [](const Graph& h, const Graph& want,
                              const char* what) {
    if (!std::ranges::equal(h.offsets(), want.offsets()) ||
        !std::ranges::equal(h.neighbor_array(), want.neighbor_array())) {
      std::fprintf(stderr, "BENCH FAILED: %s diverges\n", what);
      std::exit(1);
    }
  };
  // Text parses compact ids in first-appearance order (the serial
  // parser's numbering); CSR v2 loads reproduce g verbatim.
  const auto expect_reference = [&](const Graph& h) {
    expect_same(h, reference, "parsed graph");
  };
  const auto expect_g = [&](const Graph& h) {
    expect_same(h, g, "loaded graph");
  };

  // --- text parse: serial reference vs the parallel parser. ---
  const double serial_parse_s = best_of(
      2,
      [&] {
        std::ifstream in(txt_path);
        return io::read_edge_list(in);
      },
      expect_reference);

  ThreadPool pool1(1), pool2(2), pool8(8);
  const auto parse_with = [&](ThreadPool& pool) {
    return best_of(
        3, [&] { return io::load_edge_list(txt_path, pool).value(); },
        expect_reference);
  };
  const double parallel_1t_s = parse_with(pool1);
  const double parallel_2t_s = parse_with(pool2);
  const double parallel_8t_s = parse_with(pool8);
  const double parallel_speedup = serial_parse_s / parallel_8t_s;

  // The same edges in SNAP's dialect, tab-separated with CRLF endings: a
  // separator the one-pass scanner takes, so its time stays near the plain
  // text's.  Recorded, not gated.
  const std::string snap_path = dir + "/gclus_bench_io_snap.txt";
  {
    std::ofstream out(snap_path, std::ios::binary);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (u < v) out << u << '\t' << v << "\r\n";
      }
    }
    if (!out.good()) {
      std::fprintf(stderr, "BENCH FAILED: cannot write %s\n",
                   snap_path.c_str());
      std::exit(1);
    }
  }
  // Paired with a plain 1-thread parse per rep, as the decode overhead
  // below is, so load drift on a busy host hits both sides.
  double plain_paired_1t_s = 1e100;
  double snap_1t_s = 1e100;
  for (int rep = 0; rep < 5; ++rep) {
    plain_paired_1t_s = std::min(
        plain_paired_1t_s,
        best_of(
            1, [&] { return io::load_edge_list(txt_path, pool1).value(); },
            expect_reference));
    snap_1t_s = std::min(
        snap_1t_s,
        best_of(
            1, [&] { return io::load_edge_list(snap_path, pool1).value(); },
            [&](const Graph& h) {
              expect_same(h, reference, "tab+CRLF parse");
            }));
  }
  const double snap_over_plain_1t = snap_1t_s / plain_paired_1t_s;

  TablePrinter parse_table({"parser", "threads", "wall_s", "speedup"});
  parse_table.add_row({"istream (serial)", "1", fmt(serial_parse_s, 3), "1.00"});
  parse_table.add_row({"chunked", "1", fmt(parallel_1t_s, 3),
                       fmt(serial_parse_s / parallel_1t_s, 2)});
  parse_table.add_row({"chunked", "2", fmt(parallel_2t_s, 3),
                       fmt(serial_parse_s / parallel_2t_s, 2)});
  parse_table.add_row({"chunked", "8", fmt(parallel_8t_s, 3),
                       fmt(parallel_speedup, 2)});
  parse_table.add_row({"chunked, tab+CRLF", "1", fmt(snap_1t_s, 3),
                       fmt(serial_parse_s / snap_1t_s, 2)});
  parse_table.print("Edge-list parse, 1.2M edges",
                    "target: chunked@8 >= 4x istream; all outputs "
                    "byte-identical to the serial parser");

  // --- binary load: copy vs mmap (both checksum-verified). ---
  const double csr_copy_s = best_of(
      3,
      [&] {
        return io::load_csr(csr_path, {.mode = io::CsrLoadMode::kCopy})
            .value();
      },
      expect_g);
  double csr_mmap_s = csr_copy_s;
  const bool have_mmap = io::mmap_supported();
  if (have_mmap) {
    csr_mmap_s = best_of(
        3,
        [&] {
          return io::load_csr(csr_path, {.mode = io::CsrLoadMode::kMmap})
              .value();
        },
        [&](const Graph& h) {
          if (testutil::kCanSeeMappings &&
              !testutil::in_file_mapping(h.offsets().data())) {
            std::fprintf(stderr, "BENCH FAILED: mmap load not zero-copy\n");
            std::exit(1);
          }
          expect_g(h);
        });
  }
  const double mmap_speedup = serial_parse_s / csr_mmap_s;

  TablePrinter load_table({"loader", "wall_s", "vs text parse"});
  load_table.add_row({"text parse (serial)", fmt(serial_parse_s, 3), "1.00"});
  load_table.add_row({"text parse (8t)", fmt(parallel_8t_s, 3),
                      fmt(serial_parse_s / parallel_8t_s, 2)});
  load_table.add_row({"csr2 copy", fmt(csr_copy_s, 4),
                      fmt(serial_parse_s / csr_copy_s, 2)});
  load_table.add_row({have_mmap ? "csr2 mmap" : "csr2 mmap (unsupported)",
                      fmt(csr_mmap_s, 4), fmt(mmap_speedup, 2)});
  load_table.print("CSR v2 load vs text parse",
                   "target: mmap >= 10x text parse, checksum verification "
                   "included");

  // --- determinism across thread counts (full graphs, not just times). ---
  const Graph p1 = io::load_edge_list(txt_path, pool1).value();
  const Graph p2 = io::load_edge_list(txt_path, pool2).value();
  const Graph p8 = io::load_edge_list(txt_path, pool8).value();
  const bool deterministic =
      std::ranges::equal(p1.neighbor_array(), p2.neighbor_array()) &&
      std::ranges::equal(p1.neighbor_array(), p8.neighbor_array()) &&
      std::ranges::equal(p1.offsets(), p2.offsets()) &&
      std::ranges::equal(p1.offsets(), p8.offsets());

  // --- owning vs mmap through the registry. ---
  bool registry_identical = true;
  if (have_mmap) {
    const Graph mapped =
        io::load_csr(csr_path, {.mode = io::CsrLoadMode::kMmap}).value();
    AlgoParams params;
    params.set("tau", std::uint64_t{16});
    RunContext ctx_own, ctx_map;
    ctx_own.seed = ctx_map.seed = 7;
    const Clustering own =
        registry().run("cluster", g, params, ctx_own).value();
    const Clustering map =
        registry().run("cluster", mapped, params, ctx_map).value();
    registry_identical = same_clustering(own, map);
    std::printf("registry cluster(16) built vs mapped: %s\n",
                registry_identical ? "byte-identical" : "DIVERGED");
  }

  // --- compressed CSR: footprint, encoder determinism, load. ---
  const std::string cz_path = dir + "/gclus_bench_io_cz.csr2";
  Timer t_compress;
  const CompressedGraph cz = compress(g, pool8);
  const double compress_s = t_compress.elapsed_s();
  expect_written(io::write_csr(cz, cz_path));
  const auto cz_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(cz_path));
  const double compression_ratio =
      static_cast<double>(csr_bytes) / static_cast<double>(cz_bytes);
  const double bits_per_half_edge = static_cast<double>(cz_bytes) * 8.0 /
                                    static_cast<double>(g.num_half_edges());

  const auto same_sections = [](const CompressedGraph& a,
                                const CompressedGraph& b) {
    return std::ranges::equal(a.degrees_section(), b.degrees_section()) &&
           std::ranges::equal(a.anchors_section(), b.anchors_section()) &&
           std::ranges::equal(a.locals_section(), b.locals_section()) &&
           std::ranges::equal(a.adj_section(), b.adj_section()) &&
           std::ranges::equal(a.perm_section(), b.perm_section()) &&
           std::ranges::equal(a.inv_section(), b.inv_section());
  };
  const bool encode_deterministic = same_sections(cz, compress(g, pool1)) &&
                                    same_sections(cz, compress(g, pool2));

  // Compressed load includes the checksum and the full structural decode
  // walk; the round trip must reproduce g's CSR arrays byte-for-byte.
  const double cz_load_s = best_of(
      3, [&] { return io::load_compressed_csr(cz_path).value(); },
      [&](const CompressedGraph& h) {
        if (h.num_nodes() != g.num_nodes() ||
            h.num_half_edges() != g.num_half_edges()) {
          std::fprintf(stderr, "BENCH FAILED: compressed load shape\n");
          std::exit(1);
        }
      });
  expect_g(io::load_compressed_csr(cz_path).value().decompress(pool8));

  TablePrinter cz_table({"layout", "bytes", "bits/half-edge", "vs csr2"});
  cz_table.add_row({"csr2 plain", fmt_u(csr_bytes),
                    fmt(static_cast<double>(csr_bytes) * 8.0 /
                            static_cast<double>(g.num_half_edges()),
                        2),
                    "1.00"});
  cz_table.add_row({"csr2 compressed", fmt_u(cz_bytes),
                    fmt(bits_per_half_edge, 2), fmt(compression_ratio, 2)});
  cz_table.print("Compressed CSR footprint, 1.2M-edge expander",
                 "target: >= 2x smaller than plain CSR v2; encoder "
                 "byte-identical at 1/2/8 threads");

  // --- decode overhead: push-mode registry cluster, plain vs compressed. ---
  AlgoParams cl_params;
  cl_params.set("tau", std::uint64_t{16});
  const auto push_ctx = [&](ThreadPool& pool) {
    RunContext ctx;
    ctx.seed = 7;
    ctx.pool = &pool;
    ctx.growth.mode = TraversalMode::kPushOnly;
    return ctx;
  };
  const Clustering push_ref = [&] {
    RunContext ctx = push_ctx(pool8);
    return registry().run("cluster", g, cl_params, ctx).value();
  }();
  const auto expect_push_ref = [&](const Clustering& c) {
    if (!same_clustering(c, push_ref)) {
      std::fprintf(stderr,
                   "BENCH FAILED: compressed cluster output diverges\n");
      std::exit(1);
    }
  };
  // Paired timing: plain and compressed alternate within each rep, so
  // machine-load drift across the measurement window hits both sides
  // equally and the overhead ratio stays stable even on busy hosts.
  double plain_cluster_s = 1e100;
  double cz_cluster_s = 1e100;
  for (int rep = 0; rep < 7; ++rep) {
    {
      RunContext ctx = push_ctx(pool8);
      Timer t;
      const Clustering c = registry().run("cluster", g, cl_params, ctx).value();
      plain_cluster_s = std::min(plain_cluster_s, t.elapsed_s());
      expect_push_ref(c);
    }
    {
      RunContext ctx = push_ctx(pool8);
      Timer t;
      const Clustering c =
          registry().run("cluster", cz, cl_params, ctx).value();
      cz_cluster_s = std::min(cz_cluster_s, t.elapsed_s());
      expect_push_ref(c);
    }
  }
  const double decode_overhead =
      (cz_cluster_s - plain_cluster_s) / plain_cluster_s;

  // Compressed-mode output identity across thread counts (default
  // direction heuristic, so both push and pull steps are exercised).
  bool compressed_identical = true;
  for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    RunContext ctx_cz, ctx_plain;
    ctx_cz.seed = ctx_plain.seed = 7;
    ctx_cz.pool = ctx_plain.pool = pool;
    const Clustering from_cz =
        registry().run("cluster", cz, cl_params, ctx_cz).value();
    const Clustering from_plain =
        registry().run("cluster", g, cl_params, ctx_plain).value();
    compressed_identical =
        compressed_identical && same_clustering(from_cz, from_plain);
  }

  TablePrinter decode_table({"input", "cluster(16) push wall_s", "overhead"});
  decode_table.add_row({"plain CSR", fmt(plain_cluster_s, 4), "--"});
  decode_table.add_row({"compressed", fmt(cz_cluster_s, 4),
                        fmt(decode_overhead * 100.0, 1) + "%"});
  decode_table.print("Decode overhead, push-mode registry cluster @8t",
                     "target: <= 25% over plain CSR; outputs byte-identical "
                     "at 1/2/8 threads");

  // --- relabeling alone: pull-mode locality on a skewed graph. ---
  // Physically relabel a preferential-attachment graph into the same
  // stable degree-descending order the compressed encoder uses, and time
  // pinned-pull BFS on both plain graphs — no decoding anywhere, so the
  // difference is purely the memory layout.
  const Graph skew =
      workloads::cached_graph("bench-io-pa-n" + std::to_string(kSkewNodes),
                              [] {
                                return gen::preferential_attachment(
                                    kSkewNodes, kSkewAttach, kSkewSeed);
                              });
  const NodeId sn = skew.num_nodes();
  std::vector<NodeId> order(sn);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return skew.degree(a) > skew.degree(b);
  });
  std::vector<NodeId> perm(sn);
  for (NodeId s = 0; s < sn; ++s) perm[order[s]] = s;
  std::vector<EdgeId> roffsets(sn + 1, 0);
  for (NodeId s = 0; s < sn; ++s)
    roffsets[s + 1] = roffsets[s] + skew.degree(order[s]);
  std::vector<NodeId> rneighbors(skew.num_half_edges());
  for (NodeId s = 0; s < sn; ++s) {
    EdgeId at = roffsets[s];
    for (const NodeId v : skew.neighbors(order[s])) rneighbors[at++] = perm[v];
    std::sort(
        rneighbors.begin() + static_cast<std::ptrdiff_t>(roffsets[s]),
        rneighbors.begin() + static_cast<std::ptrdiff_t>(roffsets[s + 1]));
  }
  const Graph relabeled(std::move(roffsets), std::move(rneighbors));

  GrowthOptions pull_only;
  pull_only.mode = TraversalMode::kPullOnly;
  const NodeId skew_src = 0;
  const std::vector<Dist> pull_ref =
      parallel_bfs(pool8, skew, skew_src, nullptr, pull_only);
  const double pull_orig_s = best_of(
      5,
      [&] { return parallel_bfs(pool8, skew, skew_src, nullptr, pull_only); },
      [&](const std::vector<Dist>& d) {
        if (d != pull_ref) {
          std::fprintf(stderr, "BENCH FAILED: pull BFS diverges\n");
          std::exit(1);
        }
      });
  const double pull_relab_s = best_of(
      5,
      [&] {
        return parallel_bfs(pool8, relabeled, perm[skew_src], nullptr,
                            pull_only);
      },
      [&](const std::vector<Dist>& d) {
        for (NodeId u = 0; u < sn; ++u) {
          if (d[perm[u]] != pull_ref[u]) {
            std::fprintf(stderr, "BENCH FAILED: relabeled pull BFS diverges\n");
            std::exit(1);
          }
        }
      });
  const double relabel_pull_speedup = pull_orig_s / pull_relab_s;

  TablePrinter relab_table({"layout", "pull BFS wall_s", "speedup"});
  relab_table.add_row({"original order", fmt(pull_orig_s, 4), "1.00"});
  relab_table.add_row({"degree-descending", fmt(pull_relab_s, 4),
                       fmt(relabel_pull_speedup, 2)});
  relab_table.print(
      "Relabeling alone, pinned-pull BFS on preferential attachment @8t",
      "plain CSR both sides: isolates the layout win from decode cost");

  Json root = Json::object();
  root.set("bench", "io");
  root.set("graph", Json::object()
                        .set("generator", "expander")
                        .set("nodes", static_cast<std::uint64_t>(g.num_nodes()))
                        .set("edges", static_cast<std::uint64_t>(g.num_edges()))
                        .set("degree", static_cast<std::uint64_t>(kDegree))
                        .set("seed", kGraphSeed));
  root.set("text_bytes", text_bytes);
  root.set("csr_bytes", csr_bytes);
  root.set("write_text_s", write_text_s);
  root.set("write_csr_s", write_csr_s);
  root.set("serial_parse_s", serial_parse_s);
  root.set("parallel_parse_1t_s", parallel_1t_s);
  root.set("parallel_parse_2t_s", parallel_2t_s);
  root.set("parallel_parse_8t_s", parallel_8t_s);
  root.set("parallel_speedup_8t", parallel_speedup);
  root.set("snap_parse_1t_s", snap_1t_s);
  root.set("snap_over_plain_1t", snap_over_plain_1t);
  root.set("csr_copy_load_s", csr_copy_s);
  root.set("csr_mmap_load_s", csr_mmap_s);
  root.set("mmap_speedup_vs_text", mmap_speedup);
  root.set("mmap_supported", have_mmap);
  root.set("parse_deterministic_1_2_8", deterministic);
  root.set("registry_mmap_identical", registry_identical);
  root.set("cz_bytes", cz_bytes);
  root.set("compress_s", compress_s);
  root.set("cz_load_s", cz_load_s);
  root.set("compression_ratio", compression_ratio);
  root.set("bits_per_half_edge", bits_per_half_edge);
  root.set("encode_deterministic_1_2_8", encode_deterministic);
  root.set("plain_cluster_push_s", plain_cluster_s);
  root.set("cz_cluster_push_s", cz_cluster_s);
  root.set("decode_overhead", decode_overhead);
  root.set("compressed_identical_1_2_8", compressed_identical);
  root.set("relabel_pull_orig_s", pull_orig_s);
  root.set("relabel_pull_relabeled_s", pull_relab_s);
  root.set("relabel_pull_speedup", relabel_pull_speedup);

  const char* out_env = std::getenv("GCLUS_BENCH_OUT");
  const std::string out_path = out_env != nullptr ? out_env : "BENCH_io.json";
  write_json_file(out_path, root);
  std::printf("\nwrote %s\n", out_path.c_str());

  std::remove(txt_path.c_str());
  std::remove(snap_path.c_str());
  std::remove(csr_path.c_str());
  std::remove(cz_path.c_str());

  if (parallel_speedup < kMinParallelSpeedup ||
      (have_mmap && mmap_speedup < kMinMmapSpeedup) || !deterministic ||
      !registry_identical || compression_ratio < kMinCompressionRatio ||
      decode_overhead > kMaxDecodeOverhead || !encode_deterministic ||
      !compressed_identical) {
    std::fprintf(stderr,
                 "BENCH FAILED: parallel_speedup=%.2f (need >= %.1f) "
                 "mmap_speedup=%.2f (need >= %.1f) deterministic=%d "
                 "registry_identical=%d compression_ratio=%.2f (need >= %.1f) "
                 "decode_overhead=%.2f (need <= %.2f) encode_deterministic=%d "
                 "compressed_identical=%d\n",
                 parallel_speedup, kMinParallelSpeedup, mmap_speedup,
                 kMinMmapSpeedup, deterministic, registry_identical,
                 compression_ratio, kMinCompressionRatio, decode_overhead,
                 kMaxDecodeOverhead, encode_deterministic,
                 compressed_identical);
    return 1;
  }
  return 0;
}
