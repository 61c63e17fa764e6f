// CLI tool: decompose an arbitrary edge-list graph from disk through the
// algorithm registry — the unified API's front door in miniature.
//
//   $ ./decompose_file [path/to/edges.txt] [flags]
//
//   --list                     print every registered algorithm + schema
//   --algo=NAME                algorithm to run (default: cluster)
//   --seed=N --threads=N       RunContext knobs
//   --growth.mode=push|pull|auto --growth.alpha=F --growth.beta=F
//                              (F finite and > 0: the direction heuristic
//                              divides by it)
//   --format=auto|edges|csr2   input format (auto sniffs the CSR v2 magic)
//   --load=auto|mmap|copy      CSR v2 load mode (auto prefers mmap)
//   --layout=plain|compressed  in-memory representation for the run: plain
//                              CSR arrays, or the Rice-coded compressed
//                              adjacency (2-4x smaller; growth-engine
//                              algorithms run on it natively, others
//                              decompress transparently)
//   --convert=OUT.csr2         convert the input to CSR v2 and exit —
//                              preprocess a SNAP edge list once, then
//                              mmap it on every subsequent run
//   --compress                 with --convert: write the compressed CSR v2
//                              layout instead and report the achieved
//                              compression ratio
//   --KEY=VALUE                algorithm parameter, validated against the
//                              registry schema (e.g. --tau=64, --beta=0.4)
//
// There is deliberately no per-algorithm switch statement here: the
// registry supplies the schema and the adapter, so a new decomposition
// algorithm becomes selectable the moment it registers itself — which is
// how the MR-emulated variants are driven too:
//
//   $ ./decompose_file --algo=mr.cluster --tau=16 --spill_bytes=65536
//
// runs CLUSTER in MR rounds with the out-of-core shuffle capped at 64 KiB
// and prints round/spill/combiner telemetry alongside the clustering.
//
// The file format is the SNAP/LAW edge list the paper's datasets ship in:
// one "u v" pair per line, '#'/'%' comments, arbitrary sparse ids.  With
// no input path, a demo graph is generated and written to a temp file
// first, so the tool is runnable out of the box.  Output: clustering
// summary, the largest clusters, telemetry events, and the quotient graph
// written next to the input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "common/faultpoint.hpp"
#include "common/parse.hpp"
#include "common/status.hpp"
#include "core/quotient.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "par/thread_pool.hpp"

namespace {

using namespace gclus;

void print_registry() {
  std::printf("registered algorithms:\n");
  for (const std::string& name : registry().names()) {
    const AlgoInfo* info = registry().find(name);
    std::printf("  %-18s %s\n", name.c_str(), info->summary.c_str());
    for (const ParamSpec& p : info->params) {
      std::printf("    --%-16s %-6s (default %s) %s\n", p.key.c_str(),
                  param_type_name(p.type), p.default_value.c_str(),
                  p.help.c_str());
    }
  }
}

// Context-level flags get the same strictness the registry applies to
// algorithm parameters: a typo must abort, not silently become 0.
std::uint64_t parse_u64_or_die(const std::string& key,
                               const std::string& value) {
  const StatusOr<std::uint64_t> v = parse_u64(value);
  if (!v.ok()) {
    std::fprintf(stderr, "--%s=%s is not an unsigned integer\n", key.c_str(),
                 value.c_str());
    std::exit(1);
  }
  return *v;
}

double parse_positive_double_or_die(const std::string& key,
                                    const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v) ||
      !(v > 0)) {
    std::fprintf(stderr, "--%s=%s is not a finite positive number\n",
                 key.c_str(), value.c_str());
    std::exit(1);
  }
  return v;
}

bool parse_growth_mode(const std::string& value, GrowthOptions& growth) {
  if (value == "push") {
    growth.mode = TraversalMode::kPushOnly;
  } else if (value == "pull") {
    growth.mode = TraversalMode::kPullOnly;
  } else if (value == "auto") {
    growth.mode = TraversalMode::kAuto;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string algo = "cluster";
  std::string format = "auto";
  std::string layout = "plain";
  std::string convert_out;
  bool compress_out = false;
  AlgoParams params;
  RunContext ctx;
  io::CsrLoadOptions load_opts;
  std::size_t threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      print_registry();
      return 0;
    }
    if (arg == "--compress") {
      compress_out = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      path = arg;  // positional: the edge-list file
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "flag %s needs =VALUE (try --list)\n", arg.c_str());
      return 1;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    // Context-level keys are shared by every algorithm; anything else is an
    // algorithm parameter the registry validates.
    if (key == "algo") {
      algo = value;
    } else if (key == "format") {
      if (value != "auto" && value != "edges" && value != "csr2") {
        std::fprintf(stderr, "--format=%s (expected auto|edges|csr2)\n",
                     value.c_str());
        return 1;
      }
      format = value;
    } else if (key == "load") {
      if (value == "auto") {
        load_opts.mode = io::CsrLoadMode::kAuto;
      } else if (value == "mmap") {
        load_opts.mode = io::CsrLoadMode::kMmap;
      } else if (value == "copy") {
        load_opts.mode = io::CsrLoadMode::kCopy;
      } else {
        std::fprintf(stderr, "--load=%s (expected auto|mmap|copy)\n",
                     value.c_str());
        return 1;
      }
    } else if (key == "layout") {
      if (value != "plain" && value != "compressed") {
        std::fprintf(stderr, "--layout=%s (expected plain|compressed)\n",
                     value.c_str());
        return 1;
      }
      layout = value;
    } else if (key == "convert") {
      convert_out = value;
    } else if (key == "seed") {
      ctx.seed = parse_u64_or_die(key, value);
    } else if (key == "threads") {
      threads = static_cast<std::size_t>(parse_u64_or_die(key, value));
    } else if (key == "growth.mode") {
      if (!parse_growth_mode(value, ctx.growth)) {
        std::fprintf(stderr, "--growth.mode=%s (expected push|pull|auto)\n",
                     value.c_str());
        return 1;
      }
    } else if (key == "growth.alpha") {
      ctx.growth.alpha = parse_positive_double_or_die(key, value);
    } else if (key == "growth.beta") {
      ctx.growth.beta = parse_positive_double_or_die(key, value);
    } else {
      params.set(key, value);
    }
  }

  if (registry().find(algo) == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algo.c_str());
    print_registry();
    return 1;
  }

  if (path.empty()) {
    // Demo input: a ring of communities, written as a plain edge list.
    path = (std::filesystem::temp_directory_path() / "gclus_demo_edges.txt")
               .string();
    io::write_edge_list_file(gen::ring_of_cliques(40, 25), path);
    std::printf("no input given; wrote demo graph to %s\n", path.c_str());
  }

  // Unreadable or corrupt inputs are an *environment* problem, not a
  // usage error: report the Status on one line and exit 2, distinct from
  // the exit-1 flag/parameter mistakes above.
  const bool input_is_csr =
      format == "csr2" || (format == "auto" && io::is_csr_file(path));
  const auto input_info = io::probe_csr_file(path);
  const bool input_compressed =
      input_is_csr && input_info && input_info->compressed;

  Graph g;
  std::optional<CompressedGraph> cg;
  if (layout == "compressed" && input_compressed && convert_out.empty()) {
    // Compressed file, compressed run: view the file's sections in place —
    // no decode, no plain arrays.
    auto lc = io::load_compressed_csr(path, load_opts);
    if (!lc.ok()) {
      std::fprintf(stderr, "decompose_file: %s\n",
                   lc.status().to_string().c_str());
      return 2;
    }
    cg = std::move(lc).value();
    std::printf(
        "loaded %s (compressed CSR v2, zero-copy): %u nodes, %llu edges, "
        "%.2f bytes/edge\n",
        path.c_str(), cg->num_nodes(),
        static_cast<unsigned long long>(cg->num_edges()),
        static_cast<double>(cg->memory_bytes()) /
            static_cast<double>(std::max<std::uint64_t>(1, cg->num_edges())));
    // The summary below (components, validation, quotient) needs the plain
    // arrays once; the *algorithm* still runs on the compressed graph.
    g = cg->decompress();
  } else {
    StatusOr<Graph> loaded = input_is_csr ? io::load_csr(path, load_opts)
                                          : io::load_edge_list(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "decompose_file: %s\n",
                   loaded.status().to_string().c_str());
      return 2;
    }
    g = std::move(loaded).value();
    std::printf("loaded %s (%s%s): %u nodes, %llu edges\n", path.c_str(),
                input_is_csr ? "CSR v2" : "edge list",
                g.owns_storage() ? "" : ", mmap-backed", g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()));
    if (layout == "compressed" && convert_out.empty()) {
      cg = compress(g);
      std::printf("compressed in memory: %llu -> %llu adjacency bytes\n",
                  static_cast<unsigned long long>(
                      (static_cast<std::uint64_t>(g.num_nodes()) + 1) * 8 +
                      g.num_half_edges() * 4),
                  static_cast<unsigned long long>(cg->memory_bytes()));
    }
  }

  if (!convert_out.empty()) {
    // What the plain (uncompressed) CSR v2 writer would produce for this
    // graph: 64-byte-aligned header + offsets + neighbors sections.
    const auto align64 = [](std::uint64_t x) { return (x + 63) / 64 * 64; };
    const std::uint64_t plain_bytes =
        align64(align64(72) +
                (static_cast<std::uint64_t>(g.num_nodes()) + 1) * 8) +
        g.num_half_edges() * 4;
    if (compress_out) {
      const CompressedGraph out_cg = compress(g);
      if (const Status st = io::write_csr(out_cg, convert_out); !st.ok()) {
        std::fprintf(stderr, "decompose_file: %s\n", st.to_string().c_str());
        return 2;
      }
      const auto info = io::probe_csr_file(convert_out);
      const std::uint64_t file_bytes = info ? info->file_bytes : 0;
      std::printf(
          "wrote compressed CSR v2 %s: %llu bytes (plain would be %llu — "
          "%.2fx compression)\n",
          convert_out.c_str(), static_cast<unsigned long long>(file_bytes),
          static_cast<unsigned long long>(plain_bytes),
          static_cast<double>(plain_bytes) /
              static_cast<double>(std::max<std::uint64_t>(1, file_bytes)));
      std::printf(
          "reload it with: decompose_file %s --format=csr2 "
          "--layout=compressed\n",
          convert_out.c_str());
      return 0;
    }
    if (const Status st = io::write_csr(g, convert_out); !st.ok()) {
      std::fprintf(stderr, "decompose_file: %s\n", st.to_string().c_str());
      return 2;
    }
    const auto info = io::probe_csr_file(convert_out);
    std::printf("wrote CSR v2 %s: %llu bytes, n=%llu, m=%llu half-edges\n",
                convert_out.c_str(),
                static_cast<unsigned long long>(info ? info->file_bytes : 0),
                static_cast<unsigned long long>(g.num_nodes()),
                static_cast<unsigned long long>(g.num_half_edges()));
    std::printf("reload it with: decompose_file %s --format=csr2\n",
                convert_out.c_str());
    return 0;
  }
  const Components comps = connected_components(g);
  if (comps.count > 1) {
    std::printf("note: %u connected components; clustering all of them\n",
                comps.count);
  }

  std::unique_ptr<ThreadPool> private_pool;
  if (threads > 0) {
    private_pool = std::make_unique<ThreadPool>(threads);
    ctx.pool = private_pool.get();
  }
  RecordingTelemetry telemetry;
  ctx.telemetry = &telemetry;

  StatusOr<Clustering> run = cg.has_value()
                                 ? registry().run(algo, *cg, params, ctx)
                                 : registry().run(algo, g, params, ctx);
  if (!run.ok()) {
    // The registry rejects a bad parameter key or value, and a graph
    // outside the algorithm's preconditions (empty; disconnected where
    // the algorithm needs one component), as INVALID_ARGUMENT: a usage
    // error, exit 1.  Any other code is an environment failure (an mr.*
    // round that lost spilled data): exit 2, like an unreadable input.
    std::fprintf(stderr, "decompose_file: %s\n",
                 run.status().to_string().c_str());
    return run.status().code() == StatusCode::kInvalidArgument ? 1 : 2;
  }
  const Clustering c = std::move(run).value();
  std::printf("%s: %u clusters, max radius %u, %zu growth steps%s\n",
              algo.c_str(), c.num_clusters(), c.max_radius(), c.growth_steps,
              c.validate(g) ? "" : "  [VALIDATION FAILED]");
  for (const auto& [key, value] : telemetry.events()) {
    std::printf("  telemetry %-28s %.6g\n", key.c_str(), value);
  }
  // Surfaced when GCLUS_FAULT is armed, so a fault-injection run shows
  // exactly which points fired alongside the (still valid) output.
  for (const auto& [name, count] : fault::triggered_counters()) {
    std::printf("  fault     %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }

  // Top clusters by size.
  std::vector<ClusterId> order(c.num_clusters());
  std::iota(order.begin(), order.end(), ClusterId{0});
  std::partial_sort(order.begin(),
                    order.begin() + std::min<std::size_t>(5, order.size()),
                    order.end(), [&](ClusterId a, ClusterId b) {
                      return c.sizes[a] > c.sizes[b];
                    });
  std::printf("largest clusters:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
    const ClusterId id = order[i];
    std::printf("  #%u: center %u, %u nodes, radius %u\n", id, c.centers[id],
                c.sizes[id], c.radius[id]);
  }

  const QuotientGraph q = build_quotient(g, c, /*with_weights=*/false);
  const std::string out = path + ".quotient";
  io::write_edge_list_file(q.graph, out);
  std::printf("quotient graph (%u nodes, %llu edges) written to %s\n",
              q.graph.num_nodes(),
              static_cast<unsigned long long>(q.graph.num_edges()),
              out.c_str());
  return 0;
}
