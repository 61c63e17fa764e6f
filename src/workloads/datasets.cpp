#include "workloads/datasets.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/check.hpp"
#include "common/faultpoint.hpp"
#include "common/status.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace gclus::workloads {

namespace {

constexpr std::uint64_t kDatasetSeed = 0xD5EEDULL;

NodeId scaled(NodeId base) {
  return std::max<NodeId>(64, static_cast<NodeId>(base * workload_scale()));
}

NodeId scaled_side(NodeId base) {
  return std::max<NodeId>(
      8, static_cast<NodeId>(base * std::sqrt(workload_scale())));
}

/// Next power of two >= x (R-MAT wants a power-of-two universe).
NodeId pow2_at_least(NodeId x) {
  NodeId p = 1;
  while (p < x) p <<= 1;
  return p;
}

Graph connected(Graph g) { return largest_component(g).graph; }

struct CacheCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> stores{0};
  std::atomic<std::uint64_t> corrupt_evictions{0};
  std::atomic<std::uint64_t> publish_failures{0};
};

CacheCounters& counters() {
  static CacheCounters c;
  return c;
}

/// Scale rendered compactly and filename-safe ("1", "0.25", "2.5").
std::string scale_tag() {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", workload_scale());
  return buf;
}

}  // namespace

double workload_scale() {
  static const double scale = [] {
    if (const char* env = std::getenv("GCLUS_WORKLOAD_SCALE")) {
      const double v = std::strtod(env, nullptr);
      if (v > 0.0) return std::clamp(v, 0.05, 64.0);
    }
    return 1.0;
  }();
  return scale;
}

std::string dataset_cache_dir() {
  if (const char* env = std::getenv("GCLUS_DATASET_CACHE_DIR")) return env;
  return {};
}

DatasetCacheStats dataset_cache_stats() {
  const auto& c = counters();
  return {c.hits.load(), c.misses.load(), c.stores.load(),
          c.corrupt_evictions.load(), c.publish_failures.load()};
}

/// Loads the entry at dir/key-g<version>.csr2 (validating magic, sections
/// and checksum); on a miss builds it and publishes it.  The load's status
/// code tells an absent entry (plain miss) from a *corrupt* one —
/// truncated, bit-flipped, or torn by a crash on a filesystem without
/// atomic rename — which is deleted so it cannot poison every later run,
/// then rebuilt.
Graph cached_graph(const std::string& key,
                   const std::function<Graph()>& build) {
  const std::string dir = dataset_cache_dir();
  if (dir.empty()) return build();

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; a miss just rebuilds
  const std::string path = dir + "/" + key + "-g" +
                           std::to_string(kDatasetGeneratorVersion) + ".csr2";
  auto cached = GCLUS_FAULTPOINT("cache.load")
                    ? StatusOr<Graph>(DataLossError("injected corrupt entry"))
                    : io::load_csr(path);
  if (cached.ok()) {
    counters().hits.fetch_add(1, std::memory_order_relaxed);
    return std::move(cached).value();
  }
  const StatusCode code = cached.status().code();
  if (code == StatusCode::kDataLoss || code == StatusCode::kInvalidArgument) {
    std::fprintf(stderr,
                 "gclus: evicting corrupt dataset cache entry %s (%s)\n",
                 path.c_str(), cached.status().to_string().c_str());
    counters().corrupt_evictions.fetch_add(1, std::memory_order_relaxed);
    fs::remove(path, ec);  // best effort; rebuild either way
  }
  counters().misses.fetch_add(1, std::memory_order_relaxed);
  Graph g = build();

  // Concurrent fillers (parallel ctest) each write a private temp file and
  // the last rename wins — readers mmap whichever complete inode they
  // opened.  Publication is best-effort end to end: an unwritable or full
  // cache volume degrades to regeneration, never aborts the run.
  const std::string tmp = io::unique_tmp_path(path);
  if (!GCLUS_FAULTPOINT("cache.write") && io::write_csr(g, tmp).ok() &&
      !GCLUS_FAULTPOINT("cache.publish") &&
      io::publish_file(tmp, path, "dataset cache entry").ok()) {
    counters().stores.fetch_add(1, std::memory_order_relaxed);
    return g;
  }
  counters().publish_failures.fetch_add(1, std::memory_order_relaxed);
  fs::remove(tmp, ec);
  return g;
}

const std::vector<std::string>& dataset_names() {
  static const std::vector<std::string> names = {
      "social-large", "social-small", "road-a", "road-b", "road-c", "mesh"};
  return names;
}

Dataset load_dataset(const std::string& name) {
  Dataset d;
  d.name = name;
  std::function<Graph()> build;
  if (name == "social-large") {
    d.paper_name = "twitter";
    build = [] {
      const NodeId n = pow2_at_least(scaled(65536));
      return connected(
          gen::rmat(n, static_cast<EdgeId>(n) * 14, kDatasetSeed ^ 0x1));
    };
  } else if (name == "social-small") {
    d.paper_name = "livejournal";
    build = [] {
      return connected(
          gen::preferential_attachment(scaled(40000), 3, kDatasetSeed ^ 0x2));
    };
  } else if (name == "road-a") {
    d.paper_name = "roads-CA";
    d.large_diameter = true;
    build = [] {
      return gen::road_like(scaled_side(220), scaled_side(220), 0.08, 0.02,
                            kDatasetSeed ^ 0x3);
    };
  } else if (name == "road-b") {
    d.paper_name = "roads-PA";
    d.large_diameter = true;
    build = [] {
      return gen::road_like(scaled_side(180), scaled_side(180), 0.08, 0.02,
                            kDatasetSeed ^ 0x4);
    };
  } else if (name == "road-c") {
    d.paper_name = "roads-TX";
    d.large_diameter = true;
    build = [] {
      return gen::road_like(scaled_side(200), scaled_side(200), 0.12, 0.02,
                            kDatasetSeed ^ 0x5);
    };
  } else if (name == "mesh") {
    d.paper_name = "mesh1000";
    d.large_diameter = true;
    build = [] {
      const NodeId side = scaled_side(250);
      return gen::grid(side, side);
    };
  } else {
    GCLUS_CHECK(false, "unknown dataset: ", name);
  }
  d.graph = cached_graph(name + "-s" + scale_tag(), build);
  return d;
}

Graph make_expander_path(NodeId n) {
  return cached_graph("expander-path-n" + std::to_string(n), [n] {
    const auto tail = static_cast<NodeId>(std::sqrt(static_cast<double>(n)));
    return gen::expander_with_path(n, tail, /*degree=*/4, kDatasetSeed ^ 0x6);
  });
}

}  // namespace gclus::workloads
