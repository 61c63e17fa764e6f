// Tests for the workload registry: every dataset loads, is connected,
// deterministic, and sits in its intended structural regime — and for the
// dataset cache: hit/miss equality, corrupt-entry regeneration, and
// counter accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "graph/connectivity.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "test_util.hpp"
#include "workloads/datasets.hpp"

namespace gclus::workloads {
namespace {

/// Scoped GCLUS_DATASET_CACHE_DIR pointing at a fresh temp directory;
/// restores the previous environment (CI sets a suite-wide cache dir) on
/// destruction.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_((std::filesystem::temp_directory_path() / name).string()) {
    if (const char* prev = std::getenv("GCLUS_DATASET_CACHE_DIR")) {
      previous_ = prev;
    }
    std::filesystem::remove_all(dir_);
    setenv("GCLUS_DATASET_CACHE_DIR", dir_.c_str(), /*overwrite=*/1);
  }
  ~ScopedCacheDir() {
    if (previous_.has_value()) {
      setenv("GCLUS_DATASET_CACHE_DIR", previous_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv("GCLUS_DATASET_CACHE_DIR");
    }
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] const std::string& dir() const { return dir_; }

  [[nodiscard]] std::size_t num_entries() const {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      n += e.is_regular_file() ? 1 : 0;
    }
    return n;
  }

 private:
  std::string dir_;
  std::optional<std::string> previous_;
};

TEST(Workloads, RegistryHasCanonicalOrder) {
  const auto& names = dataset_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names.front(), "social-large");
  EXPECT_EQ(names.back(), "mesh");
}

class DatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetTest, LoadsConnectedAndDeterministic) {
  const Dataset a = load_dataset(GetParam());
  EXPECT_TRUE(is_connected(a.graph)) << GetParam();
  EXPECT_GE(a.graph.num_nodes(), 64u);
  EXPECT_FALSE(a.paper_name.empty());
  const Dataset b = load_dataset(GetParam());
  EXPECT_TRUE(testutil::same_csr(a.graph, b.graph));
}

INSTANTIATE_TEST_SUITE_P(All, DatasetTest,
                         ::testing::ValuesIn(dataset_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(Workloads, SocialGraphsHaveHeavyTails) {
  for (const char* name : {"social-large", "social-small"}) {
    const Dataset d = load_dataset(name);
    EXPECT_FALSE(d.large_diameter);
    const auto stats = degree_stats(d.graph);
    EXPECT_GT(static_cast<double>(stats.max_degree), 8.0 * stats.avg_degree)
        << name;
  }
}

TEST(Workloads, RoadGraphsAreSparse) {
  for (const char* name : {"road-a", "road-b", "road-c"}) {
    const Dataset d = load_dataset(name);
    EXPECT_TRUE(d.large_diameter);
    const auto stats = degree_stats(d.graph);
    EXPECT_LT(stats.avg_degree, 4.5) << name;
    EXPECT_LE(stats.max_degree, 8u) << name;
  }
}

TEST(Workloads, MeshIsTheGrid) {
  const Dataset d = load_dataset("mesh");
  const auto stats = degree_stats(d.graph);
  EXPECT_EQ(stats.max_degree, 4u);
  EXPECT_EQ(stats.min_degree, 2u);
}

TEST(Workloads, DiameterRegimesSeparate) {
  // Social diameters are orders of magnitude below road/mesh diameters —
  // the separation the entire evaluation narrative rests on.  Use the
  // double-sweep lower bound (cheap) for the large-diameter side.
  const Dataset social = load_dataset("social-large");
  const Dataset road = load_dataset("road-a");
  const Dist social_diam = exact_diameter(social.graph).diameter;
  const Dist road_lb = double_sweep_lower_bound(road.graph);
  EXPECT_LT(social_diam, 40u);
  EXPECT_GT(road_lb, 10u * social_diam);
}

TEST(WorkloadsDeathTest, UnknownNameAborts) {
  EXPECT_DEATH((void)load_dataset("no-such-dataset"), "unknown dataset");
}

TEST(Workloads, ExpanderPathComposite) {
  const Graph g = make_expander_path(8192);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_nodes(), 8192u);
  // Diameter is dominated by the ~sqrt(n) tail.
  EXPECT_GE(double_sweep_lower_bound(g), 88u);
}

TEST(Workloads, ScaleIsClampedAndPositive) {
  const double s = workload_scale();
  EXPECT_GE(s, 0.05);
  EXPECT_LE(s, 64.0);
}

TEST(DatasetCache, DirTracksEnvironment) {
  // dataset_cache_dir() reads the environment per call (no static
  // latching), so scoped overrides in this suite actually take effect.
  ScopedCacheDir cache("gclus_test_cache_env");
  EXPECT_EQ(dataset_cache_dir(), cache.dir());
}

TEST(DatasetCache, HitEqualsMissByteForByte) {
  ScopedCacheDir cache("gclus_test_cache_hitmiss");
  const auto before = dataset_cache_stats();

  const Dataset miss = load_dataset("mesh");  // generates and publishes
  const auto after_miss = dataset_cache_stats();
  EXPECT_EQ(after_miss.misses, before.misses + 1);
  EXPECT_EQ(after_miss.stores, before.stores + 1);
  EXPECT_FALSE(testutil::in_file_mapping(miss.graph.offsets().data()));
  EXPECT_EQ(cache.num_entries(), 1u);

  const Dataset hit = load_dataset("mesh");  // mmaps the published file
  const auto after_hit = dataset_cache_stats();
  EXPECT_EQ(after_hit.hits, after_miss.hits + 1);
  EXPECT_EQ(after_hit.misses, after_miss.misses);
  if (io::mmap_supported() && testutil::kCanSeeMappings) {
    EXPECT_TRUE(testutil::in_file_mapping(hit.graph.offsets().data()));
  }

  EXPECT_TRUE(testutil::same_csr(miss.graph, hit.graph));
  EXPECT_EQ(hit.name, miss.name);
  EXPECT_EQ(hit.paper_name, miss.paper_name);
  EXPECT_EQ(hit.large_diameter, miss.large_diameter);
}

TEST(DatasetCache, CachedGraphHelperSkipsRebuilds) {
  ScopedCacheDir cache("gclus_test_cache_helper");
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return gen::ring_of_cliques(6, 5);
  };
  const Graph a = cached_graph("test-ring", build);
  const Graph b = cached_graph("test-ring", build);
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(testutil::same_csr(a, b));
  // A different key is a different entry.
  const Graph c = cached_graph("test-ring-2", build);
  EXPECT_EQ(builds, 2);
  EXPECT_TRUE(testutil::same_csr(a, c));
}

TEST(DatasetCache, CorruptEntryIsRegenerated) {
  ScopedCacheDir cache("gclus_test_cache_corrupt");
  const Graph a = cached_graph("test-grid", [] { return gen::grid(9, 9); });
  // Truncate the single published entry: the checksum/bounds validation
  // must treat it as a miss, not crash or serve garbage.
  for (const auto& e : std::filesystem::directory_iterator(cache.dir())) {
    std::filesystem::resize_file(e.path(),
                                 std::filesystem::file_size(e.path()) / 2);
  }
  const auto before = dataset_cache_stats();
  const Graph b = cached_graph("test-grid", [] { return gen::grid(9, 9); });
  const auto after = dataset_cache_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_TRUE(testutil::same_csr(a, b));
  // The regenerated entry is served on the next lookup.
  const Graph c = cached_graph("test-grid", [] { return gen::grid(9, 9); });
  EXPECT_EQ(dataset_cache_stats().hits, after.hits + 1);
  EXPECT_TRUE(testutil::same_csr(a, c));
}

TEST(DatasetCache, UnwritableDirDegradesToRegeneration) {
  // A read-only cache volume (CI cache mounts) must never abort the run:
  // every lookup misses, the builder runs, and publication is skipped.
  std::optional<std::string> previous;
  if (const char* prev = std::getenv("GCLUS_DATASET_CACHE_DIR")) {
    previous = prev;
  }
  setenv("GCLUS_DATASET_CACHE_DIR", "/proc/gclus-no-such-cache",
         /*overwrite=*/1);
  const auto before = dataset_cache_stats();
  const Graph a = cached_graph("test-cycle", [] { return gen::cycle(30); });
  const Graph b = cached_graph("test-cycle", [] { return gen::cycle(30); });
  if (previous.has_value()) {
    setenv("GCLUS_DATASET_CACHE_DIR", previous->c_str(), /*overwrite=*/1);
  } else {
    unsetenv("GCLUS_DATASET_CACHE_DIR");
  }
  const auto after = dataset_cache_stats();
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.stores, before.stores);
  EXPECT_TRUE(testutil::same_csr(a, b));
}

TEST(DatasetCache, ExpanderPathGoesThroughCache) {
  ScopedCacheDir cache("gclus_test_cache_expath");
  const Graph a = make_expander_path(4096);
  const auto stats = dataset_cache_stats();
  const Graph b = make_expander_path(4096);
  EXPECT_EQ(dataset_cache_stats().hits, stats.hits + 1);
  EXPECT_TRUE(testutil::same_csr(a, b));
}

}  // namespace
}  // namespace gclus::workloads
