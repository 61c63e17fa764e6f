// Tests for the Fact-1 MR primitives: multi-round sample sort and
// (segmented) prefix sums, swept across input sizes and M_L settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "mapreduce/primitives.hpp"

namespace gclus::mr {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(1000000);
  return v;
}

struct SortParam {
  std::size_t n;
  std::size_t local_memory;
};

class MrSortTest : public ::testing::TestWithParam<SortParam> {};

TEST_P(MrSortTest, MatchesStdSort) {
  Config cfg;
  cfg.local_memory_pairs = GetParam().local_memory;
  Engine engine(cfg);
  auto values = random_values(GetParam().n, 42 + GetParam().n);
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  const auto got = mr_sort(engine, std::move(values)).value();
  EXPECT_EQ(got, expected);
  if (GetParam().n > 1) {
    EXPECT_GE(engine.metrics().rounds, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MrSortTest,
    ::testing::Values(SortParam{0, 100}, SortParam{1, 100}, SortParam{50, 100},
                      SortParam{1000, 100}, SortParam{1000, 64},
                      SortParam{10000, 256}, SortParam{10000, 1000},
                      SortParam{5000, 16}),
    [](const ::testing::TestParamInfo<SortParam>& info) {
      return "n" + std::to_string(info.param.n) + "_ml" +
             std::to_string(info.param.local_memory);
    });

TEST(MrSort, SingleRoundWhenInputFitsLocally) {
  Config cfg;
  cfg.local_memory_pairs = 10000;
  Engine engine(cfg);
  ASSERT_TRUE(mr_sort(engine, random_values(100, 7)).ok());
  EXPECT_EQ(engine.metrics().rounds, 1u);
}

TEST(MrSort, MultiRoundWhenInputExceedsLocalMemory) {
  Config cfg;
  cfg.local_memory_pairs = 100;
  Engine engine(cfg);
  ASSERT_TRUE(mr_sort(engine, random_values(5000, 7)).ok());
  EXPECT_GE(engine.metrics().rounds, 2u);  // splitter round + bucket round
  // Skewed-sample recursions may add rounds, but the headroom in the
  // bucket count keeps the total small.
  EXPECT_LE(engine.metrics().rounds, 20u);
}

TEST(MrSort, AlreadySortedAndReversedInputs) {
  Config cfg;
  cfg.local_memory_pairs = 64;
  Engine engine(cfg);
  std::vector<std::uint64_t> asc(1000);
  std::iota(asc.begin(), asc.end(), 0);
  EXPECT_EQ(mr_sort(engine, asc).value(), asc);
  std::vector<std::uint64_t> desc(asc.rbegin(), asc.rend());
  EXPECT_EQ(mr_sort(engine, desc).value(), asc);
}

TEST(MrSort, AllEqualValues) {
  Config cfg;
  cfg.local_memory_pairs = 32;
  Engine engine(cfg);
  std::vector<std::uint64_t> same(500, 77);
  EXPECT_EQ(mr_sort(engine, same).value(), same);
}

struct PrefixParam {
  std::size_t n;
  std::size_t local_memory;
};

class MrPrefixSumTest : public ::testing::TestWithParam<PrefixParam> {};

TEST_P(MrPrefixSumTest, MatchesSequentialScan) {
  Config cfg;
  cfg.local_memory_pairs = GetParam().local_memory;
  Engine engine(cfg);
  const auto values = random_values(GetParam().n, 5 + GetParam().n);
  std::uint64_t total = 0;
  const auto got = mr_prefix_sum(engine, values, &total).value();
  std::uint64_t running = 0;
  ASSERT_EQ(got.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(got[i], running) << "position " << i;
    running += values[i];
  }
  EXPECT_EQ(total, running);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MrPrefixSumTest,
    ::testing::Values(PrefixParam{1, 4}, PrefixParam{16, 4},
                      PrefixParam{1000, 8}, PrefixParam{1000, 100},
                      PrefixParam{4096, 16}, PrefixParam{777, 2}),
    [](const ::testing::TestParamInfo<PrefixParam>& info) {
      return "n" + std::to_string(info.param.n) + "_ml" +
             std::to_string(info.param.local_memory);
    });

TEST(MrPrefixSum, EmptyInput) {
  Engine engine;
  std::uint64_t total = 99;
  const auto got = mr_prefix_sum(engine, {}, &total).value();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(total, 0u);
}

TEST(MrPrefixSum, RoundCountGrowsAsLocalMemoryShrinks) {
  const auto values = random_values(4096, 3);
  auto rounds_with = [&](std::size_t ml) {
    Config cfg;
    cfg.local_memory_pairs = ml;
    Engine engine(cfg);
    EXPECT_TRUE(mr_prefix_sum(engine, values).ok());
    return engine.metrics().rounds;
  };
  // Fan-in 2 needs ~2·log2(n) rounds; fan-in 4096 needs ~2.
  EXPECT_GT(rounds_with(2), rounds_with(64));
  EXPECT_GT(rounds_with(64), rounds_with(8192));
}

TEST(MrSegmentedPrefixSum, ResetsAtSegmentBoundaries) {
  Engine engine;
  const std::vector<std::uint64_t> values{1, 2, 3, 4, 5, 6};
  const std::vector<std::uint32_t> segs{0, 0, 1, 1, 1, 2};
  const auto got = mr_segmented_prefix_sum(engine, values, segs).value();
  const std::vector<std::uint64_t> expected{0, 1, 0, 3, 7, 0};
  EXPECT_EQ(got, expected);
}

TEST(MrSegmentedPrefixSum, SingleSegmentEqualsPlainScan) {
  Config cfg;
  cfg.local_memory_pairs = 8;
  Engine engine(cfg);
  const auto values = random_values(300, 11);
  const std::vector<std::uint32_t> segs(300, 5);
  const auto seg = mr_segmented_prefix_sum(engine, values, segs).value();
  Engine engine2;
  const auto plain = mr_prefix_sum(engine2, values).value();
  EXPECT_EQ(seg, plain);
}

TEST(MrSegmentedPrefixSum, EverySegmentSingleton) {
  Engine engine;
  const std::vector<std::uint64_t> values{9, 8, 7};
  const std::vector<std::uint32_t> segs{0, 1, 2};
  const auto got = mr_segmented_prefix_sum(engine, values, segs).value();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(MrSegmentedPrefixSumDeathTest, RejectsDecreasingSegments) {
  Engine engine;
  EXPECT_DEATH(
      (void)mr_segmented_prefix_sum(engine, {1, 2}, {1, 0}),
      "nondecreasing");
}

}  // namespace
}  // namespace gclus::mr
