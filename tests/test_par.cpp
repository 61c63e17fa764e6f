// Unit tests for src/par: the thread pool and the data-parallel loop and
// reduction primitives, swept across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus {
namespace {

class ParallelForTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  constexpr std::size_t n = 10007;  // prime, not a multiple of the grain
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, 0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool pool(GetParam());
  int count = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(pool, 5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST_P(ParallelForTest, ChunkVariantCoversRange) {
  ThreadPool pool(GetParam());
  constexpr std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      pool, 0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/128);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelForTest, ReduceMatchesSequentialSum) {
  ThreadPool pool(GetParam());
  constexpr std::size_t n = 12345;
  const auto sum = parallel_reduce<std::uint64_t>(
      pool, 0, n, 0, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST_P(ParallelForTest, ReduceMax) {
  ThreadPool pool(GetParam());
  std::vector<int> values(4097);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 7919) % 10007);
  }
  const int expected = *std::max_element(values.begin(), values.end());
  const int got = parallel_reduce<int>(
      pool, 0, values.size(), 0, [&](std::size_t i) { return values[i]; },
      [](int a, int b) { return a > b ? a : b; }, /*grain=*/64);
  EXPECT_EQ(got, expected);
}

TEST_P(ParallelForTest, SumHelper) {
  ThreadPool pool(GetParam());
  const auto s = parallel_sum<std::uint64_t>(
      pool, 1, 101, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
  EXPECT_EQ(s, 5050u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelForTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool p1(1), p4(4);
  EXPECT_EQ(p1.num_threads(), 1u);
  EXPECT_EQ(p4.num_threads(), 4u);
  ThreadPool p0(0);  // clamped to 1
  EXPECT_EQ(p0.num_threads(), 1u);
}

TEST(ThreadPool, RunOnWorkersGivesDistinctIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_on_workers([&](std::size_t w) {
    ASSERT_LT(w, 4u);
    hits[w].fetch_add(1);
  });
  for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.run_on_workers([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

// gtest's default "fast" death tests fork: the child inherits the pool
// but not its worker threads, so a dispatch there must run inline rather
// than wait for workers that do not exist.
TEST(ThreadPoolDeathTest, ForkedChildRunsDispatchInline) {
  ThreadPool pool(4);
  std::atomic<int> warm{0};
  pool.run_on_workers([&](std::size_t) { warm.fetch_add(1); });
  ASSERT_EQ(warm.load(), 4);
  EXPECT_DEATH(
      {
        std::vector<int> seen(10000, 0);
        parallel_for(
            pool, 0, seen.size(), [&](std::size_t i) { seen[i] = 1; }, 64);
        std::fprintf(stderr, "visited %zu\n",
                     static_cast<std::size_t>(
                         std::count(seen.begin(), seen.end(), 1)));
        std::abort();
      },
      "visited 10000");
}

TEST(ExclusivePrefixSum, MatchesReference) {
  std::vector<std::uint64_t> v{3, 1, 4, 1, 5, 9, 2, 6};
  const auto total = exclusive_prefix_sum(v);
  EXPECT_EQ(total, 31u);
  const std::vector<std::uint64_t> expected{0, 3, 4, 8, 9, 14, 23, 25};
  EXPECT_EQ(v, expected);
}

TEST(ExclusivePrefixSum, EmptyVector) {
  std::vector<std::uint64_t> v;
  EXPECT_EQ(exclusive_prefix_sum(v), 0u);
}

}  // namespace
}  // namespace gclus
