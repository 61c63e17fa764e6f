// Unit tests for src/common: mixing, RNG streams, keyed (counter-based)
// randomness, the check macros, and the validated integer parsing that
// every CLI flag and environment knob funnels through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"

namespace gclus {
namespace {

TEST(Mix64, IsDeterministicAndNontrivial) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  EXPECT_NE(mix64(0), 0u);  // zero does not map to zero
}

TEST(Mix64, SpreadsConsecutiveInputs) {
  // Consecutive inputs should differ in roughly half their bits.
  int total_flips = 0;
  constexpr int kSamples = 256;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    total_flips += std::popcount(mix64(i) ^ mix64(i + 1));
  }
  const double avg = static_cast<double>(total_flips) / kSamples;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(1, 2, 3), hash_combine(3, 2, 1));
}

TEST(Rng, ReproducibleStreams) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  // Different seeds diverge immediately with overwhelming probability.
  Rng a2(123);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, ExponentialHasExpectedMean) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kTrials = 20000;
  const double beta = 2.5;
  for (int i = 0; i < kTrials; ++i) sum += rng.next_exponential(beta);
  EXPECT_NEAR(sum / kTrials, 1.0 / beta, 0.02);
}

TEST(KeyedRandom, DeterministicAcrossCalls) {
  EXPECT_EQ(keyed_uniform(1, 2, 3), keyed_uniform(1, 2, 3));
  EXPECT_NE(keyed_uniform(1, 2, 3), keyed_uniform(1, 2, 4));
  EXPECT_NE(keyed_uniform(1, 2, 3), keyed_uniform(2, 2, 3));
  EXPECT_EQ(keyed_bernoulli(5, 6, 7, 0.5), keyed_bernoulli(5, 6, 7, 0.5));
}

// keyed_bernoulli is the sweep regime of every CLUSTER-family center draw
// (CenterDraw::selects) and the spanner's per-cluster draw, so a change to
// its arithmetic reshuffles those clusterings.  Pinned: the count and an
// FNV-1a hash (little-endian id bytes) of the ids it selects from
// 0..99999 at three (seed, key, p) points.
TEST(Rng, KeyedDrawsArePinned) {
  struct Point {
    std::uint64_t seed, key;
    double p;
    std::uint64_t count, fnv;
  };
  const Point points[] = {
      {1, 0, 0.5, 50140, 0x5f757354f1fac5d7ULL},
      {0x5eed1234, 21, 0.01, 1085, 0x993ed872867f35f1ULL},
      {42, kSeedTagCluster2Prelim, 0.999, 99904, 0x0c352b63bcf154a9ULL},
  };
  for (const Point& pt : points) {
    std::uint64_t count = 0;
    std::uint64_t h = 14695981039346656037ULL;
    for (std::uint32_t v = 0; v < 100000; ++v) {
      if (!keyed_bernoulli(pt.seed, pt.key, v, pt.p)) continue;
      ++count;
      for (int b = 0; b < 4; ++b) {
        h ^= (v >> (8 * b)) & 0xffU;
        h *= 1099511628211ULL;
      }
    }
    EXPECT_EQ(count, pt.count) << "seed " << pt.seed;
    EXPECT_EQ(h, pt.fnv) << "seed " << pt.seed;
  }
}

/// Every id of [0, n) a draw selects, all ids taken as uncovered: the
/// gap walk over each block, or the sweep over every id.
std::vector<std::uint64_t> drawn_ids(const CenterDraw& draw, std::uint64_t n) {
  std::vector<std::uint64_t> ids;
  if (draw.gaps()) {
    for (std::uint64_t b = 0; b < draw.num_blocks(); ++b) {
      draw.for_each_in_block(b, [&](std::uint64_t v) { ids.push_back(v); });
    }
  } else {
    for (std::uint64_t v = 0; v < n; ++v) {
      if (draw.selects(v)) ids.push_back(v);
    }
  }
  return ids;
}

// CenterDraw selects every CLUSTER-family batch (CLUSTER, CLUSTER2,
// weighted_cluster, mr_cluster), so a change to its block streams, its gap
// arithmetic or its regime rule reshuffles every such clustering.  Pinned
// like KeyedDrawsArePinned over 0..99999 (two blocks), with the uncovered
// count that fixes the regime: two gap draws and one sweep.
TEST(Rng, BlockDrawsArePinned) {
  struct Point {
    std::uint64_t seed, key;
    double p;
    std::uint64_t uncovered;
    bool gaps;
    std::uint64_t count, fnv;
  };
  const Point points[] = {
      {1, 0, 0.01, 100000, true, 949, 0x58e3af6a245052beULL},
      {0x5eed1234, 21, 0.3, 40000, true, 30043, 0xab0185de013f83caULL},
      {42, kSeedTagCluster2Prelim, 0.5, 1000, false, 49997,
       0x8ff13cf1512d216aULL},
  };
  for (const Point& pt : points) {
    const CenterDraw draw(pt.seed, pt.key, pt.p, 100000, pt.uncovered);
    ASSERT_EQ(draw.gaps(), pt.gaps) << "seed " << pt.seed;
    std::uint64_t h = 14695981039346656037ULL;
    const std::vector<std::uint64_t> ids = drawn_ids(draw, 100000);
    for (const std::uint64_t v : ids) {
      for (int b = 0; b < 4; ++b) {
        h ^= (v >> (8 * b)) & 0xffU;
        h *= 1099511628211ULL;
      }
    }
    EXPECT_EQ(ids.size(), pt.count) << "seed " << pt.seed;
    EXPECT_EQ(h, pt.fnv) << "seed " << pt.seed;
  }
}

// The gap walk must select each id independently with probability p, at
// block edges too: an off-by-one at a block's first or last id, or a
// stream shared by neighbouring blocks, shows here.  Fixed seeds; each p
// runs enough keyed draws over 2^20 ids (16 blocks) for about 2^24
// uniforms, and every rate must lie within 5σ of its expectation.
TEST(Rng, BlockDrawIsBernoulliPerId) {
  constexpr std::uint64_t kIds = std::uint64_t{1} << 20;
  constexpr std::uint64_t kBlocks = kIds / kCenterDrawBlock;
  auto within_5_sigma = [](double hits, double trials, double rate) {
    const double sigma = std::sqrt(trials * rate * (1.0 - rate));
    return std::abs(hits - trials * rate) <= 5.0 * sigma + 1e-9;
  };
  for (const double p : {1e-5, 1e-2, 0.3}) {
    const auto keys = static_cast<std::uint64_t>(
        std::ceil(0x1.0p24 / (p * static_cast<double>(kIds) + kBlocks)));
    double selected = 0;
    double first = 0;     // hits at block offset 0
    double last = 0;      // hits at block offset B-1
    double straddle = 0;  // ids B·b - 1 and B·b both hit, b = 1..15
    for (std::uint64_t key = 0; key < keys; ++key) {
      const CenterDraw draw(77, key, p, kIds, kIds);
      ASSERT_TRUE(draw.gaps());
      std::vector<std::uint8_t> edge_hit(2 * kBlocks, 0);
      for (std::uint64_t b = 0; b < kBlocks; ++b) {
        draw.for_each_in_block(b, [&](std::uint64_t v) {
          ++selected;
          const std::uint64_t offset = v % kCenterDrawBlock;
          if (offset == 0) edge_hit[2 * b] = 1;
          if (offset == kCenterDrawBlock - 1) edge_hit[2 * b + 1] = 1;
        });
      }
      for (std::uint64_t b = 0; b < kBlocks; ++b) {
        first += edge_hit[2 * b];
        last += edge_hit[2 * b + 1];
        if (b > 0) straddle += edge_hit[2 * b - 1] & edge_hit[2 * b];
      }
    }
    const double n_keys = static_cast<double>(keys);
    EXPECT_TRUE(within_5_sigma(selected, n_keys * kIds, p))
        << "p=" << p << " selected " << selected;
    EXPECT_TRUE(within_5_sigma(first, n_keys * kBlocks, p))
        << "p=" << p << " offset 0 hits " << first;
    EXPECT_TRUE(within_5_sigma(last, n_keys * kBlocks, p))
        << "p=" << p << " offset B-1 hits " << last;
    EXPECT_TRUE(within_5_sigma(straddle, n_keys * (kBlocks - 1), p * p))
        << "p=" << p << " boundary pairs " << straddle;
  }
}

TEST(KeyedRandom, UniformDistribution) {
  double sum = 0.0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sum += keyed_uniform(99, i, 0);
  EXPECT_NEAR(sum / kTrials, 0.5, 0.02);
}

TEST(KeyedRandom, BernoulliRate) {
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    hits += keyed_bernoulli(3, i, 1, 0.1) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.1, 0.01);
}

TEST(KeyedRandom, ExponentialMean) {
  double sum = 0.0;
  constexpr int kTrials = 20000;
  const double beta = 0.7;
  for (int i = 0; i < kTrials; ++i) sum += keyed_exponential(7, i, beta);
  EXPECT_NEAR(sum / kTrials, 1.0 / beta, 0.05);
}

TEST(Check, PassingConditionIsSilent) {
  GCLUS_CHECK(1 + 1 == 2);
  GCLUS_CHECK(true, "message ignored when the condition holds");
  SUCCEED();
}

TEST(CheckDeathTest, FailingConditionAborts) {
  EXPECT_DEATH(GCLUS_CHECK(false, "tau=", 42), "tau=42");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Burn a tiny amount of CPU; the timer must be nonnegative and monotone.
  volatile std::uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  const double e1 = t.elapsed_s();
  const double e2 = t.elapsed_s();
  EXPECT_GE(e1, 0.0);
  EXPECT_GE(e2, e1);
  t.reset();
  EXPECT_LE(t.elapsed_s(), e2 + 1.0);
}

TEST(AccumTimer, AccumulatesIntervals) {
  AccumTimer at;
  EXPECT_EQ(at.total_s(), 0.0);
  at.start();
  at.stop();
  at.start();
  at.stop();
  EXPECT_GE(at.total_s(), 0.0);
}

TEST(ParseU64, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64("0").value(), 0u);
  EXPECT_EQ(parse_u64("42").value(), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615").value(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64, RejectsEverythingElse) {
  for (const char* bad :
       {"", " 42", "42 ", "+42", "-1", "0x10", "1e3", "4 2", "nine",
        "18446744073709551616" /* max + 1 */, "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    const auto v = parse_u64(bad);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EnvU64, FallsBackAndEnforcesMinimum) {
  ::unsetenv("GCLUS_TEST_ENV_U64");
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7), 7u);  // unset
  ::setenv("GCLUS_TEST_ENV_U64", "", 1);
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7), 7u);  // empty
  ::setenv("GCLUS_TEST_ENV_U64", "12", 1);
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7), 12u);  // set
  ::setenv("GCLUS_TEST_ENV_U64", "banana", 1);
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7), 7u);  // malformed -> fallback
  ::setenv("GCLUS_TEST_ENV_U64", "3", 1);
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7, 5), 7u);  // below minimum
  ::setenv("GCLUS_TEST_ENV_U64", "5", 1);
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7, 5), 5u);  // at minimum
  ::setenv("GCLUS_TEST_ENV_U64", "101", 1);
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7, 1, 100), 7u);  // above maximum
  ::setenv("GCLUS_TEST_ENV_U64", "100", 1);
  EXPECT_EQ(env_u64("GCLUS_TEST_ENV_U64", 7, 1, 100), 100u);  // at maximum
  ::unsetenv("GCLUS_TEST_ENV_U64");
}

}  // namespace
}  // namespace gclus
