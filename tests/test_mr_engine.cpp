// Tests for the MR(M_G, M_L) engine: round semantics (grouping, value
// order, determinism), the out-of-core shuffle (spilled vs in-memory
// equality, budget compliance, combiners), and metrics accounting,
// including the recorded M_L / M_G violations.
//
// Reducers for distinct keys may run concurrently (that is the engine's
// contract), so tests that collect into shared containers lock them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>

#include "mapreduce/engine.hpp"
#include "par/thread_pool.hpp"

namespace gclus::mr {
namespace {

using KV = std::pair<std::uint32_t, std::uint64_t>;
using KVEmitter = Emitter<std::uint32_t, std::uint64_t>;

/// One round from KV pairs to KV pairs; a failed round fails the test and
/// yields no output.
template <typename Reduce, typename Combine = NoCombiner>
std::vector<KV> kv_round(Engine& engine, std::vector<KV> input, Reduce reduce,
                         Combine combine = {}) {
  auto out =
      engine.round<std::uint32_t, std::uint64_t, std::uint32_t, std::uint64_t>(
          std::move(input), std::move(reduce), std::move(combine));
  EXPECT_TRUE(out.ok()) << out.status().to_string();
  return out.ok() ? std::move(out).value() : std::vector<KV>{};
}

/// A reducer that ignores its group.
void drop_group(const std::uint32_t&, std::span<std::uint64_t>, KVEmitter&) {}

/// A deterministic pseudo-random workload: `n` pairs over `keys` keys.
std::vector<KV> make_input(std::size_t n, std::uint64_t keys,
                           std::uint64_t salt = 0) {
  std::vector<KV> input;
  input.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    input.emplace_back(static_cast<std::uint32_t>(mix64(i ^ salt) % keys), i);
  }
  return input;
}

/// Sums values per key through one round — the workhorse reducer of the
/// determinism tests (output compared *unsorted*, so concatenation order
/// matters too).
std::vector<KV> sum_round(Engine& engine, std::vector<KV> input) {
  return kv_round(engine, std::move(input),
                  [](const std::uint32_t& k, std::span<std::uint64_t> vs,
                     KVEmitter& emit) {
                    std::uint64_t sum = 0;
                    for (const auto v : vs) sum += v;
                    emit.emit(k, sum);
                  });
}

TEST(Engine, GroupsValuesByKey) {
  Engine engine;
  std::vector<KV> input{{1, 10}, {2, 20}, {1, 11}, {3, 30}, {2, 21}};
  std::mutex mu;
  std::map<std::uint32_t, std::vector<std::uint64_t>> seen;
  kv_round(engine, input,
           [&](const std::uint32_t& k, std::span<std::uint64_t> vs,
               KVEmitter&) {
             const std::lock_guard<std::mutex> lock(mu);
             seen[k].assign(vs.begin(), vs.end());
           });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(seen[2], (std::vector<std::uint64_t>{20, 21}));
  EXPECT_EQ(seen[3], (std::vector<std::uint64_t>{30}));
}

TEST(Engine, ValuesArriveInInputOrder) {
  Engine engine;
  std::vector<KV> input;
  for (std::uint64_t i = 0; i < 500; ++i) input.emplace_back(7, i);
  std::vector<std::uint64_t> got;
  kv_round(engine, std::move(input),
           [&](const std::uint32_t&, std::span<std::uint64_t> vs, KVEmitter&) {
             got.assign(vs.begin(), vs.end());
           });
  ASSERT_EQ(got.size(), 500u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(Engine, ValuesArriveInInputOrderAcrossSpilledRuns) {
  // Same single-key property, but with a budget that forces many runs:
  // the reduce-side merge must reassemble the exact position order.
  Config cfg;
  cfg.spill_memory_bytes = 1024;
  Engine engine(cfg);
  std::vector<KV> input;
  for (std::uint64_t i = 0; i < 5000; ++i) input.emplace_back(7, i);
  std::vector<std::uint64_t> got;
  kv_round(engine, std::move(input),
           [&](const std::uint32_t&, std::span<std::uint64_t> vs, KVEmitter&) {
             got.assign(vs.begin(), vs.end());
           });
  EXPECT_GT(engine.metrics().bytes_spilled, 0u);
  ASSERT_EQ(got.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(Engine, EmittedPairsAreReturned) {
  Engine engine;
  std::vector<KV> input{{1, 1}, {2, 2}, {3, 3}};
  auto out = kv_round(engine, std::move(input),
                      [](const std::uint32_t& k, std::span<std::uint64_t> vs,
                         KVEmitter& emit) {
                        for (const auto v : vs) emit.emit(k * 10, v * 10);
                      });
  ASSERT_EQ(out.size(), 3u);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out[0], (std::pair<std::uint32_t, std::uint64_t>{10, 10}));
  EXPECT_EQ(out[2], (std::pair<std::uint32_t, std::uint64_t>{30, 30}));
}

// --- Determinism: the concatenated output (NOT sorted) must be a pure
// function of the input — across worker counts and across spill budgets. ---

TEST(Engine, OutputIdenticalAcrossWorkerCounts) {
  auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    Config cfg;
    cfg.pool = &pool;
    Engine engine(cfg);
    return sum_round(engine, make_input(20000, 97));
  };
  const auto reference = run(1);
  EXPECT_EQ(reference, run(2));
  EXPECT_EQ(reference, run(8));
}

TEST(Engine, OutputIdenticalSpilledVsInMemory) {
  auto run = [](std::uint64_t budget, std::size_t workers) {
    ThreadPool pool(workers);
    Config cfg;
    cfg.pool = &pool;
    cfg.spill_memory_bytes = budget;
    Engine engine(cfg);
    auto out = sum_round(engine, make_input(20000, 97));
    return std::make_pair(std::move(out), engine.metrics().bytes_spilled);
  };
  // kSpillUnbounded (not 0) so the GCLUS_MR_SPILL_BYTES override of CI's
  // low-memory job cannot turn the in-memory reference run into a spilled
  // one.
  const auto [reference, in_memory_spilled] = run(kSpillUnbounded, 1);
  EXPECT_EQ(in_memory_spilled, 0u);
  // Budgets down to 1 KiB, each across worker counts: byte-identical.
  for (const std::uint64_t budget : {1u << 20, 1u << 14, 1u << 10}) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      const auto [out, spilled] = run(budget, workers);
      EXPECT_EQ(out, reference) << "budget=" << budget << " workers="
                                << workers;
      if (budget <= (1u << 14)) {
        EXPECT_GT(spilled, 0u) << "budget=" << budget;
      }
    }
  }
}

TEST(Engine, PartitionCountPinnedInConfigNotThreads) {
  // Partition count is a config knob (default 64): two engines with very
  // different worker counts but the same config produce identical
  // unsorted output, and an explicit partition count changes *layout*
  // only — the key->value mapping stays equal.
  ThreadPool one(1);
  ThreadPool eight(8);
  Config a;
  a.pool = &one;
  Config b;
  b.pool = &eight;
  EXPECT_EQ(a.num_partitions, 64u);
  Engine ea(a);
  Engine eb(b);
  const auto out_a = sum_round(ea, make_input(5000, 41));
  EXPECT_EQ(out_a, sum_round(eb, make_input(5000, 41)));

  Config c;
  c.num_partitions = 7;
  Engine ec(c);
  auto out_c = sum_round(ec, make_input(5000, 41));
  auto sorted_a = out_a;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(out_c.begin(), out_c.end());
  EXPECT_EQ(sorted_a, out_c);
}

// --- Combiners. ---

TEST(Engine, CombinerPreservesReducerOutputAndCutsVolume) {
  auto run = [](bool combiners, std::uint64_t budget) {
    Config cfg;
    cfg.enable_combiners = combiners;
    cfg.spill_memory_bytes = budget;
    Engine engine(cfg);
    auto out = kv_round(
        engine, make_input(20000, 13),
        [](const std::uint32_t& k, std::span<std::uint64_t> vs,
           KVEmitter& emit) {
          std::uint64_t m = vs.front();
          for (const auto v : vs) m = std::min(m, v);
          emit.emit(k, m);
        },
        [](const std::uint64_t& x, const std::uint64_t& y) {
          return std::min(x, y);
        });
    return std::make_pair(std::move(out), engine.metrics());
  };
  const auto [plain, plain_metrics] = run(false, 0);
  EXPECT_EQ(plain_metrics.combiner_pairs_in, 0u);
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{2048}}) {
    const auto [combined, metrics] = run(true, budget);
    EXPECT_EQ(combined, plain) << "budget=" << budget;
    EXPECT_GT(metrics.combiner_pairs_in, metrics.combiner_pairs_out);
    EXPECT_GT(metrics.combiner_reduction(), 1.5);
  }
}

TEST(Engine, CombinerShrinksSpilledBytes) {
  auto spilled_bytes = [](bool combiners) {
    Config cfg;
    cfg.enable_combiners = combiners;
    cfg.spill_memory_bytes = 4096;
    Engine engine(cfg);
    kv_round(
        engine, make_input(20000, 13),
        [](const std::uint32_t& k, std::span<std::uint64_t> vs,
           KVEmitter& emit) { emit.emit(k, vs.size()); },
        [](const std::uint64_t& x, const std::uint64_t&) { return x; });
    return engine.metrics().bytes_spilled;
  };
  EXPECT_LT(spilled_bytes(true), spilled_bytes(false) / 2);
}

// --- Spill accounting. ---

TEST(Engine, SpillMetricsAccountRunsAndPeak) {
  ThreadPool pool(2);
  Config cfg;
  cfg.pool = &pool;
  cfg.spill_memory_bytes = 4096;
  cfg.spill_strict = true;  // abort if the budget is ever exceeded
  Engine engine(cfg);
  (void)sum_round(engine, make_input(30000, 211));
  const Metrics& m = engine.metrics();
  EXPECT_GT(m.bytes_spilled, 0u);
  EXPECT_GT(m.spill_runs, 0u);
  EXPECT_GE(m.runs_merged, m.spill_runs);
  EXPECT_GT(m.peak_shuffle_buffer_bytes, 0u);
  EXPECT_LE(m.peak_shuffle_buffer_bytes, cfg.spill_memory_bytes);
}

TEST(Engine, NoSpillBelowBudget) {
  Config cfg;
  cfg.spill_memory_bytes = 1u << 24;  // 16 MiB ≫ the workload
  Engine engine(cfg);
  (void)sum_round(engine, make_input(1000, 7));
  EXPECT_EQ(engine.metrics().bytes_spilled, 0u);
  EXPECT_EQ(engine.metrics().spill_runs, 0u);
}

TEST(Engine, UnwritableSpillDirDegradesToInMemory) {
  // With no fallback directory configured, a failed spill keeps the
  // shuffle in memory: same output as a healthy engine, degradation
  // recorded in the metrics instead of an abort.
  Config cfg;
  cfg.spill_memory_bytes = kSpillUnbounded;
  Engine reference(cfg);
  const auto expected = sum_round(reference, make_input(1000, 7));

  cfg.spill_memory_bytes = 64;  // force an immediate spill
  cfg.spill_dir = "/proc/definitely/not/writable";
  cfg.spill_fallback_dir = "/proc/also/not/writable";
  cfg.spill_strict = true;  // must not trip: degraded rounds are exempt
  Engine engine(cfg);
  EXPECT_EQ(sum_round(engine, make_input(1000, 7)), expected);
  EXPECT_EQ(engine.metrics().spill_degraded_rounds, 1u);
  EXPECT_EQ(engine.metrics().bytes_spilled, 0u);
}

// --- Pre-existing accounting semantics (unchanged by the rewrite). ---

TEST(Engine, MetricsCountRoundsAndVolume) {
  Engine engine;
  std::vector<KV> input{{1, 1}, {1, 2}, {2, 3}};
  kv_round(engine, input, drop_group);
  kv_round(engine, input, drop_group);
  const Metrics& m = engine.metrics();
  EXPECT_EQ(m.rounds, 2u);
  EXPECT_EQ(m.pairs_shuffled, 6u);
  EXPECT_EQ(m.max_reducer_pairs, 2u);  // key 1 has two values
  EXPECT_EQ(m.max_round_pairs, 3u);
  EXPECT_GT(m.bytes_shuffled, 0u);
}

TEST(Engine, LocalMemoryViolationRecorded) {
  Config cfg;
  cfg.local_memory_pairs = 3;
  Engine engine(cfg);
  std::vector<KV> input;
  for (std::uint64_t i = 0; i < 10; ++i) input.emplace_back(1, i);
  kv_round(engine, std::move(input), drop_group);
  EXPECT_TRUE(engine.metrics().local_memory_exceeded);
}

TEST(Engine, GlobalMemoryViolationRecorded) {
  Config cfg;
  cfg.global_memory_pairs = 2;
  Engine engine(cfg);
  std::vector<KV> input{{1, 1}, {2, 2}, {3, 3}};
  kv_round(engine, std::move(input), drop_group);
  EXPECT_TRUE(engine.metrics().global_memory_exceeded);
}

TEST(Engine, ResetMetricsClearsCounters) {
  Engine engine;
  std::vector<KV> input{{1, 1}};
  kv_round(engine, std::move(input), drop_group);
  engine.reset_metrics();
  EXPECT_EQ(engine.metrics().rounds, 0u);
  EXPECT_EQ(engine.metrics().pairs_shuffled, 0u);
}

TEST(Engine, EmptyInputStillCountsARound) {
  Engine engine;
  kv_round(engine, {}, drop_group);
  EXPECT_EQ(engine.metrics().rounds, 1u);
  EXPECT_EQ(engine.metrics().pairs_shuffled, 0u);
}

TEST(Engine, StringKeysSupported) {
  // Non-trivially-copyable keys can't spill, but the multi-worker merge
  // path must still group them correctly.
  Engine engine;
  std::vector<std::pair<std::string, std::uint64_t>> input{
      {"b", 2}, {"a", 1}, {"b", 3}};
  std::mutex mu;
  std::map<std::string, std::uint64_t> sums;
  const auto out =
      engine.round<std::string, std::uint64_t, std::string, std::uint64_t>(
          std::move(input),
          [&](const std::string& k, std::span<std::uint64_t> vs,
              Emitter<std::string, std::uint64_t>&) {
            const std::uint64_t sum =
                std::accumulate(vs.begin(), vs.end(), std::uint64_t{0});
            const std::lock_guard<std::mutex> lock(mu);
            sums[k] = sum;
          });
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(sums["a"], 1u);
  EXPECT_EQ(sums["b"], 5u);
}

}  // namespace
}  // namespace gclus::mr
