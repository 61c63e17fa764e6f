// Tests for the vertex-centric superstep layer and its Lemma-3 round
// charging.
#include <gtest/gtest.h>

#include <atomic>

#include "graph/generators.hpp"
#include "mapreduce/superstep.hpp"

namespace gclus::mr {
namespace {

TEST(RoundsPerSuperstep, Formula) {
  // Fits locally: one round.
  EXPECT_EQ(rounds_per_superstep(1000, 10), 1u);
  EXPECT_EQ(rounds_per_superstep(10, 10), 1u);
  // log_{M_L}(items): 10^6 items with M_L=100 needs 3 rounds.
  EXPECT_EQ(rounds_per_superstep(100, 1000000), 3u);
  EXPECT_EQ(rounds_per_superstep(1000, 1000000), 2u);
  // Degenerate: zero or one item is free.
  EXPECT_EQ(rounds_per_superstep(2, 0), 1u);
  EXPECT_EQ(rounds_per_superstep(2, 1), 1u);
}

TEST(RunSupersteps, PropagatesToQuiescence) {
  // Token passing along a path: superstep s delivers the token to node s+1.
  const Graph g = gen::path(10);
  Engine engine;
  std::vector<int> visited_at(10, -1);
  visited_at[0] = 0;
  std::vector<std::pair<NodeId, std::uint8_t>> init{{1, 0}};
  const std::size_t steps = run_supersteps<std::uint8_t>(
      engine, std::move(init),
      [&](std::size_t superstep, NodeId v, std::span<std::uint8_t>,
          Outbox<std::uint8_t>& out) {
        if (visited_at[v] >= 0) return;
        visited_at[v] = static_cast<int>(superstep) + 1;
        if (v + 1 < 10) out.send(v + 1, 0);
      }).value();
  EXPECT_EQ(steps, 9u);
  for (NodeId v = 1; v < 10; ++v) EXPECT_EQ(visited_at[v], static_cast<int>(v));
}

TEST(RunSupersteps, MaxSuperstepsCapRespected) {
  const Graph g = gen::cycle(8);
  Engine engine;
  std::atomic<int> messages_seen{0};
  // A program that bounces messages around the cycle forever.
  std::vector<std::pair<NodeId, std::uint8_t>> init{{0, 0}};
  const std::size_t steps = run_supersteps<std::uint8_t>(
      engine, std::move(init),
      [&](std::size_t, NodeId v, std::span<std::uint8_t>,
          Outbox<std::uint8_t>& out) {
        messages_seen.fetch_add(1);
        out.send((v + 1) % 8, 0);
      },
      /*max_supersteps=*/5).value();
  EXPECT_EQ(steps, 5u);
  EXPECT_EQ(messages_seen.load(), 5);
}

TEST(RunSupersteps, EmptyInitialMessagesNoSupersteps) {
  Engine engine;
  const std::size_t steps = run_supersteps<std::uint8_t>(
      engine, {},
      [](std::size_t, NodeId, std::span<std::uint8_t>, Outbox<std::uint8_t>&) {
        FAIL() << "no vertex should run";
      }).value();
  EXPECT_EQ(steps, 0u);
  EXPECT_EQ(engine.metrics().rounds, 0u);
}

TEST(RunSupersteps, ChargesSortingRoundsUnderSmallLocalMemory) {
  // With M_L = 4 and charge_items = 10^4, each superstep costs
  // ceil(log_4 10^4) = 7 rounds instead of 1.
  Config cfg;
  cfg.local_memory_pairs = 4;
  Engine engine(cfg);
  std::vector<std::pair<NodeId, std::uint8_t>> init{{0, 0}};
  int hops = 0;
  const std::size_t steps = run_supersteps<std::uint8_t>(
      engine, std::move(init),
      [&](std::size_t, NodeId v, std::span<std::uint8_t>,
          Outbox<std::uint8_t>& out) {
        if (++hops < 3) out.send(v + 1, 0);
      },
      /*max_supersteps=*/SIZE_MAX, /*charge_items=*/10000).value();
  EXPECT_EQ(steps, 3u);
  // 3 supersteps executed, each charged ceil(log_4(10^4)) = 7 rounds.
  EXPECT_EQ(engine.metrics().rounds, 21u);
}

TEST(RunSupersteps, InboxAggregatesAllMessagesToVertex) {
  Engine engine;
  // Three initial messages to the same vertex arrive in one inbox.
  std::vector<std::pair<NodeId, std::uint32_t>> init{
      {5, 100}, {5, 200}, {5, 300}};
  std::size_t inbox_size = 0;
  std::uint32_t inbox_sum = 0;
  const auto steps = run_supersteps<std::uint32_t>(
      engine, std::move(init),
      [&](std::size_t, NodeId v, std::span<std::uint32_t> inbox,
          Outbox<std::uint32_t>&) {
        EXPECT_EQ(v, 5u);
        inbox_size = inbox.size();
        for (const auto m : inbox) inbox_sum += m;
      });
  ASSERT_TRUE(steps.ok()) << steps.status().to_string();
  EXPECT_EQ(inbox_size, 3u);
  EXPECT_EQ(inbox_sum, 600u);
}

}  // namespace
}  // namespace gclus::mr
