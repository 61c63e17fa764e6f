// Tests for the concurrent query service (server/server.hpp): query
// semantics against the oracle formula over the artifact's spans, the
// Status taxonomy for bad requests, load shedding on a full queue, clean
// shutdown draining, and the headline determinism contract — N concurrent
// workers answer a query stream byte-identically to serial execution.
// This binary is the TSan target of the sanitizer CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"
#include "test_util.hpp"

namespace gclus::server {
namespace {

QueryEngine make_engine(const Graph& g, std::uint64_t seed = 11,
                        std::uint32_t tau = 4) {
  DistanceOracleOptions opts;
  opts.seed = seed;
  opts.tau = tau;
  auto engine = QueryEngine::build(Graph(g), opts);
  GCLUS_CHECK(engine.ok(), "test graph must build");
  return std::move(engine).value();
}

/// A reproducible mixed workload: ~80% distance, 10% same-cluster, 10%
/// neighborhood queries, with a sprinkling of out-of-range ids to keep
/// the error path exercised alongside the hot path.
std::vector<Query> make_workload(NodeId n, std::size_t count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    const std::uint64_t roll = rng.next_below(100);
    q.u = static_cast<NodeId>(rng.next_below(n));
    if (roll < 80) {
      q.kind = QueryKind::kApproxDistance;
      q.arg = static_cast<NodeId>(rng.next_below(n));
    } else if (roll < 90) {
      q.kind = QueryKind::kSameCluster;
      q.arg = static_cast<NodeId>(rng.next_below(n));
    } else {
      q.kind = QueryKind::kClusterNeighborhood;
      q.arg = static_cast<std::uint32_t>(rng.next_below(4));
    }
    if (roll >= 97) q.u = n + static_cast<NodeId>(roll);  // invalid id
    qs.push_back(q);
  }
  return qs;
}

std::vector<QueryResult> run_serial(const QueryEngine& engine,
                                    const std::vector<Query>& qs) {
  QueryScratch scratch;
  std::vector<ClusterId> buf;
  std::vector<QueryResult> out;
  out.reserve(qs.size());
  for (const Query& q : qs) out.push_back(execute_query(engine, q, scratch, buf));
  return out;
}

// ---- query semantics --------------------------------------------------------

TEST(QueryEngine, ApproxDistanceMatchesOracleFormula) {
  const Graph g = gen::ring_of_cliques(6, 10);
  const QueryEngine engine = make_engine(g);
  Rng rng(123);
  for (int i = 0; i < 500; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto d = engine.approx_distance(u, v);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, testutil::oracle_formula(engine.artifact(), u, v));
  }
}

TEST(QueryEngine, InvalidNodeIdsAreInvalidArgument) {
  const Graph g = gen::grid(8, 8);
  const QueryEngine engine = make_engine(g);
  const NodeId n = g.num_nodes();
  EXPECT_EQ(engine.approx_distance(n, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.approx_distance(0, n + 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.same_cluster(n, n).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.cluster_neighborhood(n, 1).status().code(),
            StatusCode::kInvalidArgument);
  // A valid query still works afterwards — errors don't wedge the engine.
  EXPECT_TRUE(engine.approx_distance(0, 1).ok());
}

TEST(QueryEngine, SameClusterAgreesWithLabels) {
  const Graph g = gen::ring_of_cliques(5, 8);
  const QueryEngine engine = make_engine(g);
  const auto labels = engine.artifact().cluster_of;
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = engine.same_cluster(u, v);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, labels[u] == labels[v]);
  }
}

TEST(QueryEngine, ClusterNeighborhoodGrowsWithHops) {
  const Graph g = gen::cycle(240);
  const QueryEngine engine = make_engine(g, /*seed=*/3, /*tau=*/2);
  ASSERT_GE(engine.num_clusters(), 4u);
  auto h0 = engine.cluster_neighborhood(0, 0);
  auto h1 = engine.cluster_neighborhood(0, 1);
  auto big = engine.cluster_neighborhood(0, engine.num_clusters());
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(h0->size(), 1u);  // just u's own cluster
  EXPECT_GT(h1->size(), h0->size());
  // Enough hops reaches every cluster of the (connected) quotient.
  EXPECT_EQ(big->size(), engine.num_clusters());
  // Ascending and duplicate-free — the determinism invariant.
  EXPECT_TRUE(std::is_sorted(big->begin(), big->end()));
  EXPECT_EQ(std::adjacent_find(big->begin(), big->end()), big->end());
}

TEST(QueryEngine, NeighborhoodScratchReuseIsClean) {
  const Graph g = gen::ring_of_cliques(8, 6);
  const QueryEngine engine = make_engine(g);
  QueryScratch scratch;
  std::vector<ClusterId> out;
  // Same query through one scratch many times: epoch stamping must not
  // let marks leak between queries.
  ASSERT_TRUE(engine.cluster_neighborhood(0, 1, scratch, out).ok());
  const std::vector<ClusterId> first = out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.cluster_neighborhood(0, 1, scratch, out).ok());
    EXPECT_EQ(out, first);
  }
}

// ---- the server -------------------------------------------------------------

TEST(QueryServer, ServesBatchesAndCounts) {
  const Graph g = gen::ring_of_cliques(6, 10);
  const QueryEngine engine = make_engine(g);
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_depth = 16;
  QueryServer server(engine, opts);
  EXPECT_EQ(server.num_workers(), 2u);

  const std::vector<Query> qs = make_workload(g.num_nodes(), 400, 1);
  const std::vector<QueryResult> expected = run_serial(engine, qs);
  auto ticket = server.submit(qs).value();
  EXPECT_EQ(ticket.wait(), expected);
  EXPECT_GE(ticket.latency_s(), 0.0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, qs.size());
  EXPECT_EQ(stats.batches_served, 1u);
  EXPECT_GT(stats.invalid_queries, 0u);  // the workload plants bad ids
  EXPECT_EQ(stats.shed_batches, 0u);
}

TEST(QueryServer, InvalidQueryFailsAloneInItsBatch) {
  const Graph g = gen::grid(6, 6);
  const QueryEngine engine = make_engine(g);
  QueryServer server(engine, {.workers = 1, .queue_depth = 4});
  std::vector<Query> qs = {
      {QueryKind::kApproxDistance, 0, 5},
      {QueryKind::kApproxDistance, g.num_nodes() + 7, 0},  // bad id
      {QueryKind::kSameCluster, 1, 2},
  };
  // Hold the ticket: it owns the batch the result vector lives in, so
  // binding `results` through a temporary would dangle once the worker
  // drops its own reference.
  const auto ticket = server.submit(qs).value();
  const auto& results = ticket.wait();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].code, StatusCode::kOk);
  EXPECT_EQ(results[1].code, StatusCode::kInvalidArgument);
  EXPECT_EQ(results[2].code, StatusCode::kOk);
}

TEST(QueryServer, ShedsWhenQueueIsFull) {
  const Graph g = gen::ring_of_cliques(6, 10);
  const QueryEngine engine = make_engine(g);
  // No-worker-slack setup: one worker, depth 2, and enough slow-ish
  // batches that the queue must fill while it churns.
  QueryServer server(engine, {.workers = 1, .queue_depth = 2});
  const std::vector<Query> qs = make_workload(g.num_nodes(), 2000, 2);

  std::size_t shed = 0;
  std::vector<QueryServer::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    auto t = server.try_submit(qs);
    if (t.ok()) {
      tickets.push_back(std::move(t).value());
    } else {
      EXPECT_EQ(t.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  for (const auto& t : tickets) t.wait();
  // 64 instant submissions against depth 2 and one slow worker: some
  // batches must have been refused.
  EXPECT_GT(shed, 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_batches, shed);
  EXPECT_EQ(stats.shed_queries, shed * qs.size());
  // Everything accepted was served exactly once.
  EXPECT_EQ(stats.batches_served, tickets.size());
  EXPECT_EQ(stats.queries_served, tickets.size() * qs.size());
}

TEST(QueryServer, ShutdownDrainsAcceptedWork) {
  const Graph g = gen::ring_of_cliques(6, 10);
  const QueryEngine engine = make_engine(g);
  const std::vector<Query> qs = make_workload(g.num_nodes(), 500, 3);
  const std::vector<QueryResult> expected = run_serial(engine, qs);

  QueryServer server(engine, {.workers = 2, .queue_depth = 64});
  std::vector<QueryServer::Ticket> tickets;
  for (int i = 0; i < 16; ++i) tickets.push_back(server.submit(qs).value());
  server.shutdown();  // must drain all 16, then stop
  for (const auto& t : tickets) EXPECT_EQ(t.wait(), expected);
  EXPECT_EQ(server.stats().batches_served, 16u);

  // Post-shutdown submissions are refused, not queued and not lost.
  auto late = server.try_submit(qs);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  server.shutdown();  // idempotent
}

// ---- determinism: N workers == serial ---------------------------------------

TEST(QueryServer, ConcurrentAnswersAreByteIdenticalToSerial) {
  const Graph g = gen::expander(600, 6, 5);
  const QueryEngine engine = make_engine(g, /*seed=*/17, /*tau=*/3);

  // One shared query stream, split into batches.  Serial reference first.
  const std::vector<Query> stream = make_workload(g.num_nodes(), 6000, 4);
  const std::vector<QueryResult> expected = run_serial(engine, stream);

  for (const std::size_t workers : {2u, 4u, 8u}) {
    QueryServer server(engine, {.workers = workers, .queue_depth = 256});
    constexpr std::size_t kBatch = 250;
    std::vector<QueryServer::Ticket> tickets;
    for (std::size_t off = 0; off < stream.size(); off += kBatch) {
      tickets.push_back(
          server
              .submit({stream.begin() + static_cast<long>(off),
                       stream.begin() + static_cast<long>(off + kBatch)})
              .value());
    }
    std::vector<QueryResult> got;
    got.reserve(stream.size());
    for (const auto& t : tickets) {
      const auto& r = t.wait();
      got.insert(got.end(), r.begin(), r.end());
    }
    EXPECT_EQ(got, expected) << workers << " workers";
  }
}

TEST(QueryServer, ConcurrentClientsSeeConsistentAnswers) {
  // Many client threads × many batches, all through one server: every
  // client must read exactly the serial answers for its own stream.  This
  // is the test TSan watches for data races in the queue/scratch handling.
  const Graph g = gen::ring_of_cliques(8, 12);
  const QueryEngine engine = make_engine(g);
  QueryServer server(engine, {.workers = 4, .queue_depth = 32});

  constexpr int kClients = 6;
  std::vector<std::vector<Query>> streams;
  std::vector<std::vector<QueryResult>> expected;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(
        make_workload(g.num_nodes(), 800, 100 + static_cast<std::uint64_t>(c)));
    expected.push_back(run_serial(engine, streams.back()));
  }

  std::vector<int> mismatches(kClients, 0);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int round = 0; round < 5; ++round) {
          auto ticket = server.submit(streams[c]).value();
          if (ticket.wait() != expected[c]) ++mismatches[c];
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[c], 0) << c;
  EXPECT_EQ(server.stats().queries_served,
            static_cast<std::uint64_t>(kClients) * 5 * 800);
}

// ---- shutdown race & hot swap -----------------------------------------------

TEST(QueryServer, SubmitShutdownRaceNeverAborts) {
  // Regression: submit() used to GCLUS_CHECK(!stop_) and abort the whole
  // process when it lost the race with shutdown() — with remote clients
  // attached that abort kills every connection at once.  Hammer the race
  // and assert refusal is a kUnavailable Status, every accepted batch
  // completes with the right answers, and none is silently dropped.
  const Graph g = gen::ring_of_cliques(4, 8);
  const QueryEngine engine = make_engine(g);
  const std::vector<Query> qs = make_workload(g.num_nodes(), 50, 7);
  const std::vector<QueryResult> expected = run_serial(engine, qs);

  for (int round = 0; round < 20; ++round) {
    QueryServer server(engine, {.workers = 2, .queue_depth = 4});
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> refused{0};
    std::vector<std::thread> producers;
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 25;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          auto t = server.submit(qs);
          if (t.ok()) {
            accepted.fetch_add(1, std::memory_order_relaxed);
            EXPECT_EQ(t->wait(), expected);
          } else {
            EXPECT_EQ(t.status().code(), StatusCode::kUnavailable);
            refused.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    server.shutdown();  // races every producer's submit
    for (auto& t : producers) t.join();
    EXPECT_EQ(accepted.load() + refused.load(),
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
    // Accepted and completed are the same set: nothing accepted was lost
    // in the drain, nothing refused was half-queued.
    EXPECT_EQ(server.stats().batches_served, accepted.load());
  }
}

TEST(QueryServer, LatencyIsSentinelWhilePending) {
  const Graph g = gen::ring_of_cliques(6, 10);
  const QueryEngine engine = make_engine(g);
  // One worker, pinned down by a long first batch, so the second batch is
  // provably still queued when we probe its latency.
  QueryServer server(engine, {.workers = 1, .queue_depth = 8});
  auto slow = server.submit(make_workload(g.num_nodes(), 200000, 8)).value();
  auto queued = server.submit(make_workload(g.num_nodes(), 10, 9)).value();
  EXPECT_EQ(queued.latency_s(), -1.0);  // not done: sentinel, not garbage
  queued.wait();
  EXPECT_GE(queued.latency_s(), 0.0);
  slow.wait();
}

TEST(QueryServer, SwapEngineServesOldThenNewNeverMixed) {
  // Two engines over the same graph with different decomposition radii:
  // their answer streams differ, which lets each batch be classified as
  // entirely-v1, entirely-v2, or (the bug) a mix of both.
  const Graph g = gen::cycle(240);
  auto e1 = std::make_shared<QueryEngine>(make_engine(g, /*seed=*/3, /*tau=*/2));
  auto e2 = std::make_shared<QueryEngine>(make_engine(g, /*seed=*/3, /*tau=*/8));
  const std::vector<Query> qs = make_workload(g.num_nodes(), 400, 10);
  const std::vector<QueryResult> exp1 = run_serial(*e1, qs);
  const std::vector<QueryResult> exp2 = run_serial(*e2, qs);
  ASSERT_NE(exp1, exp2);

  QueryServer server(std::shared_ptr<const QueryEngine>(e1),
                     {.workers = 4, .queue_depth = 16});
  EXPECT_EQ(server.engine().get(), e1.get());

  std::vector<QueryServer::Ticket> before;
  for (int i = 0; i < 8; ++i) before.push_back(server.submit(qs).value());
  server.swap_engine(e2);
  EXPECT_EQ(server.engine().get(), e2.get());
  std::vector<QueryServer::Ticket> after;
  for (int i = 0; i < 8; ++i) after.push_back(server.submit(qs).value());

  // Batches in flight across the swap may land on either version, but
  // each one whole: a batch matching neither stream mixed engines.
  for (const auto& t : before) {
    const auto& r = t.wait();
    EXPECT_TRUE(r == exp1 || r == exp2);
  }
  // Batches submitted after swap_engine() returned must see v2 only.
  for (const auto& t : after) EXPECT_EQ(t.wait(), exp2);
}

}  // namespace
}  // namespace gclus::server
