// Tests for the concurrent query service (server/server.hpp): the batch
// kernel against an independent per-kind reference over the artifact's
// spans (testutil::reference_answer), the Status taxonomy for bad
// requests, load shedding on a full queue, clean shutdown draining, and
// the headline determinism contract — N concurrent workers answer a
// query stream byte-identically to serial execution.
// This binary is the TSan target of the sanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
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

/// One query through the batch kernel.
QueryResult run_one(const QueryEngine& engine, const Query& q,
                    QueryScratch& scratch) {
  QueryResult r;
  engine.execute({&q, 1}, {&r, 1}, scratch);
  return r;
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
  QueryScratch scratch;
  EXPECT_EQ(run_one(engine, {QueryKind::kSameCluster, n, n}, scratch).code,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      run_one(engine, {QueryKind::kClusterNeighborhood, n, 1}, scratch).code,
      StatusCode::kInvalidArgument);
  // A valid query still works afterwards — errors don't wedge the engine.
  EXPECT_TRUE(engine.approx_distance(0, 1).ok());
}

TEST(QueryEngine, SameClusterAgreesWithLabels) {
  const Graph g = gen::ring_of_cliques(5, 8);
  const QueryEngine engine = make_engine(g);
  const auto labels = engine.artifact().cluster_of;
  Rng rng(9);
  std::vector<Query> qs;
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    qs.push_back({QueryKind::kSameCluster, u, v});
  }
  std::vector<QueryResult> rs(qs.size());
  QueryScratch scratch;
  engine.execute(qs, rs, scratch);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(rs[i].code, StatusCode::kOk);
    EXPECT_EQ(rs[i].value == 1, labels[qs[i].u] == labels[qs[i].arg]);
  }
}

TEST(QueryEngine, ClusterNeighborhoodGrowsWithHops) {
  const Graph g = gen::cycle(240);
  const QueryEngine engine = make_engine(g, /*seed=*/3, /*tau=*/2);
  ASSERT_GE(engine.num_clusters(), 4u);
  QueryScratch scratch;
  const auto neighborhood = [&](std::uint32_t hops) {
    const QueryResult r =
        run_one(engine, {QueryKind::kClusterNeighborhood, 0, hops}, scratch);
    EXPECT_EQ(r.code, StatusCode::kOk);
    return scratch.neighborhood;
  };
  const std::vector<ClusterId> h0 = neighborhood(0);
  const std::vector<ClusterId> h1 = neighborhood(1);
  const std::vector<ClusterId> big = neighborhood(engine.num_clusters());
  EXPECT_EQ(h0.size(), 1u);  // just u's own cluster
  EXPECT_GT(h1.size(), h0.size());
  // Enough hops reaches every cluster of the (connected) quotient.
  EXPECT_EQ(big.size(), engine.num_clusters());
  // Ascending and duplicate-free — the determinism invariant.
  EXPECT_TRUE(std::is_sorted(big.begin(), big.end()));
  EXPECT_EQ(std::adjacent_find(big.begin(), big.end()), big.end());
}

TEST(QueryEngine, NeighborhoodScratchReuseIsClean) {
  const Graph g = gen::ring_of_cliques(8, 6);
  const QueryEngine engine = make_engine(g);
  QueryScratch scratch;
  const Query q{QueryKind::kClusterNeighborhood, 0, 1};
  // Same query through one scratch many times: epoch stamping must not
  // let marks leak between queries.
  const QueryResult first = run_one(engine, q, scratch);
  ASSERT_EQ(first.code, StatusCode::kOk);
  const std::vector<ClusterId> first_list = scratch.neighborhood;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(run_one(engine, q, scratch), first);
    EXPECT_EQ(scratch.neighborhood, first_list);
  }
}

/// A batch stream that mixes every kind with the edge cases the kernel
/// branches on: ~1% out-of-range ids in u or arg, u == v, hops 0, 1 and
/// at least the cluster count (up to UINT32_MAX), and a rare unknown kind.
std::vector<Query> make_edge_case_stream(NodeId n, ClusterId k,
                                         std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.u = static_cast<NodeId>(rng.next_below(n));
    const std::uint64_t roll = rng.next_below(1000);
    if (roll < 600) {
      q.kind = QueryKind::kApproxDistance;
      q.arg = roll < 60 ? q.u : static_cast<NodeId>(rng.next_below(n));
    } else if (roll < 800) {
      q.kind = QueryKind::kSameCluster;
      q.arg = roll < 620 ? q.u : static_cast<NodeId>(rng.next_below(n));
    } else if (roll < 995) {
      q.kind = QueryKind::kClusterNeighborhood;
      const std::uint32_t hops[] = {0, 1, 2, k, k + 3, UINT32_MAX};
      q.arg = hops[rng.next_below(std::size(hops))];
    } else {
      q.kind = static_cast<QueryKind>(3 + rng.next_below(250));
      q.arg = static_cast<NodeId>(rng.next_below(n));
    }
    // Out-of-range ids from the boundary n up to UINT32_MAX.
    const NodeId bad_ids[] = {n, n + 1, n + 999, UINT32_MAX};
    const NodeId bad = bad_ids[rng.next_below(std::size(bad_ids))];
    const std::uint64_t roll_bad = rng.next_below(200);
    if (roll_bad == 0) q.u = bad;
    if (roll_bad == 1 && q.kind != QueryKind::kClusterNeighborhood) q.arg = bad;
    qs.push_back(q);
  }
  return qs;
}

TEST(QueryEngine, BatchKernelMatchesReference) {
  std::vector<testutil::NamedGraph> graphs = testutil::small_connected_corpus();
  const Graph road = gen::road_like(60, 60, 0.08, 0.02, 1);
  graphs.push_back({"road-60x60", testutil::largest_component_of(road)});
  for (const auto& [name, g] : graphs) {
    const QueryEngine engine = make_engine(g, /*seed=*/5, /*tau=*/4);
    const OracleArtifact& a = engine.artifact();
    const std::vector<Query> stream =
        make_edge_case_stream(g.num_nodes(), engine.num_clusters(), 2048, 21);
    std::vector<QueryResult> want;
    want.reserve(stream.size());
    for (const Query& q : stream) {
      want.push_back(testutil::reference_answer(a, q));
    }
    std::size_t invalid = 0;
    for (const QueryResult& r : want) {
      invalid += r.code == StatusCode::kInvalidArgument ? 1 : 0;
    }
    ASSERT_GT(invalid, 0u) << name;  // the error path is exercised

    for (const std::size_t batch : {1u, 7u, 256u}) {
      QueryScratch scratch;  // reused across every batch of the stream
      std::vector<QueryResult> got(batch);
      for (std::size_t off = 0; off < stream.size(); off += batch) {
        const std::size_t len = std::min(batch, stream.size() - off);
        const std::span<const Query> qs(stream.data() + off, len);
        const std::span<QueryResult> rs(got.data(), len);
        engine.execute(qs, rs, scratch);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(rs[i], want[off + i])
              << name << " batch " << batch << " query " << off + i;
        }
        const Query& last = qs.back();
        if (batch == 1 && last.kind == QueryKind::kClusterNeighborhood &&
            rs[0].code == StatusCode::kOk) {
          ASSERT_EQ(scratch.neighborhood,
                    testutil::reference_neighborhood(
                        a, a.cluster_of[last.u], last.arg))
              << name << " query " << off;
        }
      }
    }
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
