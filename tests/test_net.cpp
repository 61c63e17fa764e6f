// Tests for the query-service network front end (src/net/): protocol
// encode/decode round trips, strict rejection of malformed frames
// (hostile length prefixes, bad magic/version, mid-frame disconnects —
// each poisons one connection, never the process), end-to-end loopback
// byte-identity against serial in-process execution, concurrent clients,
// graceful drain, and artifact hot-reload under live traffic.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"

namespace gclus::net {
namespace {

using server::Query;
using server::QueryEngine;
using server::QueryKind;
using server::QueryResult;
using server::QueryScratch;
using server::QueryServer;

// The drain/refusal tests exhaust the client's retry loop; don't sleep
// through the backoffs.
const bool kFastRetries = [] {
  ::setenv("GCLUS_IO_BACKOFF_US", "0", 1);
  return true;
}();

QueryEngine make_engine(const Graph& g, std::uint64_t seed = 11,
                        std::uint32_t tau = 4) {
  DistanceOracleOptions opts;
  opts.seed = seed;
  opts.tau = tau;
  auto engine = QueryEngine::build(Graph(g), opts);
  GCLUS_CHECK(engine.ok(), "test graph must build");
  return std::move(engine).value();
}

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
  for (const Query& q : qs) {
    out.push_back(execute_query(engine, q, scratch, buf));
  }
  return out;
}

/// Everything a NetServer test needs, wired up on an ephemeral port.
struct Harness {
  Graph g;
  std::shared_ptr<const QueryEngine> engine;
  QueryServer qserver;
  std::unique_ptr<NetServer> nserver;

  explicit Harness(NetServerOptions opts = {})
      : g(gen::ring_of_cliques(6, 5)),
        engine(std::make_shared<const QueryEngine>(make_engine(g))),
        qserver(engine) {
    auto started = NetServer::start(qserver, std::move(opts));
    GCLUS_CHECK(started.ok(), "harness NetServer must start");
    nserver = std::move(started).value();
  }
};

/// The payload (after the length prefix) of an encoded frame.
std::vector<std::uint8_t> payload_of(std::vector<std::uint8_t> wire) {
  wire.erase(wire.begin(), wire.begin() + kLenPrefixSize);
  return wire;
}

// ---- protocol round trips ---------------------------------------------------

TEST(Protocol, QueryBatchRoundTrips) {
  const std::vector<Query> qs = make_workload(30, 257, 42);
  const auto payload = payload_of(encode_query_batch(qs));
  const auto frame = decode_frame(payload.data(), payload.size());
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(frame->type, FrameType::kQueryBatch);
  ASSERT_EQ(frame->queries.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(frame->queries[i].kind, qs[i].kind);
    EXPECT_EQ(frame->queries[i].u, qs[i].u);
    EXPECT_EQ(frame->queries[i].arg, qs[i].arg);
  }
}

TEST(Protocol, EmptyQueryBatchRoundTrips) {
  const auto payload = payload_of(encode_query_batch({}));
  const auto frame = decode_frame(payload.data(), payload.size());
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(frame->type, FrameType::kQueryBatch);
  EXPECT_TRUE(frame->queries.empty());
}

TEST(Protocol, ResultBatchRoundTrips) {
  std::vector<QueryResult> rs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    rs.push_back({i % 9 == 0 ? StatusCode::kInvalidArgument : StatusCode::kOk,
                  ~std::uint64_t{0} - i * 0x0101010101010101ull});
  }
  const auto payload = payload_of(encode_result_batch(rs));
  const auto frame = decode_frame(payload.data(), payload.size());
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(frame->type, FrameType::kResultBatch);
  EXPECT_EQ(frame->results, rs);
}

TEST(Protocol, ErrorFrameRoundTrips) {
  const Status err = UnavailableError("server draining");
  const auto payload = payload_of(encode_error(err));
  const auto frame = decode_frame(payload.data(), payload.size());
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_EQ(frame->error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(frame->error.message(), "server draining");
}

// ---- decode hardening -------------------------------------------------------
// Every malformation is kInvalidArgument: the peer spoke a different
// protocol, and guessing would corrupt answers silently.

void expect_invalid(const std::vector<std::uint8_t>& payload,
                    const char* what) {
  SCOPED_TRACE(what);
  const auto frame = decode_frame(payload.data(), payload.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(frame.status().message().empty());
}

TEST(Protocol, RejectsEveryHeaderMalformation) {
  const std::vector<Query> qs = make_workload(30, 5, 7);
  const auto good = payload_of(encode_query_batch(qs));
  ASSERT_TRUE(decode_frame(good.data(), good.size()).ok());

  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    auto p = good;
    p.resize(len);
    expect_invalid(p, "header truncated");
  }
  {
    auto p = good;
    p[0] ^= 0xFF;  // magic
    expect_invalid(p, "bad magic");
  }
  {
    auto p = good;
    p[4] = kVersion + 1;
    expect_invalid(p, "unknown version");
  }
  {
    auto p = good;
    p[5] = 7;  // frame type
    expect_invalid(p, "unknown frame type");
  }
  {
    auto p = good;
    p[6] = 1;  // reserved
    expect_invalid(p, "nonzero reserved");
  }
  {
    auto p = good;
    p[8] ^= 0x01;  // count no longer matches the body size
    expect_invalid(p, "count/body mismatch");
  }
  {
    auto p = good;
    p.pop_back();  // body one byte short of count * record size
    expect_invalid(p, "truncated body");
  }
}

TEST(Protocol, RejectsEveryRecordMalformation) {
  const std::vector<Query> qs = make_workload(30, 3, 9);
  const auto good = payload_of(encode_query_batch(qs));
  {
    auto p = good;
    p[kHeaderSize] = 99;  // query kind byte
    expect_invalid(p, "unknown query kind");
  }
  {
    auto p = good;
    p[kHeaderSize + 2] = 0xAA;  // query padding
    expect_invalid(p, "nonzero query padding");
  }
  const auto results =
      payload_of(encode_result_batch({{StatusCode::kOk, 17}}));
  {
    auto p = results;
    p[kHeaderSize] = 99;  // result code byte
    expect_invalid(p, "unknown result code");
  }
  {
    auto p = results;
    p[kHeaderSize + 1] = 1;  // result padding
    expect_invalid(p, "nonzero result padding");
  }
  const auto error = payload_of(encode_error(DataLossError("boom")));
  {
    auto p = error;
    p[kHeaderSize] = 0;  // an error frame carrying kOk is a contradiction
    expect_invalid(p, "ok error code");
  }
  {
    auto p = error;
    p.push_back('!');  // body longer than 4 + count
    expect_invalid(p, "error body size mismatch");
  }
}

// ---- socket framing ---------------------------------------------------------

Socket accept_one(const Listener& listener) {
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  GCLUS_CHECK(fd >= 0, "accept must succeed in framing tests");
  return Socket(fd);
}

std::vector<std::uint8_t> raw_prefix(std::uint32_t declared) {
  return {static_cast<std::uint8_t>(declared),
          static_cast<std::uint8_t>(declared >> 8),
          static_cast<std::uint8_t>(declared >> 16),
          static_cast<std::uint8_t>(declared >> 24)};
}

TEST(Framing, CleanCloseBetweenFramesIsNotAnError) {
  auto listener = Listener::bind_loopback(0);
  ASSERT_TRUE(listener.ok());
  auto client = connect_loopback(listener->port());
  ASSERT_TRUE(client.ok());
  Socket conn = accept_one(*listener);
  client->close();
  std::vector<std::uint8_t> payload;
  const auto got = read_frame(conn, payload);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_FALSE(*got);
}

TEST(Framing, MidFrameDisconnectIsDataLoss) {
  auto listener = Listener::bind_loopback(0);
  ASSERT_TRUE(listener.ok());
  auto client = connect_loopback(listener->port());
  ASSERT_TRUE(client.ok());
  Socket conn = accept_one(*listener);

  auto bytes = raw_prefix(100);  // promise 100 payload bytes...
  bytes.resize(bytes.size() + 10, 0x55);  // ...deliver 10, then vanish
  ASSERT_TRUE(write_frame(*client, bytes.data(), bytes.size()).ok());
  client->close();

  std::vector<std::uint8_t> payload;
  const auto got = read_frame(conn, payload);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(Framing, TruncatedLengthPrefixIsDataLoss) {
  auto listener = Listener::bind_loopback(0);
  ASSERT_TRUE(listener.ok());
  auto client = connect_loopback(listener->port());
  ASSERT_TRUE(client.ok());
  Socket conn = accept_one(*listener);

  const std::uint8_t byte = 0x01;  // 1 of the 4 prefix bytes
  ASSERT_TRUE(write_frame(*client, &byte, 1).ok());
  client->close();

  std::vector<std::uint8_t> payload;
  const auto got = read_frame(conn, payload);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(Framing, HostileDeclaredLengthsAreRejectedBeforeAllocation) {
  auto listener = Listener::bind_loopback(0);
  ASSERT_TRUE(listener.ok());
  const std::uint32_t declared[] = {
      0, 1, static_cast<std::uint32_t>(kHeaderSize) - 1,
      static_cast<std::uint32_t>(max_frame_payload()) + 1, 0xFFFFFFFFu};
  for (const std::uint32_t len : declared) {
    SCOPED_TRACE(len);
    auto client = connect_loopback(listener->port());
    ASSERT_TRUE(client.ok());
    Socket conn = accept_one(*listener);
    const auto bytes = raw_prefix(len);
    ASSERT_TRUE(write_frame(*client, bytes.data(), bytes.size()).ok());
    std::vector<std::uint8_t> payload;
    const auto got = read_frame(conn, payload);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---- end-to-end over loopback -----------------------------------------------

TEST(NetServer, LoopbackAnswersMatchSerialExecution) {
  Harness h;
  auto client = Client::connect(h.nserver->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto qs = make_workload(h.g.num_nodes(), 301, seed);
    const auto got = client->submit(qs);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(*got, run_serial(*h.engine, qs));
  }
  const NetServerStats stats = h.nserver->stats();
  EXPECT_EQ(stats.frames_in, 6u);
  EXPECT_EQ(stats.results_sent, 6u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(NetServer, ConcurrentClientsEachGetByteIdenticalAnswers) {
  Harness h;
  constexpr int kClients = 4;
  constexpr int kBatches = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::connect(h.nserver->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int b = 0; b < kBatches; ++b) {
        const auto qs = make_workload(
            h.g.num_nodes(), 211, static_cast<std::uint64_t>(c * 100 + b));
        const auto got = client->submit(qs);
        if (!got.ok() || *got != run_serial(*h.engine, qs)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(h.nserver->stats().results_sent,
            static_cast<std::uint64_t>(kClients * kBatches));
}

TEST(NetServer, MalformedFrameClosesOnlyThatConnection) {
  Harness h;
  // A liar connection: valid framing, garbage magic.
  {
    auto raw = connect_loopback(h.nserver->port());
    ASSERT_TRUE(raw.ok());
    auto wire = encode_query_batch(make_workload(h.g.num_nodes(), 5, 1));
    wire[kLenPrefixSize] ^= 0xFF;  // corrupt the magic
    ASSERT_TRUE(write_frame(*raw, wire.data(), wire.size()).ok());
    // The server names the reason in an error frame, then closes.
    std::vector<std::uint8_t> payload;
    const auto reply = read_frame(*raw, payload);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    ASSERT_TRUE(*reply);
    const auto frame = decode_frame(payload.data(), payload.size());
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    EXPECT_EQ(frame->type, FrameType::kError);
    EXPECT_EQ(frame->error.code(), StatusCode::kInvalidArgument);
    const auto eof = read_frame(*raw, payload);
    ASSERT_TRUE(eof.ok()) << eof.status().to_string();
    EXPECT_FALSE(*eof);
  }
  // A mid-frame deserter.
  {
    auto raw = connect_loopback(h.nserver->port());
    ASSERT_TRUE(raw.ok());
    const auto bytes = raw_prefix(64);
    ASSERT_TRUE(write_frame(*raw, bytes.data(), bytes.size()).ok());
    raw->close();
  }
  // The process shrugged both off: a well-behaved client is still served.
  auto client = Client::connect(h.nserver->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  const auto qs = make_workload(h.g.num_nodes(), 97, 3);
  const auto got = client->submit(qs);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, run_serial(*h.engine, qs));
  // Both misbehaviors were counted (the deserter's count lands once its
  // connection thread notices the close — poll briefly).
  for (int i = 0; i < 100 && h.nserver->stats().bad_frames < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(h.nserver->stats().bad_frames, 2u);
}

TEST(NetServer, DrainAnswersInFlightThenRefusesCleanly) {
  NetServerOptions opts;
  opts.poll_interval_ms = 10;  // fast drain notice
  Harness h(std::move(opts));
  auto client = Client::connect(h.nserver->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  const auto qs = make_workload(h.g.num_nodes(), 199, 8);
  const auto before = client->submit(qs);
  ASSERT_TRUE(before.ok()) << before.status().to_string();
  EXPECT_EQ(*before, run_serial(*h.engine, qs));

  h.nserver->request_drain();
  EXPECT_TRUE(h.nserver->draining());
  h.nserver->drain();  // joins accept loop, watcher, connection threads

  // Every accepted batch was answered before the drain completed.
  const NetServerStats stats = h.nserver->stats();
  EXPECT_EQ(stats.results_sent, stats.frames_in);

  // The old connection got the drain notice (or a reset from the closed
  // listener); either way the refusal is a clean Status, never a hang or
  // an abort, and fresh connections are refused outright.
  const auto after = client->submit(qs);
  EXPECT_FALSE(after.ok());
  EXPECT_FALSE(after.status().message().empty());
  EXPECT_FALSE(Client::connect(h.nserver->port()).ok());

  // Drain is idempotent, and only now may the QueryServer go down.
  h.nserver->request_drain();
  h.nserver->drain();
  h.qserver.shutdown();
}

TEST(NetServer, HotReloadSwapsEnginesWithoutMixingABatch) {
  const std::string path =
      ::testing::TempDir() + "gclus_net_hot_reload.orc";
  const Graph g = gen::cycle(240);
  const QueryEngine v1 = make_engine(g, 11, 2);
  const QueryEngine v2 = make_engine(g, 11, 8);
  ASSERT_TRUE(v1.save(path).ok());

  const auto qs = make_workload(g.num_nodes(), 173, 5);
  const auto exp1 = run_serial(v1, qs);
  const auto exp2 = run_serial(v2, qs);
  ASSERT_NE(exp1, exp2) << "tau must change some answer for this test";

  auto loaded = QueryEngine::load(Graph(g), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  QueryServer qserver(
      std::make_shared<const QueryEngine>(std::move(loaded).value()));
  NetServerOptions opts;
  opts.watch_artifact_path = path;
  opts.watch_interval_ms = 10;
  auto nserver = NetServer::start(qserver, std::move(opts));
  ASSERT_TRUE(nserver.ok()) << nserver.status().to_string();

  auto client = Client::connect((*nserver)->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  const auto first = client->submit(qs);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(*first, exp1);

  // Republish the artifact; the watcher must pick it up and atomically
  // swap.  Until then v1 keeps answering — and no reply may ever mix the
  // two versions.
  ASSERT_TRUE(v2.save(path).ok());
  bool saw_v2 = false;
  for (int i = 0; i < 1000 && !saw_v2; ++i) {
    const auto got = client->submit(qs);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    if (*got == exp2) {
      saw_v2 = true;
    } else {
      ASSERT_EQ(*got, exp1) << "reply mixed engine versions";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_v2) << "watcher never swapped in the republished engine";
  EXPECT_GE((*nserver)->stats().reloads, 1u);

  // After the swap, v2 answers everything.
  const auto settled = client->submit(qs);
  ASSERT_TRUE(settled.ok()) << settled.status().to_string();
  EXPECT_EQ(*settled, exp2);
}

TEST(NetServer, BadRepublishKeepsServingTheCurrentEngine) {
  const std::string path =
      ::testing::TempDir() + "gclus_net_bad_republish.orc";
  const Graph g = gen::ring_of_cliques(6, 5);
  const QueryEngine v1 = make_engine(g);
  ASSERT_TRUE(v1.save(path).ok());
  auto loaded = QueryEngine::load(Graph(g), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  QueryServer qserver(
      std::make_shared<const QueryEngine>(std::move(loaded).value()));
  NetServerOptions opts;
  opts.watch_artifact_path = path;
  opts.watch_interval_ms = 10;
  auto nserver = NetServer::start(qserver, std::move(opts));
  ASSERT_TRUE(nserver.ok()) << nserver.status().to_string();

  const auto qs = make_workload(g.num_nodes(), 151, 2);
  const auto exp = run_serial(v1, qs);

  // Publish garbage where the artifact used to be — atomically, like a
  // real (if broken) publisher would: the engine mmaps the old inode, so
  // an in-place overwrite would corrupt the live mapping rather than
  // exercise the reload-rejection path.
  {
    const std::string tmp = path + ".tmp";
    std::vector<std::uint8_t> junk(64, 0xEE);
    FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  }
  // Give the watcher several intervals to notice (and reject) it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto client = Client::connect((*nserver)->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  const auto got = client->submit(qs);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, exp);  // v1 never stopped serving
  EXPECT_EQ((*nserver)->stats().reloads, 0u);
}

}  // namespace
}  // namespace gclus::net
