// Query-service benchmark — the perf/compliance anchor for src/server/.
//
// On the 1.2M-edge 8-regular expander (the same graph as bench_io) this
// demonstrates the serving claims of the decomposition query service:
//
//   1. Batching wins: the batched pipeline at 8 workers beats per-query
//      submission (batch size 1 — one queue round-trip per lookup) by
//      >= 3x QPS.  This ratio is machine-portable: it measures the
//      amortization design, not core count.
//
//   2. Artifact restart wins: mmap-loading the published sidecar is
//      >= 3x faster than re-running decomposition + APSP, and the loaded
//      engine answers byte-identically to the fresh build.
//
//   3. Concurrency is free of nondeterminism: the full query stream
//      answered at 1, 2, and 8 workers is byte-identical, and nothing is
//      shed when the submitter applies backpressure.
//
//   4. The wire adds no wrongness: the same stream served over the
//      loopback network front end (src/net/) at 1, 2, and 8 workers is
//      byte-identical to in-process serving; net_qps_* / net_p??_* gauge
//      what the framing + TCP round trip costs.
//
// Worker scaling (qps_8w / qps_1w) is also measured and floored, but the
// floor adapts to the machine: on >= 8 hardware threads it demands the
// ISSUE's 3x; on smaller hosts (CI containers are often 1-2 cores, where
// 8 workers cannot beat 1) it only demands that concurrency not collapse
// throughput.  The committed baseline gates the ratio measured on the
// reference host.
//
// Results go to stdout and BENCH_server.json (override GCLUS_BENCH_OUT).
// Exits 1 ("BENCH FAILED") if any floor fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"

namespace {

using namespace gclus;
using namespace gclus::bench;

constexpr NodeId kNodes = 300000;
constexpr unsigned kDegree = 8;
constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kOracleSeed = 7;
// On a diameter-~7 expander CLUSTER2 covers the graph within a couple of
// growth rounds, so the cluster count saturates low no matter how many
// centers are activated; τ=600 lands at ~16 clusters — a quotient small
// enough for the linear-scan APSP fast path, which this bench thereby
// keeps on its hot restart path.
constexpr std::uint32_t kTau = 600;
constexpr std::uint64_t kQueries = 2000000;
// Loopback round trips cost ~3 orders of magnitude more than an engine
// lookup, so the networked mode uses a shorter stream to keep the bench
// under a minute while still measuring steady-state wire throughput.
constexpr std::uint64_t kNetQueries = 500000;
constexpr std::size_t kBatch = 512;
constexpr std::uint64_t kPerQueryQueries = 100000;  // batch=1 reference
constexpr double kMinBatchSpeedup = 3.0;
constexpr double kMinLoadSpeedup = 3.0;
constexpr double kZipf = 0.8;

[[noreturn]] void bench_failed(const std::string& why) {
  std::fprintf(stderr, "BENCH FAILED: %s\n", why.c_str());
  std::exit(1);
}

/// Zipfian sampler over ranks 0..n-1 (rank r ∝ (r+1)^-s) via CDF +
/// binary search — the skewed access pattern a shared service sees.
class ZipfSampler {
 public:
  ZipfSampler(NodeId n, double s) : cdf_(n) {
    double sum = 0.0;
    for (NodeId r = 0; r < n; ++r) {
      sum += std::pow(static_cast<double>(r) + 1.0, -s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  NodeId operator()(Rng& rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    return static_cast<NodeId>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::vector<server::Query> make_stream(NodeId n, std::uint64_t count) {
  const ZipfSampler sample(n, kZipf);
  Rng rng(123);
  std::vector<server::Query> qs;
  qs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    server::Query q;
    q.u = sample(rng);
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 90) {
      q.kind = server::QueryKind::kApproxDistance;
      q.arg = sample(rng);
    } else if (roll < 95) {
      q.kind = server::QueryKind::kSameCluster;
      q.arg = sample(rng);
    } else {
      q.kind = server::QueryKind::kClusterNeighborhood;
      q.arg = 1;
    }
    qs.push_back(q);
  }
  return qs;
}

struct ServeResult {
  double wall_s = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t shed = 0;
  std::vector<server::QueryResult> answers;
};

/// Drives `stream` through a server in batches of `batch` via the
/// blocking submit path — backpressure instead of shedding, so a healthy
/// run finishes with zero sheds (the floor below asserts it).
ServeResult serve(const server::QueryEngine& engine, std::size_t workers,
                  const std::vector<server::Query>& stream,
                  std::size_t batch) {
  server::ServerOptions opts;
  opts.workers = workers;
  opts.queue_depth = 128;
  server::QueryServer srv(engine, opts);

  ServeResult out;
  out.answers.reserve(stream.size());
  std::vector<server::QueryServer::Ticket> tickets;
  tickets.reserve(stream.size() / batch + 1);
  Timer t;
  for (std::size_t off = 0; off < stream.size(); off += batch) {
    const std::size_t end = std::min(stream.size(), off + batch);
    auto ticket = srv.submit({stream.begin() + static_cast<long>(off),
                              stream.begin() + static_cast<long>(end)});
    if (!ticket.ok()) bench_failed(ticket.status().to_string());
    tickets.push_back(std::move(ticket).value());
  }
  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  for (const auto& ticket : tickets) {
    const auto& r = ticket.wait();
    out.answers.insert(out.answers.end(), r.begin(), r.end());
    latencies.push_back(ticket.latency_s());
  }
  out.wall_s = t.elapsed_s();
  srv.shutdown();
  out.qps = static_cast<double>(stream.size()) / out.wall_s;
  out.shed = srv.stats().shed_batches;
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    return latencies.empty()
               ? 0.0
               : latencies[static_cast<std::size_t>(
                     p * static_cast<double>(latencies.size() - 1))] *
                     1e6;
  };
  out.p50_us = pct(0.5);
  out.p99_us = pct(0.99);
  return out;
}

/// Drives `stream` through a NetServer over loopback — one client
/// connection, strict request-response — measuring wire QPS and
/// per-batch round-trip latency.  Answers are collected for the
/// byte-identity check against in-process serving.
ServeResult serve_net(const server::QueryEngine& engine, std::size_t workers,
                      const std::vector<server::Query>& stream,
                      std::size_t batch) {
  server::ServerOptions opts;
  opts.workers = workers;
  opts.queue_depth = 128;
  server::QueryServer srv(engine, opts);
  auto nserver = net::NetServer::start(srv);
  if (!nserver.ok()) bench_failed(nserver.status().to_string());
  auto client = net::Client::connect((*nserver)->port());
  if (!client.ok()) bench_failed(client.status().to_string());

  ServeResult out;
  out.answers.reserve(stream.size());
  std::vector<double> latencies;
  latencies.reserve(stream.size() / batch + 1);
  Timer t;
  for (std::size_t off = 0; off < stream.size(); off += batch) {
    const std::size_t end = std::min(stream.size(), off + batch);
    Timer t_rt;
    const auto results =
        client->submit({stream.begin() + static_cast<long>(off),
                        stream.begin() + static_cast<long>(end)});
    if (!results.ok()) bench_failed(results.status().to_string());
    latencies.push_back(t_rt.elapsed_s());
    out.answers.insert(out.answers.end(), results->begin(), results->end());
  }
  out.wall_s = t.elapsed_s();
  (*nserver)->request_drain();
  (*nserver)->drain();
  srv.shutdown();
  out.qps = static_cast<double>(stream.size()) / out.wall_s;
  out.shed = srv.stats().shed_batches;
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    return latencies.empty()
               ? 0.0
               : latencies[static_cast<std::size_t>(
                     p * static_cast<double>(latencies.size() - 1))] *
                     1e6;
  };
  out.p50_us = pct(0.5);
  out.p99_us = pct(0.99);
  return out;
}

}  // namespace

int main() {
  const Graph g = cached_expander(kNodes, kDegree, kGraphSeed);
  DistanceOracleOptions opts;
  opts.seed = kOracleSeed;
  opts.tau = kTau;
  std::printf("expander: n=%u m=%llu  tau=%u\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()), opts.tau);

  // --- build vs artifact restart. ---
  Timer t_build;
  auto built = server::QueryEngine::build(Graph(g), opts);
  if (!built.ok()) bench_failed(built.status().to_string());
  const double build_s = t_build.elapsed_s();

  const std::string artifact_path =
      (std::filesystem::temp_directory_path() / "gclus_bench_server.orc")
          .string();
  if (const Status st = built->save(artifact_path); !st.ok()) {
    bench_failed(st.to_string());
  }
  Timer t_load;
  auto loaded = server::QueryEngine::load(Graph(g), artifact_path);
  if (!loaded.ok()) bench_failed(loaded.status().to_string());
  const double load_s = t_load.elapsed_s();
  const double load_speedup = build_s / load_s;
  std::printf("oracle: %u clusters, max radius %u  build %.3fs  "
              "artifact load %.4fs (%.0fx)\n",
              built->num_clusters(), built->max_radius(), build_s, load_s,
              load_speedup);

  // --- restart byte-identity: fresh build vs mmap-ed artifact. ---
  const std::vector<server::Query> probe =
      make_stream(g.num_nodes(), 20000);
  server::QueryScratch scratch;
  std::vector<ClusterId> buf;
  bool restart_identical = true;
  for (const server::Query& q : probe) {
    if (server::execute_query(*built, q, scratch, buf) !=
        server::execute_query(*loaded, q, scratch, buf)) {
      restart_identical = false;
      break;
    }
  }

  // --- serve the stream at 1, 2, 8 workers (batched). ---
  const std::vector<server::Query> stream =
      make_stream(g.num_nodes(), kQueries);
  const ServeResult r1 = serve(*loaded, 1, stream, kBatch);
  const ServeResult r2 = serve(*loaded, 2, stream, kBatch);
  const ServeResult r8 = serve(*loaded, 8, stream, kBatch);
  const double worker_speedup = r8.qps / r1.qps;
  const bool deterministic =
      r1.answers == r2.answers && r1.answers == r8.answers;
  const std::uint64_t shed_total = r1.shed + r2.shed + r8.shed;

  // --- networked serving over loopback at 1, 2, 8 workers. ---
  const std::vector<server::Query> net_stream(
      stream.begin(), stream.begin() + kNetQueries);
  const ServeResult n1 = serve_net(*loaded, 1, net_stream, kBatch);
  const ServeResult n2 = serve_net(*loaded, 2, net_stream, kBatch);
  const ServeResult n8 = serve_net(*loaded, 8, net_stream, kBatch);
  const bool net_identical =
      n1.answers == n2.answers && n1.answers == n8.answers &&
      std::equal(n8.answers.begin(), n8.answers.end(), r1.answers.begin());

  // --- per-query submission reference (batch = 1). ---
  const std::vector<server::Query> small(stream.begin(),
                                         stream.begin() + kPerQueryQueries);
  const ServeResult rq = serve(*loaded, 8, small, 1);
  const double batch_speedup = r8.qps / rq.qps;

  TablePrinter table({"config", "workers", "batch", "qps", "p50_us",
                      "p99_us"});
  const auto row = [&](const char* name, std::size_t w, std::size_t b,
                       const ServeResult& r) {
    table.add_row({name, std::to_string(w), std::to_string(b),
                   fmt(r.qps, 0), fmt(r.p50_us, 0), fmt(r.p99_us, 0)});
  };
  row("batched", 1, kBatch, r1);
  row("batched", 2, kBatch, r2);
  row("batched", 8, kBatch, r8);
  row("loopback", 1, kBatch, n1);
  row("loopback", 2, kBatch, n2);
  row("loopback", 8, kBatch, n8);
  row("per-query", 8, 1, rq);
  table.print("Query service, 2M zipfian queries",
              "targets: batched@8 >= 3x per-query QPS; answers "
              "byte-identical across worker counts; zero sheds");
  std::printf("worker scaling 8w/1w: %.2fx (%u hardware threads)\n",
              worker_speedup, std::thread::hardware_concurrency());

  Json root = Json::object();
  root.set("bench", "server");
  root.set("graph", Json::object()
                        .set("generator", "expander")
                        .set("nodes", static_cast<std::uint64_t>(g.num_nodes()))
                        .set("edges", static_cast<std::uint64_t>(g.num_edges()))
                        .set("degree", static_cast<std::uint64_t>(kDegree))
                        .set("seed", kGraphSeed));
  root.set("tau", static_cast<std::uint64_t>(opts.tau));
  root.set("num_clusters",
           static_cast<std::uint64_t>(built->num_clusters()));
  root.set("build_s", build_s);
  root.set("artifact_load_s", load_s);
  root.set("artifact_load_speedup", load_speedup);
  root.set("restart_identical", restart_identical);
  root.set("queries_total", kQueries);
  root.set("qps_1w", r1.qps);
  root.set("qps_2w", r2.qps);
  root.set("qps_8w", r8.qps);
  root.set("p50_batch_latency_us_8w", r8.p50_us);
  root.set("p99_batch_latency_us_8w", r8.p99_us);
  root.set("worker_speedup_8w", worker_speedup);
  root.set("qps_perquery_8w", rq.qps);
  root.set("batch_speedup_vs_perquery", batch_speedup);
  root.set("deterministic_1_2_8", deterministic);
  root.set("shed_total", shed_total);
  root.set("net_queries_total", kNetQueries);
  root.set("net_qps_1w", n1.qps);
  root.set("net_qps_2w", n2.qps);
  root.set("net_qps_8w", n8.qps);
  root.set("net_p50_batch_latency_us_8w", n8.p50_us);
  root.set("net_p99_batch_latency_us_8w", n8.p99_us);
  root.set("net_identical", net_identical);
  root.set("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  const char* out_env = std::getenv("GCLUS_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_server.json";
  write_json_file(out_path, root);
  std::printf("\nwrote %s\n", out_path.c_str());
  std::remove(artifact_path.c_str());

  // Machine-adaptive worker floor: the full 3x only where 8 workers have
  // 8 threads to run on; elsewhere concurrency must merely not collapse.
  const double worker_floor =
      std::thread::hardware_concurrency() >= 8 ? 3.0 : 0.4;
  if (batch_speedup < kMinBatchSpeedup || load_speedup < kMinLoadSpeedup ||
      worker_speedup < worker_floor || !restart_identical || !deterministic ||
      !net_identical || shed_total != 0) {
    char why[512];
    std::snprintf(why, sizeof(why),
                  "batch_speedup=%.2f (need >= %.1f) load_speedup=%.2f "
                  "(need >= %.1f) worker_speedup=%.2f (need >= %.1f) "
                  "restart_identical=%d deterministic=%d net_identical=%d "
                  "shed_total=%llu",
                  batch_speedup, kMinBatchSpeedup, load_speedup,
                  kMinLoadSpeedup, worker_speedup, worker_floor,
                  restart_identical, deterministic, net_identical,
                  static_cast<unsigned long long>(shed_total));
    bench_failed(why);
  }
  return 0;
}
