// CLI front-end of the decomposition query service — load a graph once,
// build or mmap the oracle artifact sidecar, and drive the concurrent
// query server against it.
//
//   $ ./gclus_serve --graph=edges.txt --build-artifacts
//   $ ./gclus_serve --graph=edges.txt --queries=100000 --workers=8
//
//   --graph=PATH            input graph: edge-list text or CSR v2
//                           (auto-sniffed, mmap-ed when possible)
//   --dataset=NAME          a workloads registry dataset instead of a file
//   --artifacts=PATH        oracle artifact sidecar (default: <graph>.orc)
//   --build-artifacts       decompose, publish the sidecar, and exit
//   --require-artifact      refuse to serve unless the sidecar loads —
//                           proves a restart skipped the decomposition;
//                           a refused sidecar is left as it is (no
//                           eviction, rebuild or republish)
//   --queries=N             total queries to serve (default 10000)
//   --batch=N               queries per submitted batch (default 512)
//   --workers=N             worker threads (0 = GCLUS_SERVER_WORKERS/4)
//   --queue-depth=N         max queued batches (0 = env/128)
//   --seed=N --tau=N        decomposition knobs (tau 0 = auto)
//   --zipf=F                query skew: sources ~ rank^-F (0 = uniform)
//   --fail-on-shed          exit 3 if any batch was shed
//   --listen=PORT           serve remote clients on 127.0.0.1:PORT instead
//                           of a local query stream (0 = ephemeral port);
//                           the artifact sidecar is watched for republish
//                           and hot-reloaded (GCLUS_NET_WATCH_MS).
//                           SIGTERM/SIGINT drain gracefully: every
//                           accepted batch is answered, then exit 0.
//   --port-file=PATH        atomically publish the bound port (for
//                           clients racing an ephemeral --listen=0)
//
// Exit codes follow decompose_file: 1 for usage errors, 2 for Status
// failures (one-line diagnostic on stderr), 3 for a violated serving
// contract (--fail-on-shed / --require-artifact).  CI's server smoke step
// runs --build-artifacts, then serves with both contract flags on; the
// network soak test (scripts/test_net_soak.sh) drives --listen with
// concurrent gclus_client processes and a mid-stream SIGTERM.
#include <csignal>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/run_context.hpp"
#include "common/faultpoint.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "graph/io.hpp"
#include "net/server.hpp"
#include "query_workload.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"
#include "workloads/datasets.hpp"

namespace {

using namespace gclus;

std::uint64_t parse_u64_or_die(const std::string& key,
                               const std::string& value) {
  const StatusOr<std::uint64_t> v = parse_u64(value);
  if (!v.ok()) {
    std::fprintf(stderr, "--%s=%s is not an unsigned integer\n", key.c_str(),
                 value.c_str());
    std::exit(1);
  }
  return *v;
}

double parse_double_or_die(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || v < 0) {
    std::fprintf(stderr, "--%s=%s is not a nonnegative number\n", key.c_str(),
                 value.c_str());
    std::exit(1);
  }
  return v;
}

[[noreturn]] void die_status(const Status& st) {
  std::fprintf(stderr, "gclus_serve: %s\n", st.to_string().c_str());
  std::exit(2);
}

using gclus_cli::make_queries;

// The SIGTERM/SIGINT target: request_drain() is async-signal-safe (an
// atomic store plus one self-pipe write), so the handler may call it
// directly.  Published only after the NetServer is fully constructed.
std::atomic<net::NetServer*> g_drain_target{nullptr};

extern "C" void handle_drain_signal(int) {
  if (net::NetServer* s = g_drain_target.load()) s->request_drain();
}

/// Publishes the bound port for clients to discover — atomically, so a
/// poller never reads a partial write.
void write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) die_status(status_from_errno(errno, tmp));
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    die_status(status_from_errno(errno, path));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path;
  std::string dataset;
  std::string artifact_path;
  bool build_artifacts = false;
  bool require_artifact = false;
  bool fail_on_shed = false;
  std::uint64_t num_queries = 10000;
  std::uint64_t batch = 512;
  double zipf = 0.8;
  bool listen = false;
  std::uint16_t listen_port = 0;
  std::string port_file;
  server::ServerOptions server_opts;
  DistanceOracleOptions oracle_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--build-artifacts") {
      build_artifacts = true;
      continue;
    }
    if (arg == "--require-artifact") {
      require_artifact = true;
      continue;
    }
    if (arg == "--fail-on-shed") {
      fail_on_shed = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "unknown argument %s (flags are --KEY=VALUE)\n",
                   arg.c_str());
      return 1;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "graph") {
      graph_path = value;
    } else if (key == "dataset") {
      dataset = value;
    } else if (key == "artifacts") {
      artifact_path = value;
    } else if (key == "queries") {
      num_queries = parse_u64_or_die(key, value);
    } else if (key == "batch") {
      batch = parse_u64_or_die(key, value);
      if (batch == 0) {
        std::fprintf(stderr, "--batch must be positive\n");
        return 1;
      }
    } else if (key == "workers") {
      server_opts.workers =
          static_cast<std::size_t>(parse_u64_or_die(key, value));
    } else if (key == "queue-depth") {
      server_opts.queue_depth =
          static_cast<std::size_t>(parse_u64_or_die(key, value));
    } else if (key == "seed") {
      oracle_opts.seed = parse_u64_or_die(key, value);
    } else if (key == "tau") {
      oracle_opts.tau = static_cast<std::uint32_t>(parse_u64_or_die(key, value));
    } else if (key == "zipf") {
      zipf = parse_double_or_die(key, value);
    } else if (key == "listen") {
      const std::uint64_t port = parse_u64_or_die(key, value);
      if (port > 65535) {
        std::fprintf(stderr, "--listen=%llu is not a TCP port\n",
                     static_cast<unsigned long long>(port));
        return 1;
      }
      listen = true;
      listen_port = static_cast<std::uint16_t>(port);
    } else if (key == "port-file") {
      port_file = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return 1;
    }
  }
  if (graph_path.empty() == dataset.empty()) {
    std::fprintf(stderr,
                 "exactly one of --graph=PATH or --dataset=NAME is required\n");
    return 1;
  }

  // ---- load the graph (mmap-ed CSR v2 when the input allows it) ----
  Graph g;
  if (!dataset.empty()) {
    g = workloads::load_dataset(dataset).graph;
    if (artifact_path.empty()) {
      artifact_path = "gclus_" + dataset + ".orc";
    }
  } else {
    StatusOr<Graph> loaded = io::is_csr_file(graph_path)
                                 ? io::load_csr(graph_path)
                                 : io::load_edge_list(graph_path);
    if (!loaded.ok()) die_status(loaded.status());
    g = std::move(loaded).value();
    if (artifact_path.empty()) artifact_path = graph_path + ".orc";
  }
  std::printf("graph: %u nodes, %llu edges\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  RecordingTelemetry telemetry;
  oracle_opts.telemetry = &telemetry;

  // ---- --build-artifacts: decompose, publish, exit ----
  if (build_artifacts) {
    Timer t;
    auto engine = server::QueryEngine::build(g, oracle_opts);
    if (!engine.ok()) die_status(engine.status());
    const double build_s = t.elapsed_s();
    if (const Status st = engine->save(artifact_path); !st.ok()) {
      die_status(st);
    }
    std::printf(
        "built oracle artifact in %.3fs: %u clusters, max radius %u\n",
        build_s, engine->num_clusters(), engine->max_radius());
    for (const auto& [key, value] : telemetry.events()) {
      std::printf("  telemetry %-28s %.6g\n", key.c_str(), value);
    }
    std::printf("published %s\n", artifact_path.c_str());
    return 0;
  }

  // ---- obtain the engine: sidecar fast path, else build + republish ----
  Timer t_load;
  server::QueryEngine::LoadReport report;
  auto engine = require_artifact
                    ? server::QueryEngine::load(g, artifact_path)
                    : server::QueryEngine::load_or_build(g, artifact_path,
                                                         oracle_opts, &report);
  if (require_artifact) {
    if (!engine.ok()) {
      std::fprintf(stderr,
                   "gclus_serve: --require-artifact but the sidecar at %s did "
                   "not serve: %s\n",
                   artifact_path.c_str(), engine.status().to_string().c_str());
      return 3;
    }
    report.loaded_from_artifact = true;
  }
  if (!engine.ok()) die_status(engine.status());
  const double engine_s = t_load.elapsed_s();
  g = Graph();  // the engine serves (and hot-reloads) from its artifact alone
  std::printf(
      "engine: %u clusters, max radius %u, %s in %.3fs%s%s\n",
      engine->num_clusters(), engine->max_radius(),
      report.loaded_from_artifact ? "loaded from artifact" : "built",
      engine_s, report.evicted_corrupt ? " (evicted corrupt sidecar)" : "",
      report.rebuilt && report.republished ? " (republished)" : "");

  // ---- network mode: serve remote clients until a drain signal ----
  if (listen) {
    server::QueryServer server(
        std::make_shared<const server::QueryEngine>(std::move(engine).value()),
        server_opts);
    net::NetServerOptions net_opts;
    net_opts.port = listen_port;
    net_opts.watch_artifact_path = artifact_path;
    auto nserver = net::NetServer::start(server, std::move(net_opts));
    if (!nserver.ok()) die_status(nserver.status());

    struct sigaction sa{};
    sa.sa_handler = handle_drain_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    g_drain_target.store(nserver->get());

    std::printf("listening on 127.0.0.1:%u (%zu workers, watching %s)\n",
                (*nserver)->port(), server.num_workers(),
                artifact_path.c_str());
    std::fflush(stdout);
    if (!port_file.empty()) write_port_file(port_file, (*nserver)->port());

    // Parks until SIGTERM/SIGINT, then answers everything in flight.
    (*nserver)->drain();
    g_drain_target.store(nullptr);

    const net::NetServerStats net_stats = (*nserver)->stats();
    const server::ServerStats stats = server.stats();
    std::printf(
        "drained: connections=%llu frames_in=%llu results_sent=%llu "
        "errors_sent=%llu bad_frames=%llu reloads=%llu\n",
        static_cast<unsigned long long>(net_stats.connections_accepted),
        static_cast<unsigned long long>(net_stats.frames_in),
        static_cast<unsigned long long>(net_stats.results_sent),
        static_cast<unsigned long long>(net_stats.errors_sent),
        static_cast<unsigned long long>(net_stats.bad_frames),
        static_cast<unsigned long long>(net_stats.reloads));
    std::printf("  queries served %llu (invalid %llu)\n",
                static_cast<unsigned long long>(stats.queries_served),
                static_cast<unsigned long long>(stats.invalid_queries));
    server.shutdown();  // safe only after drain() returned
    return 0;
  }

  // ---- serve ----
  const std::vector<server::Query> stream =
      make_queries(engine->num_nodes(), num_queries, zipf, oracle_opts.seed);
  server::QueryServer server(*engine, server_opts);
  std::printf("serving %llu queries (batch %llu, zipf %.2f) on %zu workers, "
              "queue depth %zu\n",
              static_cast<unsigned long long>(num_queries),
              static_cast<unsigned long long>(batch), zipf,
              server.num_workers(), server.queue_depth());

  Timer t_serve;
  std::vector<server::QueryServer::Ticket> tickets;
  tickets.reserve(stream.size() / batch + 1);
  for (std::size_t off = 0; off < stream.size(); off += batch) {
    const std::size_t end = std::min(stream.size(), off + batch);
    // The blocking path: a full queue parks this producer until a worker
    // frees a slot.  try_submit/shedding is for clients that would rather
    // drop load than wait — a load generator wants backpressure, and
    // --fail-on-shed then certifies the queue never overflowed.
    auto ticket =
        server.submit({stream.begin() + static_cast<long>(off),
                       stream.begin() + static_cast<long>(end)});
    if (!ticket.ok()) die_status(ticket.status());
    tickets.push_back(std::move(ticket).value());
  }
  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  std::uint64_t ok_answers = 0;
  for (const auto& ticket : tickets) {
    for (const auto& r : ticket.wait()) {
      if (r.code == StatusCode::kOk) ++ok_answers;
    }
    latencies.push_back(ticket.latency_s());
  }
  const double serve_s = t_serve.elapsed_s();
  server.shutdown();

  const server::ServerStats stats = server.stats();
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    if (latencies.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1));
    return latencies[idx];
  };
  std::printf("served %llu queries in %.3fs: %.0f queries/s\n",
              static_cast<unsigned long long>(stats.queries_served), serve_s,
              static_cast<double>(stats.queries_served) / serve_s);
  std::printf("  batch latency p50 %.0fus  p99 %.0fus\n", pct(0.5) * 1e6,
              pct(0.99) * 1e6);
  std::printf("  ok %llu  invalid %llu  shed batches %llu (%llu queries)\n",
              static_cast<unsigned long long>(ok_answers),
              static_cast<unsigned long long>(stats.invalid_queries),
              static_cast<unsigned long long>(stats.shed_batches),
              static_cast<unsigned long long>(stats.shed_queries));
  for (const auto& [name, count] : fault::triggered_counters()) {
    std::printf("  fault     %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (fail_on_shed && stats.shed_batches > 0) {
    std::fprintf(stderr, "gclus_serve: --fail-on-shed but %llu batches shed\n",
                 static_cast<unsigned long long>(stats.shed_batches));
    return 3;
  }
  return 0;
}
