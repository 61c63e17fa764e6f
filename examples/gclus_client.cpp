// Remote load generator for the query-service network front end — the
// client half of scripts/test_net_soak.sh.
//
//   $ ./gclus_client --port-file=/tmp/port --dataset=mesh --queries=20000
//
//   --port=N                server port on 127.0.0.1
//   --port-file=PATH        poll PATH (written by gclus_serve) for the
//                           port instead; waits up to ~20s to appear
//   --graph=PATH            the graph the server is serving (edge-list
//   --dataset=NAME          text or CSR v2) — needed to size the query
//                           stream; exactly one is required
//   --artifacts=PATH        oracle artifact sidecar, for --verify
//                           (default: <graph>.orc / gclus_<dataset>.orc)
//   --verify                load the artifact locally and replay every
//                           answered batch through an in-process
//                           QueryEngine: any byte difference is exit 4 —
//                           the end-to-end proof that the wire answers
//                           are the engine's answers
//   --queries=N --batch=N   stream shape (defaults 10000 / 512)
//   --zipf=F --seed=N       stream content (defaults 0.8 / 11); the same
//                           triple on two clients names the same stream
//   --start-file=PATH       print "ready" on stderr after setup, then
//                           hold until PATH exists — lets a harness start
//                           several clients streaming at the same instant
//
// The final line is machine-readable:  answered=N refused=M
// (batches).  A server drain mid-stream is a *normal* outcome — refused
// batches exit 0; the soak harness asserts sum(answered) across clients
// equals the server's results_sent, i.e. no accepted batch was lost.
// Exit codes: 1 usage, 2 environment/Status failure (could not reach the
// server at all), 4 verification mismatch.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "graph/io.hpp"
#include "net/client.hpp"
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
  std::fprintf(stderr, "gclus_client: %s\n", st.to_string().c_str());
  std::exit(2);
}

/// Polls the port file gclus_serve publishes (atomic rename, so any
/// readable content is complete).
std::uint16_t wait_for_port_file(const std::string& path) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    std::ifstream in(path);
    std::string text;
    if (in >> text) {
      const StatusOr<std::uint64_t> port = parse_u64(text);
      if (port.ok() && *port > 0 && *port <= 65535) {
        return static_cast<std::uint16_t>(*port);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::fprintf(stderr, "gclus_client: no port appeared in %s\n", path.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path;
  std::string dataset;
  std::string artifact_path;
  std::string port_file;
  bool verify = false;
  std::uint64_t port = 0;
  bool have_port = false;
  std::uint64_t num_queries = 10000;
  std::uint64_t batch = 512;
  double zipf = 0.8;
  std::uint64_t seed = 11;
  std::string start_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
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
    if (key == "port") {
      port = parse_u64_or_die(key, value);
      have_port = true;
    } else if (key == "port-file") {
      port_file = value;
    } else if (key == "graph") {
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
    } else if (key == "zipf") {
      zipf = parse_double_or_die(key, value);
    } else if (key == "seed") {
      seed = parse_u64_or_die(key, value);
    } else if (key == "start-file") {
      start_file = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return 1;
    }
  }
  if (have_port == !port_file.empty()) {
    std::fprintf(stderr,
                 "exactly one of --port=N or --port-file=PATH is required\n");
    return 1;
  }
  if (have_port && (port == 0 || port > 65535)) {
    std::fprintf(stderr, "--port=%llu is not a TCP port\n",
                 static_cast<unsigned long long>(port));
    return 1;
  }
  if (graph_path.empty() == dataset.empty()) {
    std::fprintf(stderr,
                 "exactly one of --graph=PATH or --dataset=NAME is required\n");
    return 1;
  }

  // ---- the graph (to size the stream; with --verify, also the engine) ----
  Graph g;
  if (!dataset.empty()) {
    g = workloads::load_dataset(dataset).graph;
    if (artifact_path.empty()) artifact_path = "gclus_" + dataset + ".orc";
  } else {
    StatusOr<Graph> loaded = io::is_csr_file(graph_path)
                                 ? io::load_csr(graph_path)
                                 : io::load_edge_list(graph_path);
    if (!loaded.ok()) die_status(loaded.status());
    g = std::move(loaded).value();
    if (artifact_path.empty()) artifact_path = graph_path + ".orc";
  }
  const NodeId n = g.num_nodes();

  StatusOr<server::QueryEngine> replay = InvalidArgumentError("unused");
  if (verify) {
    // Strictly load — a client that silently rebuilt a *different*
    // decomposition would report false mismatches.
    replay = server::QueryEngine::load(g, artifact_path);
    if (!replay.ok()) die_status(replay.status());
  }
  g = Graph();  // the replay engine needs only its artifact

  const std::uint16_t resolved_port =
      have_port ? static_cast<std::uint16_t>(port)
                : wait_for_port_file(port_file);
  auto client = net::Client::connect(resolved_port);
  if (!client.ok()) die_status(client.status());

  const std::vector<server::Query> stream =
      gclus_cli::make_queries(n, num_queries, zipf, seed);

  // Rendezvous for multi-process harnesses: all the expensive setup is
  // done, announce readiness and hold at the start line so concurrent
  // clients begin streaming together.
  if (!start_file.empty()) {
    std::fprintf(stderr, "ready\n");
    std::fflush(stderr);
    for (int attempt = 0; attempt < 6000; ++attempt) {
      if (std::ifstream(start_file).good()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  server::QueryScratch scratch;
  std::vector<ClusterId> neighborhood_buf;
  std::uint64_t answered = 0;
  std::uint64_t refused = 0;
  for (std::size_t off = 0; off < stream.size(); off += batch) {
    const std::size_t end = std::min(stream.size(), off + batch);
    const std::vector<server::Query> qs(
        stream.begin() + static_cast<long>(off),
        stream.begin() + static_cast<long>(end));
    const auto results = client->submit(qs);
    if (!results.ok()) {
      // The drain notice (or the reset that follows it) — a normal end of
      // service, not an environment failure.  Whatever is left of the
      // stream will never be accepted; count it refused and stop.
      refused += (stream.size() - off + batch - 1) / batch;
      std::fprintf(stderr, "gclus_client: stream ended early: %s\n",
                   results.status().to_string().c_str());
      break;
    }
    if (results->size() != qs.size()) {
      std::fprintf(stderr,
                   "gclus_client: %zu answers for %zu queries at offset %zu\n",
                   results->size(), qs.size(), off);
      return 4;
    }
    if (verify) {
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const server::QueryResult local = server::execute_query(
            *replay, qs[i], scratch, neighborhood_buf);
        if (local != (*results)[i]) {
          std::fprintf(stderr,
                       "gclus_client: answer mismatch at query %zu: wire "
                       "(code=%u value=%llu) vs local (code=%u value=%llu)\n",
                       off + i, static_cast<unsigned>((*results)[i].code),
                       static_cast<unsigned long long>((*results)[i].value),
                       static_cast<unsigned>(local.code),
                       static_cast<unsigned long long>(local.value));
          return 4;
        }
      }
    }
    ++answered;
    if (answered == 1) {
      // Progress marker for multi-process harnesses (the soak test waits
      // for it before signalling the server, so the SIGTERM is guaranteed
      // to land mid-stream).
      std::fprintf(stderr, "streaming\n");
      std::fflush(stderr);
    }
  }
  std::printf("answered=%llu refused=%llu\n",
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(refused));
  return 0;
}
