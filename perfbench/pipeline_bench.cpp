// pipeline_bench — input generator and measured process of the end-to-end
// pipeline benchmark (driven by perfbench/run.py).
//
//   pipeline_bench gen --workload W --seed S --dir D
//       Writes the workload's inputs into D: graph.txt (edge-list text) and,
//       for serve-roads, queries.bin (the fixed query stream).  Runs in its
//       own process so generator time and memory never reach the metrics.
//
//   pipeline_bench run --workload W --seed S --dir D --seconds T --trace 0|1
//       Reads only D's files.  Repeats the set-up (edge-list text → CSR v2
//       write → mmap load, plus the oracle and server for serve-roads),
//       runs an untimed warm-up, then ops for T seconds, then checks every
//       answer outside the timed window.  The last stdout line is one JSON
//       object: end-to-end metrics with --trace 0, per-layer metrics with
//       --trace 1 (which also writes D/trace.json).
//
// Workloads (see BENCHMARK.json for why each exists):
//   road-diameter   op = cluster(g, τ=1) + diameter_from_clustering
//   social-kcenter  op = kcenter_approx(g, k=16)
//   serve-roads     op = one 256-query batch round trip over loopback GQRP
//
// Concurrency is pinned here, not by environment: a 3-thread ThreadPool
// reaches every algorithm through RunContext::pool, the query server runs
// 2 workers, and 2 client threads drive it in a closed loop.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/run_context.hpp"
#include "baselines/gonzalez.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/diameter.hpp"
#include "core/distance_oracle.hpp"
#include "core/kcenter.hpp"
#include "core/quotient.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/weighted.hpp"
#include "graph/wire.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "par/thread_pool.hpp"
#include "server/artifact.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"
#include "query_workload.hpp"
#include "trace.hpp"

namespace {

using namespace gclus;
using perfbench::now_ns;
using perfbench::Scope;
using perfbench::Tracer;

constexpr std::size_t kPoolThreads = 3;
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kQueueDepth = 64;  // > kClients: a closed loop never sheds
constexpr std::size_t kBatch = 256;
constexpr std::size_t kStreamBatches = 2048;
constexpr double kZipf = 0.8;
constexpr NodeId kCenters = 16;
// road-diameter and social-kcenter solve with kAlgoSeeds algorithm seeds in
// turn.  Solve time and answer quality both depend on the seed (cluster
// count, merged parts); cycling through several keeps one unlucky seed
// from moving a run's op times.
constexpr std::size_t kAlgoSeeds = 4;
constexpr std::uint32_t kRoadTau = 1;
constexpr std::uint32_t kOracleTau = 64;
constexpr int kStretchSources = 16;

// p10_ms is this quantile of the op times, not their median.  Every op of a
// run does the same work, so a slower op only adds interference from other
// tenants of the host.  On a shared 4-vCPU machine that interference moved
// whole runs' medians by 20-30% for minutes at a time; the lower decile
// moved about half as much.
constexpr double kOpQuantile = 0.1;

// Set-up repetitions; setup_s is their median.
constexpr int kGraphSetups = 5;
constexpr int kServeSetups = 3;

// Seed tags: every input and algorithm stream derives from --seed.
constexpr std::uint64_t kTagAlgo = 0xBE01;
constexpr std::uint64_t kTagStream = 0xBE02;
constexpr std::uint64_t kTagStretch = 0xBE03;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "pipeline_bench: %s\n", why.c_str());
  std::exit(3);
}

template <typename T>
T value_or_fail(StatusOr<T> r, const char* what) {
  if (!r.ok()) fail(std::string(what) + ": " + r.status().to_string());
  return std::move(r).value();
}

void ok_or_fail(const Status& s, const char* what) {
  if (!s.ok()) fail(std::string(what) + ": " + s.to_string());
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) fail("usage: pipeline_bench gen|run --workload W --seed S --dir D");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--dir") a.dir = v;
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else fail("unknown flag " + k);
  }
  if (a.workload != "road-diameter" && a.workload != "social-kcenter" &&
      a.workload != "serve-roads") {
    fail("unknown workload '" + a.workload + "'");
  }
  if (a.dir.empty()) fail("--dir is required");
  return a;
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MB
    }
  }
  return 0;
}

// ---- result line ------------------------------------------------------------

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  void note(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    info.emplace_back(key, buf);
  }
  /// A failed answer check: counted into `failed`, described on stderr.
  void problem(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }

  void print() const {
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
      out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + unit + "\"}";
    }
    out += "}, \"info\": {";
    for (std::size_t i = 0; i < info.size(); ++i) {
      out += (i ? ", \"" : "\"") + info[i].first + "\": " + info[i].second;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }
};

// ---- query stream -----------------------------------------------------------

using Batch = std::vector<server::Query>;

/// The canonical serving mix of the serving CLIs (examples/
/// query_workload.hpp), cut into kStreamBatches batches of kBatch queries
/// and stored as GQRP query-batch frames, one after another.
void write_stream(const std::string& path, NodeId n, std::uint64_t seed) {
  const std::vector<server::Query> qs =
      gclus_cli::make_queries(n, kStreamBatches * kBatch, kZipf, seed);
  std::ofstream out(path, std::ios::binary);
  for (std::size_t b = 0; b < kStreamBatches; ++b) {
    const auto first = qs.begin() + static_cast<std::ptrdiff_t>(b * kBatch);
    const std::vector<std::uint8_t> frame =
        net::encode_query_batch(Batch(first, first + kBatch));
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  if (!out) fail("cannot write " + path);
}

/// Reads the stream back through decode_frame, which validates every frame.
std::vector<Batch> read_stream(const std::string& path, NodeId n) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(bytes.data());
  std::vector<Batch> stream;
  std::size_t off = 0;
  while (off + net::kLenPrefixSize <= bytes.size()) {
    const auto len = io::wire::read_le_at<std::uint32_t>(p + off);
    off += net::kLenPrefixSize;
    if (len > bytes.size() - off) fail("truncated frame in " + path);
    auto frame = net::decode_frame(reinterpret_cast<const std::uint8_t*>(p + off), len);
    if (!frame.ok() || frame->type != net::FrameType::kQueryBatch ||
        frame->queries.size() != kBatch) {
      fail("bad query frame in " + path);
    }
    for (const server::Query& q : frame->queries) {
      if (q.u >= n) fail("query node out of range in " + path);
    }
    stream.push_back(std::move(frame->queries));
    off += len;
  }
  if (off != bytes.size() || stream.size() != kStreamBatches) {
    fail(path + " does not hold " + std::to_string(kStreamBatches) + " frames");
  }
  return stream;
}

// ---- gen ----------------------------------------------------------------------

int cmd_gen(const Args& a) {
  const Graph g = a.workload == "social-kcenter"
                      ? largest_component(gen::rmat(NodeId{1} << 19,
                                                    EdgeId{8} << 19, a.seed))
                            .graph
                      : gen::road_like(1400, 1400, 0.08, 0.02, a.seed);
  io::write_edge_list_file(g, a.dir + "/graph.txt");
  if (a.workload == "serve-roads") {
    write_stream(a.dir + "/queries.bin", g.num_nodes(),
                 derive_seed(a.seed, kTagStream));
  }
  std::fprintf(stderr, "generated %s: n=%u m=%llu\n", a.workload.c_str(),
               g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

// ---- set-up -----------------------------------------------------------------

/// Edge-list text → CSR v2 file → mmap load with verification.
Graph load_graph(const std::string& dir, ThreadPool& pool, Tracer& tr) {
  Graph parsed;
  {
    Scope s(tr, "io.parse");
    parsed = value_or_fail(io::load_edge_list(dir + "/graph.txt", pool),
                           "load_edge_list");
  }
  {
    Scope s(tr, "io.csr_write");
    ok_or_fail(io::write_csr(parsed, dir + "/graph.csr"), "write_csr");
  }
  Scope s(tr, "io.csr_load");
  io::CsrLoadOptions lo;
  lo.mode = io::CsrLoadMode::kMmap;
  lo.verify = true;
  return value_or_fail(io::load_csr(dir + "/graph.csr", lo), "load_csr");
}

/// `reps` times: tears the previous repetition down with `reset`, untimed,
/// then runs `setup` under a "setup" span.  Returns the set-up wall times
/// (s).  The result of the last repetition is kept by the caller.
std::vector<double> repeat_setup(int reps, Tracer& tr,
                                 const std::function<void()>& reset,
                                 const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    reset();
    const std::int64_t t0 = now_ns();
    {
      Scope s(tr, "setup");
      setup();
    }
    times.push_back((now_ns() - t0) / 1e9);
  }
  return times;
}

// ---- timed loop -------------------------------------------------------------

/// One untimed warm-up round, then rounds until `seconds` have elapsed.  A
/// round calls solve(j) once for each algorithm seed j < kAlgoSeeds, so
/// every run weighs the seeds equally.  Returns each call's wall time (ms).
std::vector<double> timed_rounds(double seconds,
                                 const std::function<void(std::size_t)>& solve) {
  for (std::size_t j = 0; j < kAlgoSeeds; ++j) solve(j);  // warm-up
  std::vector<double> ms;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  do {
    for (std::size_t j = 0; j < kAlgoSeeds; ++j) {
      const std::int64_t t0 = now_ns();
      solve(j);
      ms.push_back((now_ns() - t0) / 1e6);
    }
  } while (now_ns() - start < budget);
  return ms;
}

/// Per-layer metric values by name.  Every workload prints every name in
/// layer_names(); a layer the workload never calls reads 0.
using Layers = std::map<std::string, double>;

double telemetry_or_zero(const RecordingTelemetry& t, const char* key) {
  return t.has(key) ? t.value(key) : 0.0;
}

/// cluster.* counts as CLUSTER emitted them to its telemetry sink.
void cluster_layers(Layers& L, const RecordingTelemetry& tel) {
  for (const char* key : {"cluster.growth_steps", "cluster.iterations",
                          "cluster.clusters", "cluster.max_radius"}) {
    L[key] = telemetry_or_zero(tel, key);
  }
}

void common_info(Report& r, const Graph& g) {
  r.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  r.note("pool_threads", static_cast<double>(kPoolThreads));
  r.note("global_pool_threads",
         static_cast<double>(ThreadPool::global().num_threads()));
  r.note("nodes", static_cast<double>(g.num_nodes()));
  r.note("edges", static_cast<double>(g.num_edges()));
}

const std::vector<std::pair<std::string, std::string>>& layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"io.parse_ms", "ms"},          {"io.parse_mb_per_s", "MB/s"},
      {"io.csr_write_ms", "ms"},      {"io.csr_load_ms", "ms"},
      {"cluster.ms", "ms"},           {"cluster.growth_steps", "count"},
      {"cluster.iterations", "count"}, {"cluster.clusters", "count"},
      {"cluster.max_radius", "hops"}, {"cluster2.ms", "ms"},
      {"quotient.build_ms", "ms"},    {"quotient.nodes", "count"},
      {"quotient.edges", "count"},    {"diameter.unweighted_ms", "ms"},
      {"diameter.weighted_ms", "ms"}, {"components.ms", "ms"},
      {"bfs.multi_source_ms", "ms"},  {"bfs.padding_ms", "ms"},
      {"kcenter.ms", "ms"},           {"kcenter.raw_clusters", "count"},
      {"kcenter.tau", "count"},       {"kcenter.residual_ms", "ms"},
      {"oracle.build_ms", "ms"},      {"oracle.apsp_residual_ms", "ms"},
      {"oracle.quotient_nodes", "count"}, {"artifact.write_ms", "ms"},
      {"artifact.load_ms", "ms"},     {"artifact.bytes", "bytes"},
      {"server.start_ms", "ms"},      {"engine.ns_per_query", "ns"},
      {"engine.ns_distance", "ns"},   {"engine.ns_same_cluster", "ns"},
      {"engine.ns_neighborhood", "ns"}, {"queue.p50_us", "us"},
      {"queue.p99_us", "us"},         {"queue.qps_1w", "1/s"},
      {"queue.qps_2w", "1/s"},        {"queue.shed_batches", "count"},
      {"queue.batches_served", "count"}, {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.rtt_p50_us", "us"},       {"net.rtt_p99_us", "us"},
      {"net.transport_us", "us"},     {"net.frames_in", "count"},
      {"net.results_sent", "count"},  {"net.errors_sent", "count"},
      {"net.bad_frames", "count"},    {"trace.overhead_frac", "ratio"},
      {"trace.op_coverage", "ratio"}, {"trace.setup_coverage", "ratio"},
  };
  return names;
}

void emit_layers(Report& r, const Layers& layers) {
  for (const auto& [name, unit] : layer_names()) {
    const auto it = layers.find(name);
    r.metric(name, it == layers.end() ? 0.0 : it->second, unit);
  }
}

/// io.* metrics: medians over the set-up repetitions.
void io_layers(Layers& L, const Tracer& tr, double text_bytes) {
  const double parse = median(tr.durations_ms("io.parse"));
  L["io.parse_ms"] = parse;
  L["io.parse_mb_per_s"] = text_bytes / 1e6 / (parse / 1e3);
  L["io.csr_write_ms"] = median(tr.durations_ms("io.csr_write"));
  L["io.csr_load_ms"] = median(tr.durations_ms("io.csr_load"));
  L["trace.setup_coverage"] = median(tr.coverage("setup"));
}

double file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<double>(in.tellg()) : 0.0;
}

// ---- road-diameter ----------------------------------------------------------

int run_road(const Args& a, Report& rep) {
  ThreadPool pool(kPoolThreads);
  Tracer tr(a.trace);
  Graph g;
  const std::vector<double> setups = repeat_setup(
      kGraphSetups, tr, [&] { g = Graph(); }, [&] { g = load_graph(a.dir, pool, tr); });

  ClusterOptions copts;
  copts.pool = &pool;
  // Per algorithm seed: every distinct upper bound seen, and the last answer.
  std::vector<std::set<std::uint64_t>> estimates(kAlgoSeeds);
  std::vector<DiameterApprox> answer(kAlgoSeeds);
  auto record = [&](std::size_t j, const DiameterApprox& d) {
    answer[j] = d;
    estimates[j].insert(d.upper_bound);
    ++rep.attempted;
  };
  auto solve = [&](std::size_t j) {
    copts.seed = derive_seed(a.seed, kTagAlgo + j);
    const Clustering c = cluster(g, kRoadTau, copts);
    record(j, diameter_from_clustering(g, c));
  };

  Layers L;
  std::vector<double> ms;
  if (!a.trace) {
    ms = timed_rounds(a.seconds, solve);
  } else {
    // Each solve runs once untraced, then traced with its replays, so the
    // two op medians compare like with like: trace.overhead_frac.
    RecordingTelemetry tel;
    std::vector<double> plain;
    // trace.op_coverage is the replays' total over the ops' total: single
    // solves on a shared host vary by tens of percent, too much for a
    // per-solve ratio.
    double op_total = 0, attributed_total = 0;
    ms = timed_rounds(a.seconds, [&](std::size_t j) {
      copts.telemetry = nullptr;
      const std::int64_t t0 = now_ns();
      solve(j);
      plain.push_back((now_ns() - t0) / 1e6);
      copts.telemetry = &tel;
      Clustering c;
      int op = tr.begin("op");
      {
        Scope s1(tr, "cluster");
        c = cluster(g, kRoadTau, copts);
      }
      {
        Scope s2(tr, "diameter");
        record(j, diameter_from_clustering(g, c));
      }
      tr.end(op);
      // Replay the three calls diameter_from_clustering makes.
      QuotientGraph q;
      {
        Scope s(tr, "quotient.build");
        q = build_quotient(g, c, /*with_weights=*/true);
      }
      {
        Scope s(tr, "diameter.unweighted");
        (void)exact_diameter(q.graph);
      }
      {
        Scope s(tr, "diameter.weighted");
        (void)weighted_diameter_exact(q.weighted);
      }
      op_total += tr.durations_ms("op").back();
      for (const char* call : {"cluster", "quotient.build", "diameter.unweighted",
                               "diameter.weighted"}) {
        attributed_total += tr.durations_ms(call).back();
      }
      L["quotient.nodes"] = q.graph.num_nodes();
      L["quotient.edges"] = static_cast<double>(q.graph.num_edges());
    });
    L["cluster.ms"] = median(tr.durations_ms("cluster"));
    L["quotient.build_ms"] = median(tr.durations_ms("quotient.build"));
    L["diameter.unweighted_ms"] = median(tr.durations_ms("diameter.unweighted"));
    L["diameter.weighted_ms"] = median(tr.durations_ms("diameter.weighted"));
    cluster_layers(L, tel);
    L["trace.op_coverage"] = attributed_total / op_total;
    L["trace.overhead_frac"] = median(tr.durations_ms("op")) / median(plain) - 1.0;
  }

  // Answer checks, outside the timed window.
  const Dist lower = double_sweep_lower_bound(g);
  double ratio_sum = 0;
  for (std::size_t j = 0; j < kAlgoSeeds; ++j) {
    if (estimates[j].size() != 1) {
      rep.problem("diameter estimate differs across ops of one seed");
    }
    if (answer[j].upper_bound < lower) {
      rep.problem("upper bound " + std::to_string(answer[j].upper_bound) +
                  " below the double-sweep lower bound " + std::to_string(lower));
    }
    ratio_sum += static_cast<double>(answer[j].upper_bound) / std::max<Dist>(lower, 1);
  }
  common_info(rep, g);
  rep.note("rounds", static_cast<double>(ms.size() / kAlgoSeeds));
  rep.note("upper_bound_seed0", static_cast<double>(answer[0].upper_bound));
  rep.note("lower_bound", lower);
  rep.note("clusters_seed0", answer[0].num_clusters);

  if (!a.trace) {
    rep.metric("setup_s", median(setups), "s");
    rep.metric("p10_ms", percentile(ms, kOpQuantile), "ms");
    rep.note("p50_ms", median(ms));
    rep.note("solves_per_s", 1e3 * static_cast<double>(ms.size()) / sum(ms));
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("approx_ratio", ratio_sum / kAlgoSeeds, "ratio");
  } else {
    io_layers(L, tr, file_bytes(a.dir + "/graph.txt"));
    emit_layers(rep, L);
    if (!tr.write_json(a.dir + "/trace.json")) fail("cannot write trace.json");
  }
  return 0;
}

// ---- social-kcenter ---------------------------------------------------------

/// The node kcenter_approx's padding picks from one sweep: the lowest-id
/// node at the largest finite distance (kInvalidNode if all are 0).
NodeId farthest(const std::vector<Dist>& dist) {
  NodeId best = kInvalidNode;
  Dist best_d = 0;
  for (std::size_t v = 0; v < dist.size(); ++v) {
    if (dist[v] != kInfDist && dist[v] > best_d) {
      best_d = dist[v];
      best = static_cast<NodeId>(v);
    }
  }
  return best;
}

int run_social(const Args& a, Report& rep) {
  ThreadPool pool(kPoolThreads);
  Tracer tr(a.trace);
  Graph g;
  const std::vector<double> setups = repeat_setup(
      kGraphSetups, tr, [&] { g = Graph(); }, [&] { g = load_graph(a.dir, pool, tr); });

  // The radius is a small integer, so one seed's radius jumps between
  // inputs; the mean over the kAlgoSeeds seeds moves only with the
  // algorithm.
  KCenterOptions kopts;
  kopts.pool = &pool;
  // Per algorithm seed: every distinct (centers, radius) answer seen.
  std::vector<std::map<std::vector<NodeId>, Dist>> answers(kAlgoSeeds);
  KCenterResult last;
  auto solve = [&](std::size_t j) {
    kopts.seed = derive_seed(a.seed, kTagAlgo + j);
    last = kcenter_approx(g, kCenters, kopts);
    answers[j].emplace(last.centers, last.radius);
    ++rep.attempted;
  };

  Layers L;
  std::vector<double> ms;
  if (!a.trace) {
    ms = timed_rounds(a.seconds, solve);
  } else {
    // Each solve runs once untraced, then traced with its replays, so the
    // two op medians compare like with like: trace.overhead_frac.
    RecordingTelemetry tel;
    std::vector<double> plain, op_ms, residual, padding;
    double op_total = 0, attributed_total = 0;  // as on road-diameter
    ms = timed_rounds(a.seconds, [&](std::size_t j) {
      const std::int64_t p0 = now_ns();
      solve(j);
      plain.push_back((now_ns() - p0) / 1e6);
      const std::int64_t t0 = now_ns();
      {
        Scope s(tr, "kcenter");
        solve(j);
      }
      const double op_t = (now_ns() - t0) / 1e6;
      // Replay the layer calls kcenter_approx is made of, with the same
      // arguments: components, CLUSTER at the τ it chose, the quotient
      // (only built when merging), one multi-source BFS per padded center,
      // and the final evaluation BFS.
      {
        Scope s(tr, "components");
        (void)connected_components(g);
      }
      ClusterOptions copts;
      copts.context() = kopts.context();
      copts.telemetry = &tel;
      Clustering c;
      {
        Scope s(tr, "cluster");
        c = cluster(g, last.tau, copts);
      }
      double quotient_ms = 0;
      if (c.num_clusters() > kCenters) {
        const std::int64_t q0 = now_ns();
        Scope s(tr, "quotient.build");
        const QuotientGraph q = build_quotient(g, c, /*with_weights=*/false);
        L["quotient.nodes"] = q.graph.num_nodes();
        L["quotient.edges"] = static_cast<double>(q.graph.num_edges());
        quotient_ms = (now_ns() - q0) / 1e6;
      }
      // The farthest-first padding appended centers[i] as the node
      // farthest from centers[0..i), one multi_source_bfs each, after the
      // merged part centers.  A padded node may itself be a cluster
      // center, so the padded indices are found by replaying the sweeps
      // backwards while each picks the center kcenter_approx appended.  A
      // part center that happens to be its prefix's farthest node would
      // count one sweep too many; a padded one is never missed.
      double padding_ms = 0;
      for (std::size_t i = kCenters - 1; i > 0; --i) {
        const std::vector<NodeId> prefix(
            last.centers.begin(), last.centers.begin() + static_cast<std::ptrdiff_t>(i));
        const std::int64_t p0 = now_ns();
        const std::vector<Dist> dist = multi_source_bfs(g, prefix);
        const std::int64_t p1 = now_ns();
        if (farthest(dist) != last.centers[i]) break;
        tr.add("bfs.padding", p0, p1);
        padding_ms += (p1 - p0) / 1e6;
      }
      {
        Scope s(tr, "bfs.multi_source");
        std::vector<std::uint32_t> owner;
        (void)multi_source_bfs(g, last.centers, &owner);
      }
      const double comp = tr.durations_ms("components").back();
      const double clus = tr.durations_ms("cluster").back();
      const double msb = tr.durations_ms("bfs.multi_source").back();
      op_ms.push_back(op_t);
      residual.push_back(op_t - comp - clus - quotient_ms - msb);
      padding.push_back(padding_ms);
      op_total += op_t;
      attributed_total += comp + clus + quotient_ms + padding_ms + msb;
    });
    L["bfs.padding_ms"] = median(padding);
    L["kcenter.ms"] = median(op_ms);
    L["kcenter.raw_clusters"] = last.raw_clusters;
    L["kcenter.tau"] = last.tau;
    L["kcenter.residual_ms"] = median(residual);
    L["components.ms"] = median(tr.durations_ms("components"));
    L["cluster.ms"] = median(tr.durations_ms("cluster"));
    L["bfs.multi_source_ms"] = median(tr.durations_ms("bfs.multi_source"));
    if (!tr.durations_ms("quotient.build").empty()) {
      L["quotient.build_ms"] = median(tr.durations_ms("quotient.build"));
    }
    cluster_layers(L, tel);
    L["trace.op_coverage"] = attributed_total / op_total;
    L["trace.overhead_frac"] = median(op_ms) / median(plain) - 1.0;
  }

  // Answer checks, outside the timed window.
  double radius_sum = 0;
  for (const auto& by_answer : answers) {
    if (by_answer.size() != 1) {
      rep.problem("k-center answer differs across ops of one seed");
    }
    radius_sum += by_answer.begin()->second;
    for (const auto& [centers, radius] : by_answer) {
      const std::set<NodeId> distinct(centers.begin(), centers.end());
      if (centers.size() != kCenters || distinct.size() != kCenters ||
          *distinct.rbegin() >= g.num_nodes()) {
        rep.problem("center set is not " + std::to_string(kCenters) +
                    " distinct nodes");
        continue;
      }
      const Dist exact = evaluate_centers(g, centers).first;
      if (exact != radius) {
        rep.problem("reported radius " + std::to_string(radius) +
                    " != recomputed " + std::to_string(exact));
      }
    }
  }
  common_info(rep, g);
  rep.note("rounds", static_cast<double>(ms.size() / kAlgoSeeds));
  const double mean_radius = radius_sum / kAlgoSeeds;
  const Dist gonzalez = baselines::gonzalez_kcenter(g, kCenters).radius;
  rep.note("kcenter_radius_mean", mean_radius);
  rep.note("gonzalez_radius", gonzalez);
  rep.note("raw_clusters", last.raw_clusters);

  if (!a.trace) {
    rep.metric("setup_s", median(setups), "s");
    rep.metric("p10_ms", percentile(ms, kOpQuantile), "ms");
    rep.note("p50_ms", median(ms));
    rep.note("solves_per_s", 1e3 * static_cast<double>(ms.size()) / sum(ms));
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("approx_ratio", mean_radius / std::max<Dist>(gonzalez, 1), "ratio");
  } else {
    io_layers(L, tr, file_bytes(a.dir + "/graph.txt"));
    emit_layers(rep, L);
    if (!tr.write_json(a.dir + "/trace.json")) fail("cannot write trace.json");
  }
  return 0;
}

// ---- serve-roads ------------------------------------------------------------

struct Serving {
  Graph g;
  std::shared_ptr<const server::QueryEngine> engine;
  std::unique_ptr<server::QueryServer> qserver;
  std::unique_ptr<net::NetServer> net;

  void stop() {
    net.reset();  // drains: every accepted batch is answered first
    if (qserver) qserver->shutdown();
    qserver.reset();
    engine.reset();
  }
};

using Answers = std::vector<std::vector<server::QueryResult>>;

struct WindowResult {
  std::vector<double> rtt_us;
  std::uint64_t batches = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  double seconds = 0;
};

/// Closed loop: kClients threads, each with its own connection, replay
/// their share of the stream cyclically for `seconds`, one batch in
/// flight per client.  Each answer is compared with `expected`.
WindowResult serve_window(std::uint16_t port, const std::vector<Batch>& stream,
                          const Answers& expected, double seconds) {
  std::vector<WindowResult> per(kClients);
  std::vector<net::Client> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(value_or_fail(net::Client::connect(port), "connect"));
  }
  std::atomic<bool> go{false};
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t start = 0;
  std::vector<std::int64_t> finish(kClients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      WindowResult& w = per[c];
      w.rtt_us.reserve(1 << 20);
      for (std::size_t i = c;; i += kClients) {
        const std::size_t b = i % kStreamBatches;
        const std::int64_t t0 = now_ns();
        auto r = clients[c].submit(stream[b]);
        const std::int64_t t1 = now_ns();
        w.rtt_us.push_back((t1 - t0) / 1e3);
        ++w.batches;
        if (!r.ok()) {
          ++w.errors;
        } else if (*r != expected[b]) {
          ++w.mismatches;
        }
        if (t1 - start >= budget) {
          finish[c] = t1;
          break;
        }
      }
    });
  }
  start = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  WindowResult out;
  for (const WindowResult& w : per) {
    out.rtt_us.insert(out.rtt_us.end(), w.rtt_us.begin(), w.rtt_us.end());
    out.batches += w.batches;
    out.errors += w.errors;
    out.mismatches += w.mismatches;
  }
  out.seconds = (*std::max_element(finish.begin(), finish.end()) - start) / 1e9;
  return out;
}

/// In-process queue probe: kClients submitter threads, submit → wait, no
/// socket, for `seconds`.
struct QueueProbe {
  std::vector<double> latency_us;
  double qps = 0;
};

QueueProbe probe_queue(std::shared_ptr<const server::QueryEngine> engine,
                       std::size_t workers, const std::vector<Batch>& stream,
                       double seconds) {
  server::ServerOptions so;
  so.workers = workers;
  so.queue_depth = kQueueDepth;
  server::QueryServer qs(std::move(engine), so);
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::uint64_t> queries(kClients, 0);
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t start = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c;; i += kClients) {
        const std::int64_t t0 = now_ns();
        auto ticket = qs.submit(stream[i % kStreamBatches]);
        if (!ticket.ok()) break;
        (void)ticket->wait();
        const std::int64_t t1 = now_ns();
        lat[c].push_back((t1 - t0) / 1e3);
        queries[c] += kBatch;
        if (t1 - start >= budget) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = (now_ns() - start) / 1e9;
  QueueProbe p;
  for (std::size_t c = 0; c < kClients; ++c) {
    p.latency_us.insert(p.latency_us.end(), lat[c].begin(), lat[c].end());
    p.qps += static_cast<double>(queries[c]);
  }
  p.qps /= elapsed;
  return p;
}

/// Clock stamps (ns) of one traced batch round trip, taken by the client
/// thread and the server thread of its connection, in causal order.
struct BatchStamps {
  std::int64_t start = 0;     ///< client: encode_query_batch begins
  std::int64_t sent = 0;      ///< client: write_frame begins
  std::int64_t read = 0;      ///< server: read_frame returned
  std::int64_t decoded = 0;   ///< server: decode_frame returned
  std::int64_t answered = 0;  ///< server: Ticket::wait returned
  std::int64_t encoded = 0;   ///< server: write_frame begins
  std::int64_t received = 0;  ///< client: read_frame returned
  std::int64_t end = 0;       ///< client: decode_frame returned
};

struct TracedWindow {
  std::vector<BatchStamps> batches;  ///< answered batches
  std::uint64_t errors = 0;          ///< batches that got no answer
  std::uint64_t mismatches = 0;
};

/// The traced serving window.  NetServer's connection loop is internal, so
/// here each connection is served by the benchmark's own copy of that loop,
/// made of the same public calls on the same QueryServer (wait_readable →
/// read_frame → decode_frame → submit → Ticket::wait → encode_result_batch
/// → write_frame), and each of the kClients clients makes the calls
/// Client::submit makes (encode_query_batch → write_frame → read_frame →
/// decode_frame).  Both sides stamp the clock between calls, so a batch
/// splits into phases that leave no gap.
TracedWindow traced_window(server::QueryServer& qs, const std::vector<Batch>& stream,
                           const Answers& expected, double seconds) {
  net::Listener listener =
      value_or_fail(net::Listener::bind_loopback(0), "bind_loopback");
  std::vector<net::Socket> clients, conns;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(value_or_fail(net::connect_loopback(listener.port()),
                                    "connect_loopback"));
    conns.emplace_back(::accept(listener.fd(), nullptr, nullptr));
    if (!conns.back().valid()) fail("accept failed");
    const int one = 1;  // as NetServer sets on its connections
    (void)::setsockopt(conns.back().fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  std::vector<std::vector<BatchStamps>> client_side(kClients), server_side(kClients);
  std::vector<std::uint64_t> errors(kClients, 0), mismatches(kClients, 0);
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t start = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {  // server side of connection c
      std::vector<std::uint8_t> payload;
      for (;;) {
        const StatusOr<bool> readable = net::wait_readable(conns[c].fd(), 100);
        if (!readable.ok()) break;
        if (!*readable) continue;
        const StatusOr<bool> got = net::read_frame(conns[c], payload);
        if (!got.ok() || !*got) break;  // the client closed: window over
        BatchStamps s;
        s.read = now_ns();
        StatusOr<net::Frame> frame = net::decode_frame(payload.data(), payload.size());
        s.decoded = now_ns();
        if (!frame.ok()) break;
        auto ticket = qs.submit(std::move(frame->queries));
        if (!ticket.ok()) break;
        const std::vector<server::QueryResult>& results = ticket->wait();
        s.answered = now_ns();
        const std::vector<std::uint8_t> reply = net::encode_result_batch(results);
        s.encoded = now_ns();
        server_side[c].push_back(s);
        if (!net::write_frame(conns[c], reply.data(), reply.size()).ok()) break;
      }
      conns[c].close();  // a client still waiting sees the close, not a hang
    });
    threads.emplace_back([&, c] {  // client c
      std::vector<std::uint8_t> payload;
      for (std::size_t i = c;; i += kClients) {
        const std::size_t b = i % kStreamBatches;
        BatchStamps t;
        t.start = now_ns();
        const std::vector<std::uint8_t> request = net::encode_query_batch(stream[b]);
        t.sent = now_ns();
        if (!net::write_frame(clients[c], request.data(), request.size()).ok()) {
          ++errors[c];
          break;
        }
        const StatusOr<bool> got = net::read_frame(clients[c], payload);
        t.received = now_ns();
        if (!got.ok() || !*got) {
          ++errors[c];
          break;
        }
        const StatusOr<net::Frame> frame = net::decode_frame(payload.data(), payload.size());
        t.end = now_ns();
        if (!frame.ok() || frame->type != net::FrameType::kResultBatch) {
          ++errors[c];
          break;
        }
        if (frame->results != expected[b]) ++mismatches[c];
        client_side[c].push_back(t);
        if (t.end - start >= budget) break;
      }
      clients[c].close();  // the server side sees a clean close and ends
    });
  }
  for (std::thread& t : threads) t.join();
  // One batch in flight per connection: the k-th answer a client received
  // is the k-th frame its server side stamped.
  TracedWindow out;
  for (std::size_t c = 0; c < kClients; ++c) {
    out.errors += errors[c];
    out.mismatches += mismatches[c];
    for (std::size_t k = 0; k < client_side[c].size(); ++k) {
      BatchStamps s = client_side[c][k];
      const BatchStamps& srv = server_side[c][k];
      s.read = srv.read;
      s.decoded = srv.decoded;
      s.answered = srv.answered;
      s.encoded = srv.encoded;
      out.batches.push_back(s);
    }
  }
  return out;
}

int run_serve(const Args& a, Report& rep) {
  ThreadPool pool(kPoolThreads);
  Tracer tr(a.trace);
  const std::string orc = a.dir + "/oracle.orc";
  std::uint64_t oracle_clusters = 0;
  DistanceOracleOptions oopts;
  oopts.tau = kOracleTau;
  oopts.use_cluster2 = true;
  oopts.seed = derive_seed(a.seed, kTagAlgo);
  oopts.pool = &pool;

  Serving sv;
  const std::vector<double> setups = repeat_setup(
      kServeSetups, tr, [&] { sv.stop(); sv.g = Graph(); }, [&] {
    sv.g = load_graph(a.dir, pool, tr);
    server::OracleArtifact art;
    {
      Scope s(tr, "oracle.build");
      art = server::build_oracle_artifact(sv.g, oopts);
    }
    {
      Scope s(tr, "artifact.write");
      ok_or_fail(server::write_oracle_artifact(art, orc), "write_oracle_artifact");
    }
    oracle_clusters = art.meta.num_clusters;
    {
      Scope s(tr, "artifact.load");
      sv.engine = std::make_shared<const server::QueryEngine>(value_or_fail(
          server::QueryEngine::load(Graph(sv.g), orc), "QueryEngine::load"));
    }
    Scope s(tr, "server.start");
    server::ServerOptions so;
    so.workers = kServerWorkers;
    so.queue_depth = kQueueDepth;
    sv.qserver = std::make_unique<server::QueryServer>(sv.engine, so);
    sv.net = value_or_fail(net::NetServer::start(*sv.qserver), "NetServer::start");
  });
  const std::uint16_t port = sv.net->port();

  // Reference answers from an engine loaded independently from the
  // published artifact, executed serially.
  const std::vector<Batch> stream = read_stream(a.dir + "/queries.bin", sv.g.num_nodes());
  const server::QueryEngine reference = value_or_fail(
      server::QueryEngine::load(Graph(sv.g), orc), "reference QueryEngine::load");
  Answers expected(kStreamBatches);
  {
    server::QueryScratch scratch;
    std::vector<ClusterId> buf;
    for (std::size_t b = 0; b < kStreamBatches; ++b) {
      for (const server::Query& q : stream[b]) {
        expected[b].push_back(server::execute_query(reference, q, scratch, buf));
      }
    }
  }

  Layers L;
  const WindowResult warm = serve_window(port, stream, expected, 0.5);
  const double window_s = a.trace ? a.seconds * 0.3 : a.seconds;
  const WindowResult w = serve_window(port, stream, expected, window_s);
  const std::uint64_t net_sent = warm.batches + w.batches;  // through NetServer
  std::uint64_t sent = net_sent;
  std::uint64_t bad = warm.errors + warm.mismatches + w.errors + w.mismatches;
  if (a.trace) {
    // One span per traced batch round trip, split into its phases; the
    // threads keep their clock stamps and the spans are added afterwards.
    const int window = tr.begin("serve.traced_window");
    const TracedWindow tw = traced_window(*sv.qserver, stream, expected, 0.5);
    tr.end(window);
    sent += tw.batches.size() + tw.errors;
    bad += tw.errors + tw.mismatches;
    std::vector<double> batch_us, encode_us, decode_us, transport_us;
    for (const BatchStamps& s : tw.batches) {
      const int batch = tr.add("serve.batch", s.start, s.end, window);
      tr.add("net.client_encode", s.start, s.sent, batch);
      tr.add("net.socket_in", s.sent, s.read, batch);
      tr.add("net.server_decode", s.read, s.decoded, batch);
      tr.add("queue.submit_wait", s.decoded, s.answered, batch);
      tr.add("net.server_encode", s.answered, s.encoded, batch);
      tr.add("net.socket_out", s.encoded, s.received, batch);
      tr.add("net.client_decode", s.received, s.end, batch);
      batch_us.push_back((s.end - s.start) / 1e3);
      encode_us.push_back((s.sent - s.start + s.encoded - s.answered) / 1e3);
      decode_us.push_back((s.decoded - s.read + s.end - s.received) / 1e3);
      transport_us.push_back((s.read - s.sent + s.received - s.encoded) / 1e3);
    }
    const double rtt50 = median(w.rtt_us);
    L["net.rtt_p50_us"] = rtt50;
    L["net.rtt_p99_us"] = percentile(w.rtt_us, 0.99);
    L["net.encode_us"] = median(encode_us);
    L["net.decode_us"] = median(decode_us);
    L["net.transport_us"] = median(transport_us);
    L["trace.op_coverage"] = median(tr.coverage("serve.batch"));
    L["trace.overhead_frac"] = median(batch_us) / rtt50 - 1.0;

    // Oracle build replays (median of kServeSetups, like the build): CLUSTER2
    // on the oracle's derived seed, then the weighted quotient; the rest of
    // the build is APSP and packaging.
    ClusterOptions copts;
    copts.context() = oopts.context();
    copts.seed = derive_seed(oopts.seed, kSeedTagOracleBuild);
    RecordingTelemetry tel;
    copts.telemetry = &tel;
    for (int r = 0; r < kServeSetups; ++r) {
      Cluster2Result c2;
      {
        Scope s(tr, "cluster2");
        c2 = cluster2(sv.g, kOracleTau, copts);
      }
      Scope s(tr, "quotient.build");
      const QuotientGraph q = build_quotient(sv.g, c2.clustering, true);
      L["quotient.nodes"] = q.graph.num_nodes();
      L["quotient.edges"] = static_cast<double>(q.graph.num_edges());
    }
    const double build = median(tr.durations_ms("oracle.build"));
    const double c2ms = median(tr.durations_ms("cluster2"));
    const double qms = median(tr.durations_ms("quotient.build"));
    L["cluster2.ms"] = c2ms;
    L["quotient.build_ms"] = qms;
    L["oracle.build_ms"] = build;
    L["oracle.apsp_residual_ms"] = build - c2ms - qms;
    L["oracle.quotient_nodes"] = static_cast<double>(oracle_clusters);
    L["cluster.clusters"] = telemetry_or_zero(tel, "cluster2.clusters");
    L["cluster.max_radius"] = telemetry_or_zero(tel, "cluster2.max_radius");
    L["artifact.write_ms"] = median(tr.durations_ms("artifact.write"));
    L["artifact.load_ms"] = median(tr.durations_ms("artifact.load"));
    L["artifact.bytes"] = file_bytes(orc);
    L["server.start_ms"] = median(tr.durations_ms("server.start"));

    // Engine: serial execute_query over the stream, all kinds and per kind.
    {
      Scope s(tr, "engine.serial");
      server::QueryScratch scratch;
      std::vector<ClusterId> buf;
      std::uint64_t sink = 0;
      auto ns_per = [&](int kind) {
        std::vector<double> reps;
        for (int r = 0; r < 3; ++r) {
          std::uint64_t count = 0;
          const std::int64_t t0 = now_ns();
          for (const Batch& b : stream) {
            for (const server::Query& q : b) {
              if (kind >= 0 && static_cast<int>(q.kind) != kind) continue;
              sink += server::execute_query(*sv.engine, q, scratch, buf).value;
              ++count;
            }
          }
          reps.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(std::max<std::uint64_t>(count, 1)));
        }
        return median(reps);
      };
      L["engine.ns_per_query"] = ns_per(-1);
      L["engine.ns_distance"] = ns_per(0);
      L["engine.ns_same_cluster"] = ns_per(1);
      L["engine.ns_neighborhood"] = ns_per(2);
      if (sink == 0) std::fprintf(stderr, "engine sink is 0\n");
    }

    // Queue without sockets, at 1 and 2 workers.
    QueueProbe q1, q2;
    {
      Scope s(tr, "queue.probe_1w");
      q1 = probe_queue(sv.engine, 1, stream, a.seconds * 0.15);
    }
    {
      Scope s(tr, "queue.probe_2w");
      q2 = probe_queue(sv.engine, kServerWorkers, stream, a.seconds * 0.15);
    }
    L["queue.p50_us"] = median(q2.latency_us);
    L["queue.p99_us"] = percentile(q2.latency_us, 0.99);
    L["queue.qps_1w"] = q1.qps;
    L["queue.qps_2w"] = q2.qps;
    L["queue.shed_batches"] = static_cast<double>(sv.qserver->stats().shed_batches);
    L["queue.batches_served"] = static_cast<double>(sv.qserver->stats().batches_served);
  }

  // Server-side accounting, then the stretch check, outside the timed window.
  const server::ServerStats qstats = sv.qserver->stats();
  sv.net->request_drain();
  sv.net->drain();  // joins the connection threads, so the counters are final
  const net::NetServerStats nstats = sv.net->stats();
  rep.attempted = sent;
  if (bad != 0) rep.problem("batches failed or differ from serial execute_query", bad);
  if (qstats.shed_batches != 0) rep.problem("server shed batches");
  if (nstats.results_sent != net_sent) {
    rep.problem("server sent " + std::to_string(nstats.results_sent) +
                " results for " + std::to_string(net_sent) + " batches");
  }
  if (a.trace) {
    L["net.frames_in"] = static_cast<double>(nstats.frames_in);
    L["net.results_sent"] = static_cast<double>(nstats.results_sent);
    L["net.errors_sent"] = static_cast<double>(nstats.errors_sent);
    L["net.bad_frames"] = static_cast<double>(nstats.bad_frames);
  }

  Rng rng(derive_seed(a.seed, kTagStretch));
  double stretch_sum = 0;
  std::uint64_t pairs = 0;
  for (int i = 0; i < kStretchSources; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(sv.g.num_nodes()));
    const std::vector<Dist> d = bfs_distances(sv.g, s);
    for (NodeId v = 0; v < sv.g.num_nodes(); ++v) {
      if (v == s) continue;
      const auto approx = reference.approx_distance(s, v);
      if (!approx.ok() || *approx < d[v]) {
        rep.problem("oracle answer below the exact distance");
        break;
      }
      stretch_sum += static_cast<double>(*approx) / d[v];
      ++pairs;
    }
  }
  const double stretch = stretch_sum / static_cast<double>(std::max<std::uint64_t>(pairs, 1));

  common_info(rep, sv.g);
  rep.note("server_workers", kServerWorkers);
  rep.note("clients", kClients);
  rep.note("batch", kBatch);
  rep.note("batches", static_cast<double>(w.batches));
  rep.note("qps", static_cast<double>(w.batches * kBatch) / w.seconds);
  rep.note("p50_ms", median(w.rtt_us) / 1e3);
  rep.note("p99_ms", percentile(w.rtt_us, 0.99) / 1e3);
  rep.note("results_sent", static_cast<double>(nstats.results_sent));
  rep.note("clusters", static_cast<double>(oracle_clusters));

  if (!a.trace) {
    rep.metric("setup_s", median(setups), "s");
    rep.metric("p10_ms", percentile(w.rtt_us, kOpQuantile) / 1e3, "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("approx_ratio", stretch, "ratio");
  } else {
    io_layers(L, tr, file_bytes(a.dir + "/graph.txt"));
    emit_layers(rep, L);
    if (!tr.write_json(a.dir + "/trace.json")) fail("cannot write trace.json");
  }
  sv.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.mode == "gen") return cmd_gen(a);
  if (a.mode != "run") fail("unknown mode '" + a.mode + "'");
  Report rep;
  int rc = 0;
  if (a.workload == "road-diameter") rc = run_road(a, rep);
  else if (a.workload == "social-kcenter") rc = run_social(a, rep);
  else rc = run_serve(a, rep);
  rep.print();
  return rc;
}
