// The fault-injection capstone: every registered fault point is forced —
// one-shot and persistently — against the four I/O-facing subsystems
// (CSR v2 round-trip, the MR out-of-core shuffle, the dataset cache, the
// oracle artifact sidecar), asserting the process never aborts: each run either returns a clean
// error Status or completes in degraded mode with output byte-identical
// to the fault-free reference.  A header/payload bit-flip sweep covers
// silent on-disk corruption the same way, an end-to-end mr.cluster run
// pins the degraded-shuffle partition to the fault-free one, every mr.*
// algorithm returns lost spilled data through Registry::run, and seeded
// mutation sweeps feed mutated files of every binary layout to every file
// loader, mutated wire frames to net::decode_frame and mutated edge-list
// text to the parallel parser, in memory and through the file loader.
//
// CI greps this binary's "fault points triggered:", "decoder mutations:",
// "frame mutations:" and "text mutations:" lines, and the sweep asserts
// every point fired, so neither a sweep nor a single point can silently
// become a no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "common/faultpoint.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "graph/bfs.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/wire.hpp"
#include "mapreduce/engine.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "par/thread_pool.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"
#include "test_util.hpp"
#include "workloads/datasets.hpp"

namespace gclus {
namespace {

namespace fs = std::filesystem;

// Installed before main(): the persistent-fault sweeps exhaust retry
// loops hundreds of times and must not sleep through the backoffs.
const bool kFastRetries = [] {
  ::setenv("GCLUS_IO_BACKOFF_US", "0", 1);
  return true;
}();

const std::string& sweep_dir() {
  static const std::string dir = [] {
    const std::string d = ::testing::TempDir() + "gclus_fault_sweep";
    std::error_code ec;
    fs::remove_all(d, ec);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t le64_at(const std::vector<char>& bytes, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
  }
  return v;
}

// --- Scenario 1: CSR v2 write + load round-trip. -----------------------------
// Contract under injection: the write fails cleanly, the load fails
// cleanly, or the loaded graph is byte-identical to what was written.
void run_csr_scenario(const Graph& ref, const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // a stale file must not mask a failed write
  const Status wst = io::write_csr(ref, path);
  if (!wst.ok()) {
    EXPECT_FALSE(wst.message().empty());
    return;
  }
  for (const io::CsrLoadMode mode :
       {io::CsrLoadMode::kAuto, io::CsrLoadMode::kCopy}) {
    io::CsrLoadOptions opts;
    opts.mode = mode;
    const auto loaded = io::load_csr(path, opts);
    if (loaded.ok()) {
      EXPECT_TRUE(testutil::same_csr(*loaded, ref));
    } else {
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

// --- Scenario 2: one spilling MR round. --------------------------------------
using KV = std::pair<std::uint32_t, std::uint64_t>;

std::vector<KV> mr_input() {
  std::vector<KV> input;
  input.reserve(3000);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    input.emplace_back(static_cast<std::uint32_t>(mix64(i) % 13), i);
  }
  return input;
}

StatusOr<std::vector<KV>> run_mr(const std::string& primary,
                                 const std::string& fallback) {
  ThreadPool pool(2);
  mr::Config cfg;
  cfg.pool = &pool;
  cfg.num_partitions = 8;
  cfg.spill_memory_bytes = 1 << 10;  // tiny: every run spills
  cfg.spill_dir = primary;
  cfg.spill_fallback_dir = fallback;
  mr::Engine engine(cfg);
  return engine.round<std::uint32_t, std::uint64_t, std::uint32_t,
                      std::uint64_t>(
      mr_input(),
      [](const std::uint32_t& k, std::span<std::uint64_t> vs,
         mr::Emitter<std::uint32_t, std::uint64_t>& emit) {
        std::uint64_t sum = 0;
        for (const auto v : vs) sum += v;
        emit.emit(k, sum);
      },
      [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; });
}

// --- Scenario 3: the dataset cache. ------------------------------------------
// The cache degrades through every failure (corrupt entry, failed write,
// failed publish): it must always hand back the built graph.
void run_cache_scenario(const std::string& cache_dir, const std::string& key) {
  ::setenv("GCLUS_DATASET_CACHE_DIR", cache_dir.c_str(), 1);
  const Graph ref = gen::grid(12, 12);
  const auto build = [] { return gen::grid(12, 12); };
  EXPECT_TRUE(testutil::same_csr(workloads::cached_graph(key, build), ref));
  // Second call: the hit path (or eviction + rebuild under injection).
  EXPECT_TRUE(testutil::same_csr(workloads::cached_graph(key, build), ref));
  ::unsetenv("GCLUS_DATASET_CACHE_DIR");
}

// --- Scenario 4: the oracle artifact sidecar. --------------------------------
// load_or_build must always hand back a working engine whose answers are
// byte-identical to the fault-free build: a failed or corrupt load is
// evicted and rebuilt, and a failed republish only costs the *next*
// restart its fast path — never the caller its engine.
DistanceOracleOptions artifact_opts() {
  DistanceOracleOptions opts;
  opts.seed = 11;
  opts.tau = 4;
  return opts;
}

std::vector<std::uint64_t> artifact_answers(const server::QueryEngine& e) {
  std::vector<std::uint64_t> out;
  for (NodeId u = 0; u < e.num_nodes(); u += 7) {
    for (NodeId v = 0; v < e.num_nodes(); v += 5) {
      const auto d = e.approx_distance(u, v);
      EXPECT_TRUE(d.ok());
      out.push_back(d.ok() ? *d : ~std::uint64_t{0});
    }
  }
  return out;
}

// --- Scenario 5: the network front end. --------------------------------------
// One full wire round trip (connect, send a query-batch frame, read the
// result frame) under injection.  net.accept drops the freshly accepted
// socket, net.read/net.write fail the frame I/O as transient
// kUnavailable; the client's bounded retry either recovers (one-shot
// faults) with answers byte-identical to the in-process reference, or
// gives up with a clean escalated Status (persistent faults) — the server
// process survives every variant.
std::vector<server::Query> net_queries(NodeId n) {
  std::vector<server::Query> qs;
  for (NodeId u = 0; u < n; ++u) {
    qs.push_back({server::QueryKind::kApproxDistance, u, (u * 7 + 3) % n});
    qs.push_back({server::QueryKind::kSameCluster, u, (u * 5 + 1) % n});
    qs.push_back({server::QueryKind::kClusterNeighborhood, u, 1 + u % 3});
  }
  return qs;
}

void run_net_scenario(net::NetServer& nserver,
                      const std::vector<server::Query>& qs,
                      const std::vector<server::QueryResult>& ref) {
  auto client = net::Client::connect(nserver.port());
  if (!client.ok()) {
    EXPECT_FALSE(client.status().message().empty());
    return;
  }
  const auto got = client->submit(qs);
  if (got.ok()) {
    EXPECT_EQ(*got, ref);
  } else {
    EXPECT_FALSE(got.status().message().empty());
  }
}

void run_artifact_scenario(const Graph& g,
                           const std::vector<std::uint64_t>& ref,
                           const std::string& path) {
  // Two rounds: the first typically rebuilds (no sidecar yet), the second
  // exercises the load path against whatever the first one published.
  for (int round = 0; round < 2; ++round) {
    const auto engine =
        server::QueryEngine::load_or_build(Graph(g), path, artifact_opts());
    ASSERT_TRUE(engine.ok()) << engine.status().to_string();
    EXPECT_EQ(artifact_answers(*engine), ref);
  }
}

// A sidecar of the previous format version (1: FNV-1a checksum, no graph
// checksum) is refused at its header; load_or_build evicts it and
// republishes a current one, the same bytes a fresh save writes.
TEST(ArtifactVersions, VersionOneSidecarIsEvictedAndRebuilt) {
  fault::disarm_all();
  const Graph g = gen::ring_of_cliques(6, 5);
  const std::string path = sweep_dir() + "/version-one.orc";
  const auto fresh = server::QueryEngine::build(Graph(g), artifact_opts());
  ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
  ASSERT_TRUE(fresh->save(path).ok());
  const std::vector<char> current = slurp(path);
  ASSERT_EQ(current[8], 2);  // version word, little-endian

  std::vector<char> old = current;
  old[8] = 1;
  std::fill(old.begin() + 136, old.begin() + 144, 0);  // reserved in v1
  spit(path, old);
  EXPECT_TRUE(testutil::fails_with(server::load_oracle_artifact(path).status(),
                                   StatusCode::kInvalidArgument,
                                   "unsupported artifact version"));

  server::QueryEngine::LoadReport rep;
  const auto engine = server::QueryEngine::load_or_build(
      Graph(g), path, artifact_opts(), &rep);
  ASSERT_TRUE(engine.ok()) << engine.status().to_string();
  EXPECT_FALSE(rep.loaded_from_artifact);
  EXPECT_TRUE(rep.evicted_corrupt);
  EXPECT_TRUE(rep.rebuilt);
  EXPECT_TRUE(rep.republished);
  EXPECT_EQ(artifact_answers(*engine), artifact_answers(*fresh));
  EXPECT_EQ(slurp(path), current);
}

TEST(FaultSweep, EveryPointFailsCleanlyOrDegrades) {
  ASSERT_TRUE(kFastRetries);
  fault::disarm_all();
  fault::reset_counters();
  const std::string& base = sweep_dir();
  const Graph csr_ref = gen::ring_of_cliques(6, 5);

  const auto mr_ref = run_mr(base + "/mr-ref-p", base + "/mr-ref-f");
  ASSERT_TRUE(mr_ref.ok()) << mr_ref.status().to_string();

  const auto art_ref_engine =
      server::QueryEngine::build(Graph(csr_ref), artifact_opts());
  ASSERT_TRUE(art_ref_engine.ok()) << art_ref_engine.status().to_string();
  const std::vector<std::uint64_t> art_ref = artifact_answers(*art_ref_engine);

  // One live NetServer shared across the sweep: the same process must keep
  // serving after every injected network failure.
  auto net_engine = std::make_shared<const server::QueryEngine>(
      server::QueryEngine::build(Graph(csr_ref), artifact_opts()).value());
  server::QueryServer net_qserver(net_engine);
  auto nserver = net::NetServer::start(net_qserver);
  ASSERT_TRUE(nserver.ok()) << nserver.status().to_string();
  const std::vector<server::Query> net_qs = net_queries(csr_ref.num_nodes());
  const auto net_ref_ticket = net_qserver.submit(net_qs).value();
  const std::vector<server::QueryResult> net_ref = net_ref_ticket.wait();

  const std::pair<const char*, fault::FaultSpec> modes[] = {
      {"once", fault::FaultSpec::once()},
      {"always", fault::FaultSpec::always()},
  };
  for (const char* name : fault::all_fault_points()) {
    for (const auto& [tag, spec] : modes) {
      SCOPED_TRACE(std::string(name) + ":" + tag);
      const std::string stem = base + "/" + name + "-" + tag;
      fault::arm(name, spec);
      run_csr_scenario(csr_ref, stem + ".csr2");
      const auto mr_out = run_mr(stem + "-p", stem + "-f");
      if (mr_out.ok()) {
        EXPECT_EQ(*mr_out, *mr_ref);
      } else {
        EXPECT_FALSE(mr_out.status().message().empty());
      }
      run_cache_scenario(base + "/cache", std::string("k-") + name + "-" + tag);
      run_artifact_scenario(csr_ref, art_ref, stem + ".orc");
      run_net_scenario(**nserver, net_qs, net_ref);
      fault::disarm_all();
    }
    // The sweep is only a sweep if forcing the point actually reached it.
    EXPECT_GT(fault::trigger_count(name), 0u) << name;
  }

  const auto triggered = fault::triggered_counters();
  EXPECT_EQ(triggered.size(), fault::all_fault_points().size());
  // CI greps for this exact prefix and asserts a nonzero count.
  std::printf("fault points triggered: %zu\n", triggered.size());
}

// End-to-end degradation on a registered algorithm: with the spill
// directory unusable the MR engine keeps the shuffle in memory, and the
// resulting partition must match the fault-free run exactly.
TEST(FaultSweep, MrClusterIsByteIdenticalUnderSpillDegradation) {
  fault::disarm_all();
  const Graph g = gen::ring_of_cliques(24, 16);
  AlgoParams params;
  params.set("tau", "16");
  params.set("spill_bytes", "8192");
  const auto run_once = [&] {
    RunContext ctx;
    ctx.seed = 7;
    return registry().run("mr.cluster", g, params, ctx).value();
  };

  const Clustering clean = run_once();
  fault::arm("spill.mkdir", fault::FaultSpec::always());
  const Clustering degraded = run_once();
  fault::disarm_all();

  EXPECT_EQ(degraded.assignment, clean.assignment);
  EXPECT_EQ(degraded.centers, clean.centers);
  EXPECT_EQ(degraded.radius, clean.radius);
  EXPECT_EQ(degraded.sizes, clean.sizes);
}

// Lost spilled data cannot be degraded around: a persistent read, seek or
// flush failure must come back from Registry::run as a non-OK Status for
// every mr.* algorithm, never abort.  Fault-free, the same spilling runs
// equal the shared-memory partitions (and BFS distances).
TEST(FaultSweep, MrAlgorithmsReturnSpillDataLossThroughRegistry) {
  fault::disarm_all();
  const Graph g = gen::ring_of_cliques(24, 16);
  ThreadPool pool(2);
  const auto params_for = [](const std::string& algo) {
    AlgoParams p;
    if (algo == "mpx" || algo == "mr.mpx") p.set("beta", 0.4);
    if (algo == "cluster" || algo == "mr.cluster") p.set("tau", "4");
    if (algo.rfind("mr.", 0) == 0) p.set("spill_bytes", "4096");
    return p;
  };
  const auto run = [&](const std::string& algo) {
    RunContext ctx;
    ctx.seed = 7;
    ctx.pool = &pool;
    return registry().run(algo, g, params_for(algo), ctx);
  };

  for (const auto& [mr_algo, shared_algo] :
       {std::pair<std::string, std::string>{"mr.cluster", "cluster"},
        {"mr.mpx", "mpx"}}) {
    SCOPED_TRACE(mr_algo);
    const auto mr_out = run(mr_algo);
    const auto shared = run(shared_algo);
    ASSERT_TRUE(mr_out.ok()) << mr_out.status().to_string();
    ASSERT_TRUE(shared.ok()) << shared.status().to_string();
    EXPECT_EQ(mr_out->assignment, shared->assignment);
    EXPECT_EQ(mr_out->centers, shared->centers);
    EXPECT_EQ(mr_out->dist_to_center, shared->dist_to_center);
  }
  const auto bfs = run("mr.bfs");
  ASSERT_TRUE(bfs.ok()) << bfs.status().to_string();
  EXPECT_EQ(bfs->dist_to_center, bfs_distances(g, 0));

  for (const char* point : {"spill.read", "spill.seek", "spill.flush"}) {
    for (const char* algo : {"mr.cluster", "mr.mpx", "mr.bfs"}) {
      SCOPED_TRACE(std::string(point) + " " + algo);
      fault::arm(point, fault::FaultSpec::always());
      const auto out = run(algo);
      fault::disarm_all();
      ASSERT_FALSE(out.ok());
      const StatusCode code = out.status().code();
      EXPECT_TRUE(code == StatusCode::kIoError ||
                  code == StatusCode::kDataLoss)
          << out.status().to_string();
    }
  }
}

// Flip every header byte and the first 64 payload bytes of a valid CSR v2
// file: each variant must be rejected as kDataLoss / kInvalidArgument —
// never a crash, never a silent success.
TEST(CorruptionSweep, EveryHeaderAndLeadingPayloadByteFlipFailsCleanly) {
  fault::disarm_all();
  const std::string path = sweep_dir() + "/bitflip.csr2";
  const Graph g = gen::grid(10, 10);
  ASSERT_TRUE(io::write_csr(g, path).ok());
  std::vector<char> bytes = slurp(path);
  constexpr std::size_t kHeaderBytes = 72;
  ASSERT_GE(bytes.size(), kHeaderBytes);
  const std::uint64_t offsets_pos = le64_at(bytes, 32);
  ASSERT_LE(offsets_pos + 64, bytes.size());

  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < kHeaderBytes; ++i) targets.push_back(i);
  for (std::size_t i = 0; i < 64; ++i) {
    targets.push_back(static_cast<std::size_t>(offsets_pos) + i);
  }

  for (const std::size_t off : targets) {
    SCOPED_TRACE("flipped byte " + std::to_string(off));
    bytes[off] = static_cast<char>(bytes[off] ^ 0xFF);
    spit(path, bytes);
    for (const io::CsrLoadMode mode :
         {io::CsrLoadMode::kAuto, io::CsrLoadMode::kCopy}) {
      io::CsrLoadOptions opts;
      opts.mode = mode;
      const auto loaded = io::load_csr(path, opts);
      ASSERT_FALSE(loaded.ok());
      const StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << loaded.status().to_string();
    }
    bytes[off] = static_cast<char>(bytes[off] ^ 0xFF);
  }

  spit(path, bytes);  // restored: must load again, byte-identical
  const auto restored = io::load_csr(path);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_TRUE(testutil::same_csr(*restored, g));
}

// --- Seeded decoder mutations. ----------------------------------------------
// Valid files of the three binary layouts (plain and compressed CSR v2,
// the .orc sidecar) over two graphs are mutated under a fixed seed
// and a fixed iteration budget: splices of two valid files, truncations,
// multi-bit flips, and every position and count field set to each extreme
// value.  Every loader runs on every mutant, and each either returns a
// Status or decodes exactly one of the original payloads — never an abort,
// a hang or a sanitizer report (CI runs this binary under ASan+UBSan and
// greps the "decoder mutations:" line).

/// The valid files and what each loader must decode from them.
struct DecoderCorpus {
  std::vector<Graph> graphs;  // load_csr and load_compressed_csr payloads
  std::vector<server::OracleArtifact> artifacts;
  std::vector<std::vector<char>> files;
  /// Per file: the byte offsets of its u64 position and count fields.
  std::vector<std::vector<std::size_t>> fields;
};

DecoderCorpus decoder_corpus() {
  DecoderCorpus c;
  const std::string path = sweep_dir() + "/decoder-corpus";
  const std::vector<std::size_t> csr_fields = {16, 24, 32, 40, 48};
  for (const Graph& g : {gen::ring_of_cliques(6, 5), gen::grid(5, 7)}) {
    const CompressedGraph packed =
        compress(g, {.relabel = RelabelMode::kAlways});
    EXPECT_TRUE(packed.relabeled());  // perm and inv sections present
    c.artifacts.push_back(
        server::build_oracle_artifact(g, artifact_opts()));

    EXPECT_TRUE(io::write_csr(g, path).ok());
    c.files.push_back(slurp(path));
    c.fields.push_back(csr_fields);
    EXPECT_TRUE(io::write_csr(packed, path).ok());
    c.files.push_back(slurp(path));
    c.fields.push_back(csr_fields);
    // The parameter block's adj_bytes and six section positions.
    const std::size_t block = le64_at(c.files.back(), 32);
    for (std::size_t off = 16; off <= 64; off += 8) {
      c.fields.back().push_back(block + off);
    }
    EXPECT_TRUE(
        server::write_oracle_artifact(c.artifacts.back(), path).ok());
    c.files.push_back(slurp(path));
    c.fields.push_back({16, 24, 32, 40});
    for (std::size_t off = 72; off <= 120; off += 8) {
      c.fields.back().push_back(off);
    }
    c.graphs.push_back(g);
  }
  return c;
}

bool same_artifact(const server::OracleArtifact& a,
                   const server::OracleArtifact& b) {
  return a.meta.graph_num_nodes == b.meta.graph_num_nodes &&
         a.meta.graph_num_half_edges == b.meta.graph_num_half_edges &&
         a.meta.num_clusters == b.meta.num_clusters &&
         a.meta.quotient_num_half_edges == b.meta.quotient_num_half_edges &&
         a.meta.build_seed == b.meta.build_seed &&
         a.meta.tau == b.meta.tau &&
         a.meta.use_cluster2 == b.meta.use_cluster2 &&
         a.meta.max_radius == b.meta.max_radius &&
         a.meta.graph_checksum == b.meta.graph_checksum &&
         std::ranges::equal(a.cluster_of, b.cluster_of) &&
         std::ranges::equal(a.dist_to_center, b.dist_to_center) &&
         std::ranges::equal(a.centers, b.centers) &&
         std::ranges::equal(a.quotient_offsets, b.quotient_offsets) &&
         std::ranges::equal(a.quotient_neighbors, b.quotient_neighbors) &&
         std::ranges::equal(a.quotient_weights, b.quotient_weights) &&
         std::ranges::equal(a.apsp, b.apsp);
}

/// Runs every file loader on `bytes`; returns how many rejected it.
int decode_everywhere(const std::vector<char>& bytes, const DecoderCorpus& c,
                      const std::string& what) {
  const std::string path = sweep_dir() + "/decoder-mutant";
  spit(path, bytes);
  int rejected = 0;
  const auto rejects = [&](const Status& st) {
    EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                st.code() == StatusCode::kInvalidArgument)
        << what << ": " << st.to_string();
    ++rejected;
  };
  for (const io::CsrLoadMode mode :
       {io::CsrLoadMode::kAuto, io::CsrLoadMode::kCopy}) {
    io::CsrLoadOptions opts;
    opts.mode = mode;
    const auto r = io::load_csr(path, opts);
    if (!r.ok()) {
      rejects(r.status());
    } else {
      EXPECT_TRUE(std::ranges::any_of(c.graphs, [&](const Graph& g) {
        return testutil::same_csr(*r, g);
      })) << what << ": load_csr decoded a different graph";
    }
  }
  if (const auto r = io::load_compressed_csr(path); !r.ok()) {
    rejects(r.status());
  } else {
    const Graph plain = r->decompress();
    EXPECT_TRUE(std::ranges::any_of(c.graphs, [&](const Graph& g) {
      return testutil::same_csr(plain, g);
    })) << what << ": load_compressed_csr decoded a different graph";
  }
  if (const auto r = server::load_oracle_artifact(path); !r.ok()) {
    rejects(r.status());
  } else {
    EXPECT_TRUE(std::ranges::any_of(
        c.artifacts,
        [&](const server::OracleArtifact& a) { return same_artifact(*r, a); }))
        << what << ": load_oracle_artifact decoded a different payload";
  }
  return rejected;
}

void store_le64(std::vector<char>& bytes, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[off + i] = static_cast<char>(v >> (8 * i));
  }
}

TEST(DecoderMutations, EveryFileLoaderReturnsStatusOrTheOriginal) {
  fault::disarm_all();
  const DecoderCorpus c = decoder_corpus();
  std::size_t mutants = 0;
  std::size_t rejected = 0;
  const auto run = [&](const std::vector<char>& bytes,
                       const std::string& what) {
    ++mutants;
    rejected += decode_everywhere(bytes, c, what);
  };
  // Every position and count field at every extreme.
  for (std::size_t f = 0; f < c.files.size(); ++f) {
    const std::uint64_t size = c.files[f].size();
    for (const std::size_t off : c.fields[f]) {
      for (const std::uint64_t v :
           {std::uint64_t{0}, std::uint64_t{1}, size - 1, size,
            std::uint64_t{65} /* unaligned */, std::uint64_t{1} << 63,
            ~std::uint64_t{0}}) {
        std::vector<char> bytes = c.files[f];
        store_le64(bytes, off, v);
        run(bytes, "file " + std::to_string(f) + " field " +
                       std::to_string(off) + " = " + std::to_string(v));
      }
    }
  }

  // Random splices, truncations and multi-bit flips under a fixed seed.
  constexpr int kIterations = 6000;
  Rng rng(20260607);
  const auto pick = [&] { return c.files[rng.next_below(c.files.size())]; };
  for (int it = 0; it < kIterations; ++it) {
    std::vector<char> bytes = pick();
    std::string what = "iteration " + std::to_string(it) + ": ";
    switch (it % 3) {
      case 0: {  // a prefix of one valid file, a suffix of another
        const std::vector<char> tail = pick();
        const std::size_t cut = rng.next_below(bytes.size() + 1);
        const std::size_t from =
            rng.next_below(2) == 0 ? std::min(cut, tail.size())
                                   : rng.next_below(tail.size() + 1);
        bytes.resize(cut);
        bytes.insert(bytes.end(), tail.begin() + static_cast<long>(from),
                     tail.end());
        what += "splice at " + std::to_string(cut) + "/" +
                std::to_string(from);
        break;
      }
      case 1:
        bytes.resize(rng.next_below(bytes.size()));
        what += "truncation to " + std::to_string(bytes.size());
        break;
      default: {
        const std::uint64_t flips = 2 + rng.next_below(7);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::size_t at = rng.next_below(bytes.size());
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.next_below(8)));
        }
        what += std::to_string(flips) + " bit flips";
        break;
      }
    }
    run(bytes, what);
  }
  EXPECT_GT(rejected, mutants);  // most mutants fail in every loader
  // CI greps for this exact prefix and asserts a nonzero count.
  std::printf("decoder mutations: %zu\n", mutants);
}

// --- Seeded frame mutations. ------------------------------------------------
// Valid query-batch, result-batch and error frames are mutated under a
// fixed seed and budget; decode_frame on each mutant (exactly sized, so
// ASan sees any overread) returns kInvalidArgument or a frame that
// re-encodes to the mutant byte for byte — the decoder is strict, so an
// accepted frame has exactly one encoding.

std::vector<std::vector<std::uint8_t>> frame_corpus() {
  std::vector<server::QueryResult> results;
  for (std::uint8_t code = 0; code <= 4; ++code) {
    results.push_back({static_cast<StatusCode>(code), 977u * code});
  }
  const std::vector<std::vector<std::uint8_t>> wires = {
      net::encode_query_batch(net_queries(5)),
      net::encode_query_batch({}),
      net::encode_result_batch(results),
      net::encode_error(DataLossError("spilled run lost")),
  };
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& w : wires) {
    payloads.emplace_back(w.begin() + net::kLenPrefixSize, w.end());
  }
  return payloads;
}

/// The wire bytes (length prefix stripped) of a decoded frame.
std::vector<std::uint8_t> reencode(const net::Frame& f) {
  std::vector<std::uint8_t> w;
  switch (f.type) {
    case net::FrameType::kQueryBatch:
      w = net::encode_query_batch(f.queries);
      break;
    case net::FrameType::kResultBatch:
      w = net::encode_result_batch(f.results);
      break;
    case net::FrameType::kError:
      w = net::encode_error(f.error);
      break;
  }
  return {w.begin() + net::kLenPrefixSize, w.end()};
}

TEST(DecoderMutations, EveryFrameDecodesStrictlyOrIsInvalidArgument) {
  const auto corpus = frame_corpus();
  std::size_t mutants = 0;
  std::size_t rejected = 0;
  const auto run = [&](const std::vector<std::uint8_t>& payload,
                       const std::string& what) {
    ++mutants;
    const auto f = net::decode_frame(payload.data(), payload.size());
    if (!f.ok()) {
      EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument)
          << what << ": " << f.status().to_string();
      ++rejected;
      return;
    }
    EXPECT_EQ(reencode(*f), payload) << what << ": decoded a different frame";
  };
  // The count field at every extreme.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::uint32_t count = 0;
    for (int b = 3; b >= 0; --b) count = (count << 8) | corpus[i][8 + b];
    for (const std::uint32_t v :
         {0u, 1u, count - 1, count + 1, 1u << 31, ~0u}) {
      std::vector<std::uint8_t> bytes = corpus[i];
      for (int b = 0; b < 4; ++b) {
        bytes[8 + b] = static_cast<std::uint8_t>(v >> (8 * b));
      }
      run(bytes, "frame " + std::to_string(i) + " count " + std::to_string(v));
    }
  }

  // Random splices, truncations, byte overwrites and bit flips.
  constexpr int kIterations = 20000;
  Rng rng(20261019);
  const auto pick = [&] { return corpus[rng.next_below(corpus.size())]; };
  for (int it = 0; it < kIterations; ++it) {
    std::vector<std::uint8_t> bytes = pick();
    std::string what = "iteration " + std::to_string(it) + ": ";
    switch (it % 4) {
      case 0: {  // a prefix of one valid frame, a suffix of another
        const auto tail = pick();
        const std::size_t cut = rng.next_below(bytes.size() + 1);
        const std::size_t from = rng.next_below(tail.size() + 1);
        bytes.resize(cut);
        bytes.insert(bytes.end(), tail.begin() + static_cast<long>(from),
                     tail.end());
        what += "splice at " + std::to_string(cut) + "/" + std::to_string(from);
        break;
      }
      case 1:
        bytes.resize(rng.next_below(bytes.size()));
        what += "truncation to " + std::to_string(bytes.size());
        break;
      case 2: {  // one byte, half the time in the header, set at random
        const std::size_t at = rng.next_below(std::min<std::size_t>(
            bytes.size(), rng.next_below(2) == 0 ? 16 : bytes.size()));
        bytes[at] = static_cast<std::uint8_t>(rng.next_below(256));
        what += "byte " + std::to_string(at) + " overwritten";
        break;
      }
      default: {
        const std::uint64_t flips = 1 + rng.next_below(4);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::size_t at = rng.next_below(bytes.size());
          bytes[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        what += std::to_string(flips) + " bit flips";
        break;
      }
    }
    run(bytes, what);
  }
  EXPECT_GT(rejected, mutants / 2);
  EXPECT_LT(rejected, mutants);  // some mutants stay valid frames
  // CI greps for this exact prefix and asserts a nonzero count.
  std::printf("frame mutations: %zu\n", mutants);
}

// --- Seeded edge-list text mutations. ---------------------------------------
// SNAP-style texts are mutated under a fixed seed and budget with the bytes
// the tokenizer branches on; the parallel parser must equal the serial
// reference on every mutant at pools of 1, 2 and 8.  A few mutants span
// two 1 MiB parse chunks and are mutated around the chunk boundary.

/// One line; `sparse` ids beyond the parser's dense-table limit send the
/// whole text down its hash-interning path.
std::string text_corpus_line(Rng& rng, bool sparse) {
  switch (rng.next_below(9)) {
    case 0:
      return "# comment " + std::to_string(rng.next_below(100));
    case 1:
      return "% 1 2";
    case 2:
      return std::to_string(sparse ? rng.next_below(1u << 20) * 1000003ULL
                                   : rng.next_below(60)) +
             "\t" + std::to_string(rng.next_below(50)) + "\r";
    case 3:
      return " -" + std::to_string(rng.next_below(9)) + " +" +
             std::to_string(rng.next_below(60)) + " trailing";
    case 4: {
      // A 19- or 20-digit token, either side of the one-pass scanner's
      // limit, then a tab- or space-and-tab-separated id, maybe CRLF.
      // Dense texts zero-pad a small id; sparse ones draw every digit, so
      // most 20-digit tokens overflow.
      const std::size_t width = 19 + rng.next_below(2);
      std::string id;
      if (sparse) {
        id = std::to_string(1 + rng.next_below(9));
        while (id.size() < width) id += std::to_string(rng.next_below(10));
      } else {
        id = std::to_string(rng.next_below(60));
        id.insert(0, width - id.size(), '0');
      }
      return id + (rng.next_below(2) == 0 ? "\t" : " \t ") +
             std::to_string(rng.next_below(60)) +
             (rng.next_below(2) == 0 ? "\r" : "");
    }
    default:
      return std::to_string(rng.next_below(60)) + " " +
             std::to_string(rng.next_below(60));
  }
}

std::string text_corpus(Rng& rng, std::size_t min_bytes, bool sparse) {
  std::string text;
  while (text.size() < min_bytes) {
    text += text_corpus_line(rng, sparse) + '\n';
  }
  return text;
}

/// Overwrites, inserts or deletes at `at`, with bytes the tokenizer treats
/// specially.
void mutate_text(std::string& text, std::size_t at, Rng& rng) {
  static const std::string kAlphabet =
      std::string("0123456789 \t\n\r\v\f#%+-x") + '\0' + '\xff';
  const char c = kAlphabet[rng.next_below(kAlphabet.size())];
  at = std::min(at, text.size());
  switch (rng.next_below(4)) {
    case 0:
      if (at < text.size()) text[at] = c;
      break;
    case 1:
      text.insert(at, 1, c);
      break;
    case 2:  // a u64 overflow: 20 or more digits
      text.insert(at, std::string(20 + rng.next_below(3), '9'));
      break;
    default:
      text.erase(at, rng.next_below(24));
      break;
  }
}

TEST(DecoderMutations, EveryEdgeListTextParsesLikeTheSerialReader) {
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::size_t mutants = 0;
  const auto run = [&](const std::string& text, const std::string& what) {
    ++mutants;
    std::istringstream in(text);
    const Graph want = io::read_edge_list(in);
    for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      EXPECT_TRUE(testutil::same_csr(io::parse_edge_list(text, *pool), want))
          << what << " at " << pool->num_threads() << " threads";
    }
    return want;
  };

  Rng rng(20261020);
  std::vector<std::string> small;
  for (int i = 0; i < 4; ++i) {
    small.push_back(text_corpus(rng, 600, /*sparse=*/i % 2 == 1));
  }
  constexpr int kIterations = 3000;
  for (int it = 0; it < kIterations; ++it) {
    std::string text = small[rng.next_below(small.size())];
    if (it % 5 == 0) {  // splice two texts mid-line
      const std::string& tail = small[rng.next_below(small.size())];
      text.resize(rng.next_below(text.size() + 1));
      text += tail.substr(rng.next_below(tail.size() + 1));
    } else if (it % 5 == 1) {
      text.resize(rng.next_below(text.size() + 1));
    }
    const std::uint64_t edits = 1 + rng.next_below(6);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutate_text(text, rng.next_below(text.size() + 1), rng);
    }
    run(text, "iteration " + std::to_string(it));
  }

  // Two chunks: edits within a few lines of the 1 MiB boundary move it
  // against the line starts.  Each mutant is also loaded from a file, whose
  // mapped text the parser releases page by page as chunks finish.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  const std::string large =
      text_corpus(rng, kChunk + (kChunk >> 3), /*sparse=*/false);
  const std::string path = sweep_dir() + "/mutant.txt";
  fault::disarm_all();
  for (int it = 0; it < 8; ++it) {
    std::string text = large;
    for (int e = 0; e < 4; ++e) {
      mutate_text(text, kChunk - 48 + rng.next_below(96), rng);
    }
    const std::string what = "two-chunk iteration " + std::to_string(it);
    const Graph want = run(text, what);
    spit(path, std::vector<char>(text.begin(), text.end()));
    for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      const StatusOr<Graph> loaded = io::load_edge_list(path, *pool);
      ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().to_string();
      EXPECT_TRUE(testutil::same_csr(*loaded, want))
          << what << " from a file at " << pool->num_threads() << " threads";
    }
  }
  // CI greps for this exact prefix and asserts a nonzero count.
  std::printf("text mutations: %zu\n", mutants);
}

// A compressed file whose anchors section overlaps its degrees section,
// with a correct checksum: the section table rejects it, not the checksum
// and not the structural decode walk.
TEST(DecoderMutations, OverlappingCompressedSectionsFailAtTheSectionTable) {
  fault::disarm_all();
  const std::string path = sweep_dir() + "/overlap.csr2";
  const CompressedGraph packed =
      compress(gen::ring_of_cliques(6, 5), {.relabel = RelabelMode::kAlways});
  ASSERT_TRUE(io::write_csr(packed, path).ok());
  std::vector<char> bytes = slurp(path);

  const std::size_t block = le64_at(bytes, 32);
  const std::uint64_t degrees_pos = le64_at(bytes, block + 24);
  ASSERT_LT(degrees_pos, le64_at(bytes, block + 32));
  store_le64(bytes, block + 32, degrees_pos);  // anchors_pos := degrees_pos

  // Checksum over the parameter block, then the six sections in order.
  const CompressedSectionSizes sizes =
      compressed_section_sizes(packed.params());
  const std::uint64_t lengths[] = {sizes.degrees, sizes.anchors, sizes.locals,
                                   sizes.adj,     sizes.perm,    sizes.inv};
  ASSERT_GT(sizes.anchors, 0u);
  std::uint32_t sum = io::wire::crc32c(0, bytes.data() + block, 128);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::uint64_t pos = le64_at(bytes, block + 24 + 8 * i);
    sum = io::wire::crc32c(sum, bytes.data() + pos,
                           static_cast<std::size_t>(lengths[i]));
  }
  store_le64(bytes, 56, sum);
  spit(path, bytes);

  const auto r = io::load_compressed_csr(path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(testutil::fails_with(r.status(), StatusCode::kDataLoss,
                                   "compressed sections overlap"));
}

}  // namespace
}  // namespace gclus
