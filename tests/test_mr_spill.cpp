// Tests for the spill layer itself: run round-tripping, bounded-buffer
// cursors, and — the part the engine can't exercise from the outside —
// fault injection.  A broken spill environment must surface as a clean
// error Status with an actionable message (so the engine can fail over or
// degrade), never as an abort and never as a silently wrong round output.
// The one remaining death test covers a genuine API-contract violation
// (appending an empty run), which stays a GCLUS_CHECK by design.
//
// The final stress test drives a large multi-round workload through a
// 1 KiB budget; it is labeled "spill_stress" in CMake and skipped unless
// GCLUS_SPILL_STRESS=1 (CI's low-memory job sets it), so plain `ctest`
// stays fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/faultpoint.hpp"
#include "common/status.hpp"
#include "graph/generators.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/spill.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "par/thread_pool.hpp"

namespace gclus::mr {
namespace {

namespace fs = std::filesystem;

struct Rec {
  std::uint32_t key;
  std::uint64_t pos;
};

std::vector<Rec> make_run(std::uint32_t base, std::size_t n) {
  std::vector<Rec> run(n);
  for (std::size_t i = 0; i < n; ++i) {
    run[i] = Rec{base + static_cast<std::uint32_t>(i),
                 static_cast<std::uint64_t>(i)};
  }
  return run;
}

std::vector<Rec> read_all(RunCursor& cursor) {
  std::vector<Rec> out;
  while (const void* rec = cursor.next()) {
    out.push_back(*static_cast<const Rec*>(rec));
  }
  return out;
}

/// Disarms every fault point on scope exit, so an assertion failure in
/// one test cannot leave injection armed for the next.
struct FaultGuard {
  ~FaultGuard() { fault::disarm_all(); }
};

TEST(SpillSession, RoundTripsRunsPerPartition) {
  SpillSession session("", /*num_partitions=*/4, sizeof(Rec));
  const auto run_a = make_run(100, 1000);
  const auto run_b = make_run(5000, 3);
  ASSERT_TRUE(session.append_run(1, run_a.data(), run_a.size()).ok());
  ASSERT_TRUE(session.append_run(1, run_b.data(), run_b.size()).ok());
  ASSERT_TRUE(session.append_run(3, run_b.data(), run_b.size()).ok());
  ASSERT_TRUE(session.seal().ok());

  EXPECT_EQ(session.num_runs(0), 0u);
  EXPECT_EQ(session.num_runs(1), 2u);
  EXPECT_EQ(session.num_runs(3), 1u);
  EXPECT_EQ(session.total_runs(), 3u);
  EXPECT_EQ(session.bytes_written(), (1000u + 3u + 3u) * sizeof(Rec));

  // A tiny refill buffer (3 records per read) must still reproduce the
  // 1000-record run exactly.
  auto cursors = session.open_partition(1, /*buffer_records=*/3);
  ASSERT_TRUE(cursors.ok()) << cursors.status().to_string();
  ASSERT_EQ(cursors->size(), 2u);
  std::vector<Rec> got_a = read_all((*cursors)[0]);
  std::vector<Rec> got_b = read_all((*cursors)[1]);
  EXPECT_TRUE((*cursors)[0].status().ok());
  EXPECT_TRUE((*cursors)[1].status().ok());
  ASSERT_EQ(got_a.size(), run_a.size());
  for (std::size_t i = 0; i < run_a.size(); ++i) {
    EXPECT_EQ(got_a[i].key, run_a[i].key);
    EXPECT_EQ(got_a[i].pos, run_a[i].pos);
  }
  EXPECT_EQ(got_b.size(), run_b.size());
}

TEST(SpillSession, InterleavedCursorsShareTheFile) {
  // Two cursors alternate over the same partition file: every refill must
  // seek to its own offset, so interleaving cannot cross-contaminate.
  SpillSession session("", 1, sizeof(Rec));
  const auto run_a = make_run(0, 500);
  const auto run_b = make_run(100000, 500);
  ASSERT_TRUE(session.append_run(0, run_a.data(), run_a.size()).ok());
  ASSERT_TRUE(session.append_run(0, run_b.data(), run_b.size()).ok());
  ASSERT_TRUE(session.seal().ok());
  auto cursors = session.open_partition(0, 7);
  ASSERT_TRUE(cursors.ok()) << cursors.status().to_string();
  ASSERT_EQ(cursors->size(), 2u);
  for (std::size_t i = 0; i < 500; ++i) {
    const auto* a = static_cast<const Rec*>((*cursors)[0].next());
    const auto* b = static_cast<const Rec*>((*cursors)[1].next());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->key, run_a[i].key);
    EXPECT_EQ(b->key, run_b[i].key);
  }
  EXPECT_EQ((*cursors)[0].next(), nullptr);
  EXPECT_EQ((*cursors)[1].next(), nullptr);
  EXPECT_TRUE((*cursors)[0].status().ok());
  EXPECT_TRUE((*cursors)[1].status().ok());
}

TEST(SpillSession, RemovesItsDirectoryOnDestruction) {
  std::string dir;
  {
    SpillSession session("", 2, sizeof(Rec));
    const auto run = make_run(0, 10);
    ASSERT_TRUE(session.append_run(0, run.data(), run.size()).ok());
    ASSERT_TRUE(session.seal().ok());
    dir = session.directory();
    EXPECT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));
}

// --- Environmental failures: clean Status, never an abort. ---

TEST(SpillSession, UnwritableDirectoryReturnsIoError) {
  SpillSession session("/proc/definitely/not/writable", 2, sizeof(Rec));
  const auto run = make_run(0, 4);
  const Status st = session.append_run(0, run.data(), run.size());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("spill directory not writable"),
            std::string::npos)
      << st.to_string();
  // The failure is sticky: later appends fail the same way without
  // re-probing the filesystem.
  EXPECT_FALSE(session.append_run(1, run.data(), run.size()).ok());
}

TEST(SpillSession, TruncatedRunFileIsDataLossAtOpen) {
  SpillSession session("", 1, sizeof(Rec));
  const auto run = make_run(0, 2000);
  ASSERT_TRUE(session.append_run(0, run.data(), run.size()).ok());
  ASSERT_TRUE(session.seal().ok());
  // Simulate a torn write / full disk discovered late: chop the file.
  const fs::path file = fs::path(session.directory()) / "part-0.run";
  ASSERT_TRUE(fs::exists(file));
  fs::resize_file(file, fs::file_size(file) / 2);
  auto cursors = session.open_partition(0, 64);
  ASSERT_FALSE(cursors.ok());
  EXPECT_EQ(cursors.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(cursors.status().message().find("spill run truncated"),
            std::string::npos)
      << cursors.status().to_string();
}

TEST(SpillSession, TruncatedRunFileIsDataLossAtCursor) {
  // Truncation after open_partition's size check: the cursor's short
  // read (at EOF) must park kDataLoss, not return garbage records.
  SpillSession session("", 1, sizeof(Rec));
  const auto run = make_run(0, 2000);
  ASSERT_TRUE(session.append_run(0, run.data(), run.size()).ok());
  ASSERT_TRUE(session.seal().ok());
  auto cursors = session.open_partition(0, 64);
  ASSERT_TRUE(cursors.ok()) << cursors.status().to_string();
  const fs::path file = fs::path(session.directory()) / "part-0.run";
  fs::resize_file(file, fs::file_size(file) / 2);
  std::size_t delivered = 0;
  for (auto& c : *cursors) {
    while (c.next() != nullptr) ++delivered;
    EXPECT_FALSE(c.status().ok());
    EXPECT_EQ(c.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(c.status().message().find("spill run truncated"),
              std::string::npos)
        << c.status().to_string();
  }
  EXPECT_LT(delivered, run.size());
}

// --- Injected faults: transient errors retry, hard errors surface. ---

TEST(SpillSession, TransientShortWriteRecoversByRetry) {
  FaultGuard guard;
  fault::arm("spill.write", fault::FaultSpec::once());
  SpillSession session("", 1, sizeof(Rec));
  const auto run = make_run(7, 128);
  ASSERT_TRUE(session.append_run(0, run.data(), run.size()).ok());
  ASSERT_TRUE(session.seal().ok());
  EXPECT_GE(session.write_retries(), 1u);
  // The retried append must have overwritten its own torn first attempt.
  auto cursors = session.open_partition(0, 16);
  ASSERT_TRUE(cursors.ok()) << cursors.status().to_string();
  ASSERT_EQ(cursors->size(), 1u);
  const std::vector<Rec> got = read_all((*cursors)[0]);
  ASSERT_TRUE((*cursors)[0].status().ok());
  ASSERT_EQ(got.size(), run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(got[i].key, run[i].key);
    EXPECT_EQ(got[i].pos, run[i].pos);
  }
}

TEST(SpillSession, PersistentShortWriteEscalatesToIoError) {
  FaultGuard guard;
  fault::arm("spill.write", fault::FaultSpec::always());
  SpillSession session("", 1, sizeof(Rec));
  const auto run = make_run(7, 16);
  const Status st = session.append_run(0, run.data(), run.size());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("giving up after"), std::string::npos)
      << st.to_string();
  EXPECT_EQ(session.num_runs(0), 0u);
}

TEST(SpillSession, TransientShortReadRecoversByRetry) {
  FaultGuard guard;
  SpillSession session("", 1, sizeof(Rec));
  const auto run = make_run(42, 512);
  ASSERT_TRUE(session.append_run(0, run.data(), run.size()).ok());
  ASSERT_TRUE(session.seal().ok());
  auto cursors = session.open_partition(0, 16);
  ASSERT_TRUE(cursors.ok()) << cursors.status().to_string();
  fault::arm("spill.read", fault::FaultSpec::once());
  const std::vector<Rec> got = read_all((*cursors)[0]);
  EXPECT_TRUE((*cursors)[0].status().ok())
      << (*cursors)[0].status().to_string();
  ASSERT_EQ(got.size(), run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(got[i].key, run[i].key);
  }
}

// --- The one genuine contract violation left: still a GCLUS_CHECK. ---

TEST(SpillSessionDeathTest, EmptyRunsAreRejected) {
  SpillSession session("", 1, sizeof(Rec));
  const auto run = make_run(0, 1);
  EXPECT_DEATH((void)session.append_run(0, run.data(), 0), "empty spill run");
}

// --- Stress: a full decomposition through a 1 KiB budget (slow; gated). ---

TEST(SpillStress, ClusterOnDenseGraphUnder1KiB) {
  if (std::getenv("GCLUS_SPILL_STRESS") == nullptr) {
    GTEST_SKIP() << "set GCLUS_SPILL_STRESS=1 to run (CI low-memory job)";
  }
  const Graph g = gen::expander(20000, 8, 17);
  mr::Config in_mem_cfg;
  in_mem_cfg.spill_memory_bytes = kSpillUnbounded;
  mr::Engine reference_engine(in_mem_cfg);
  mr_algos::MrClusterOptions o;
  o.seed = 23;
  const auto reference =
      mr_algos::mr_cluster(reference_engine, g, 8, o).value().clustering;

  mr::Config cfg;
  cfg.spill_memory_bytes = 1024;
  cfg.spill_strict = true;
  // Pinned worker count: the peak assertion below relies on budget/W
  // staying above one record, which a huge machine's global pool breaks.
  ThreadPool pool(4);
  cfg.pool = &pool;
  mr::Engine engine(cfg);
  const auto spilled =
      mr_algos::mr_cluster(engine, g, 8, o).value().clustering;
  EXPECT_EQ(spilled.assignment, reference.assignment);
  EXPECT_EQ(spilled.centers, reference.centers);
  EXPECT_GT(engine.metrics().bytes_spilled, 1u << 20);
  EXPECT_LE(engine.metrics().peak_shuffle_buffer_bytes, 1024u);
}

}  // namespace
}  // namespace gclus::mr
