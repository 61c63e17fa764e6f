// Reusable per-run scratch memory — the serving-scenario allocator fix.
//
// Every decomposition request used to pay O(n + m) allocation and first-
// touch page faulting: GrowthState's four node-sized arrays (claim keys,
// coverage flags, distances, the uncovered worklist), its frontier and its
// per-worker buffers were all constructed per call, and parallel_bfs did
// the same for its atomic distance array and worklists.
// For one-shot batch runs that cost disappears into the noise; for the
// ROADMAP's serving scenario — many decompositions of the *same* graph per
// second — and for every multi-trial bench loop it is pure overhead.
//
// A Workspace owns those buffers and lends them out run by run.  Buffers
// only ever grow, so a workspace warmed on a graph serves any same-or-
// smaller graph without touching the allocator; the borrowing kernel still
// resets the per-node state it needs (that reset is O(n) streaming writes
// into warm pages, which is the cheap part — the malloc + page-fault +
// capacity-regrowth traffic is what reuse eliminates).  bench_api measures
// the effect as cold-vs-warm timings per algorithm.
//
// Concurrency contract: a Workspace serves ONE run at a time per buffer
// family (one growth engine and one BFS may borrow simultaneously —
// their buffers are disjoint).  Overlapping acquires of the same family
// are an API-contract violation and abort via GCLUS_CHECK: recycled
// buffers handed to two live runs is the classic use-after-reset hazard,
// so it fails loudly rather than corrupting results.  Concurrent requests
// should use one Workspace per worker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gclus {

/// Scratch set of the cluster-growth engine (GrowthState).  Field-by-field
/// documentation lives with GrowthState, which is the only writer.
struct GrowthScratch {
  std::vector<std::atomic<std::uint64_t>> claim;
  std::vector<std::uint8_t> covered;
  std::vector<Dist> dist;
  std::vector<NodeId> frontier;
  std::vector<NodeId> uncovered_candidates;
  std::vector<std::vector<NodeId>> next_frontier;  // per worker
  std::vector<std::vector<NodeId>> sample;         // per worker (center draws)

  /// Grows every buffer to serve a graph of `n` nodes under `workers`
  /// threads.  Capacity only — values are stale until the borrowing engine
  /// resets them.  Atomic vectors are replaced outright when too small
  /// (std::atomic is not movable, so they cannot resize in place).
  void ensure(NodeId n, std::size_t workers);

  [[nodiscard]] std::size_t bytes() const;
};

/// Scratch set of the level-synchronous parallel BFS.
struct BfsScratch {
  std::vector<std::atomic<Dist>> dist;
  std::vector<NodeId> frontier;
  std::vector<NodeId> candidates;
  std::vector<std::vector<NodeId>> local_next;  // per worker

  void ensure(NodeId n, std::size_t workers);

  [[nodiscard]] std::size_t bytes() const;
};

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Borrows the growth scratch, sized for (`n`, `workers`).  Aborts if a
  /// previous borrower has not released it (two live GrowthStates on one
  /// Workspace would silently share claim arrays).
  GrowthScratch* acquire_growth(NodeId n, std::size_t workers);
  void release_growth(const GrowthScratch* s);

  BfsScratch* acquire_bfs(NodeId n, std::size_t workers);
  void release_bfs(const BfsScratch* s);

  /// Total bytes currently retained across both scratch families.
  [[nodiscard]] std::size_t bytes() const;

  /// Lifetime acquire counters (a warm workspace shows reuses > 1).
  [[nodiscard]] std::size_t growth_acquires() const {
    return growth_acquires_;
  }
  [[nodiscard]] std::size_t bfs_acquires() const { return bfs_acquires_; }

 private:
  GrowthScratch growth_;
  BfsScratch bfs_;
  // Atomic so that the two-threads-race misuse the guard exists to catch
  // is caught deterministically (exchange in acquire), not itself a data
  // race on a plain bool.
  std::atomic<bool> growth_in_use_{false};
  std::atomic<bool> bfs_in_use_{false};
  std::size_t growth_acquires_ = 0;
  std::size_t bfs_acquires_ = 0;
};

}  // namespace gclus
