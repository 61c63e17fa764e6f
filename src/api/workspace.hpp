// Reusable per-run scratch memory — the serving-scenario allocator fix.
//
// Every decomposition request and every parallel BFS runs on the growth
// engine (core/growth), whose per-node cluster and level arrays, uncovered
// worklist and per-worker frontier buffers would otherwise be allocated
// per call.  For one-shot batch runs that cost disappears into the noise;
// for the ROADMAP's serving scenario — many decompositions of the *same*
// graph per second — for eccentricity sweeps, and for every multi-trial
// bench loop it is pure overhead.
//
// A Workspace owns those buffers and lends them out run by run.  Buffers
// only ever grow, so a workspace warmed on a graph serves any same-or-
// smaller graph without touching the allocator; the borrowing engine still
// resets the per-node state it needs (that reset is O(n) streaming writes
// into warm pages, which is the cheap part — the malloc + page-fault +
// capacity-regrowth traffic is what reuse eliminates).  bench_api measures
// the effect as cold-vs-warm timings per algorithm.
//
// Concurrency contract: a Workspace serves ONE run at a time — one live
// GrowthState, whether it backs a decomposition or a BFS.  Overlapping
// acquires are an API-contract violation and abort via GCLUS_CHECK:
// recycled buffers handed to two live runs is the classic use-after-reset
// hazard, so it fails loudly rather than corrupting results.  Concurrent
// requests should use one Workspace per worker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace gclus {

/// Scratch set of the cluster-growth engine (GrowthState).  Field-by-field
/// documentation lives with GrowthState, which is the only writer.
struct GrowthScratch {
  /// Per-node arrays, allocated uninitialized: the borrowing engine's
  /// parallel reset is their first touch, so a fresh scratch is written
  /// once, not twice.
  std::unique_ptr<Dist[]> level;
  std::unique_ptr<ClusterId[]> cluster;
  NodeId node_capacity = 0;
  std::vector<NodeId> uncovered_candidates;
  std::vector<std::vector<NodeId>> frontier;       // per worker
  std::vector<std::vector<NodeId>> next_frontier;  // per worker

  /// Grows every buffer to serve a graph of `n` nodes under `workers`
  /// threads.  Capacity only — values are stale until the borrowing engine
  /// resets them.
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

  /// Total bytes currently retained.
  [[nodiscard]] std::size_t bytes() const { return growth_.bytes(); }

  /// Lifetime acquire counter (a warm workspace shows reuses > 1).
  [[nodiscard]] std::size_t growth_acquires() const {
    return growth_acquires_;
  }

 private:
  GrowthScratch growth_;
  // Atomic so that the two-threads-race misuse the guard exists to catch
  // is caught deterministically (exchange in acquire), not itself a data
  // race on a plain bool.
  std::atomic<bool> growth_in_use_{false};
  std::size_t growth_acquires_ = 0;
};

}  // namespace gclus
