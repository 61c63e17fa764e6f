// Data-parallel loop and reduction primitives on top of ThreadPool.
//
// Scheduling is guided self-scheduling: workers pull chunks of the index
// space from a shared atomic cursor.  Chunk size defaults to a value that
// amortizes the atomic while keeping tail imbalance small for irregular
// per-item cost (frontier expansion, per-node degree work).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "par/thread_pool.hpp"

namespace gclus {

inline constexpr std::size_t kDefaultGrain = 1024;

/// Invokes body(i) for i in [begin, end) across the pool's workers.
/// The body must not throw.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const Body& body, std::size_t grain = kDefaultGrain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (pool.num_threads() == 1 || n <= grain) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> cursor{begin};
  pool.run_on_workers([&](std::size_t) {
    for (;;) {
      const std::size_t lo = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = lo + grain < end ? lo + grain : end;
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }
  });
}

/// parallel_for on the process-global pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = kDefaultGrain) {
  parallel_for(ThreadPool::global(), begin, end, body, grain);
}

/// Chunked variant: body(lo, hi) receives whole ranges.  Preferred when the
/// body wants to keep per-chunk scratch state (thread-local accumulators).
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const Body& body, std::size_t grain = kDefaultGrain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (pool.num_threads() == 1 || n <= grain) {
    body(begin, end);
    return;
  }
  std::atomic<std::size_t> cursor{begin};
  pool.run_on_workers([&](std::size_t) {
    for (;;) {
      const std::size_t lo = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = lo + grain < end ? lo + grain : end;
      body(lo, hi);
    }
  });
}

/// Parallel reduction: combine(acc, map(i)) over [begin, end) with identity
/// `init`.  `combine` must be associative; evaluation order is unspecified.
template <typename T, typename Map, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end, T init,
                  const Map& map, const Combine& combine,
                  std::size_t grain = kDefaultGrain) {
  if (begin >= end) return init;
  const std::size_t n = end - begin;
  if (pool.num_threads() == 1 || n <= grain) {
    T acc = init;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, map(i));
    return acc;
  }
  std::vector<T> partial(pool.num_threads(), init);
  std::atomic<std::size_t> cursor{begin};
  pool.run_on_workers([&](std::size_t worker) {
    T acc = init;
    for (;;) {
      const std::size_t lo = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = lo + grain < end ? lo + grain : end;
      for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
    }
    partial[worker] = acc;
  });
  T acc = init;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T init, const Map& map,
                  const Combine& combine, std::size_t grain = kDefaultGrain) {
  return parallel_reduce(ThreadPool::global(), begin, end, init, map, combine,
                         grain);
}

/// Sum of map(i) over [begin, end).
template <typename T, typename Map>
T parallel_sum(ThreadPool& pool, std::size_t begin, std::size_t end,
               const Map& map, std::size_t grain = kDefaultGrain) {
  return parallel_reduce(
      pool, begin, end, T{}, map, [](T a, T b) { return a + b; }, grain);
}

/// Exclusive prefix sum of `values` in place; returns the grand total.
/// Sequential: prefix sizes in this library are O(#clusters) or O(#workers),
/// never the hot path.  (The MR engine has its own round-counted primitive.)
template <typename T>
T exclusive_prefix_sum(std::vector<T>& values) {
  T total{};
  for (auto& v : values) {
    const T next = total + v;
    v = total;
    total = next;
  }
  return total;
}

/// Merges per-worker buffers into `out` (replacing its contents): an
/// exclusive prefix sum over buffer sizes assigns each buffer a disjoint
/// output range, then the buffers copy concurrently.  Output order is
/// buffer order, so when buffer contents depend on the dynamic schedule
/// the result is deterministic only as a multiset.
template <typename T>
void parallel_concat(ThreadPool& pool, const std::vector<std::vector<T>>& parts,
                     std::vector<T>& out) {
  std::vector<std::size_t> offset(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) offset[i] = parts[i].size();
  const std::size_t total = exclusive_prefix_sum(offset);
  out.resize(total);
  if (pool.num_threads() == 1 || total <= kDefaultGrain) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      std::copy(parts[i].begin(), parts[i].end(), out.begin() + offset[i]);
    }
    return;
  }
  std::atomic<std::size_t> cursor{0};
  pool.run_on_workers([&](std::size_t) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= parts.size()) break;
      std::copy(parts[i].begin(), parts[i].end(), out.begin() + offset[i]);
    }
  });
}

/// Order-preserving parallel filter: keeps the elements of `values` for
/// which `pred` returns true.  Fixed-size blocks are counted in parallel,
/// an exclusive prefix sum assigns each block its output range, and the
/// surviving elements are scattered concurrently — relative order is
/// preserved exactly, so a sorted input stays sorted.
template <typename T, typename Pred>
void parallel_compact(ThreadPool& pool, std::vector<T>& values,
                      const Pred& pred, std::size_t block = 4096) {
  const std::size_t n = values.size();
  if (pool.num_threads() == 1 || n <= block) {
    values.erase(std::remove_if(values.begin(), values.end(),
                                [&](const T& v) { return !pred(v); }),
                 values.end());
    return;
  }
  const std::size_t num_blocks = (n + block - 1) / block;
  std::vector<std::size_t> offset(num_blocks);
  parallel_for(
      pool, 0, num_blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(lo + block, n);
        std::size_t kept = 0;
        for (std::size_t i = lo; i < hi; ++i) kept += pred(values[i]) ? 1 : 0;
        offset[b] = kept;
      },
      /*grain=*/1);
  const std::size_t total = exclusive_prefix_sum(offset);
  std::vector<T> out(total);
  parallel_for(
      pool, 0, num_blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(lo + block, n);
        std::size_t at = offset[b];
        for (std::size_t i = lo; i < hi; ++i) {
          if (pred(values[i])) out[at++] = values[i];
        }
      },
      /*grain=*/1);
  values.swap(out);
}

}  // namespace gclus
