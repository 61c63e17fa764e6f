#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

Graph GraphBuilder::build() { return build(ThreadPool::global()); }

Graph GraphBuilder::build(ThreadPool& pool) {
  const NodeId n = num_nodes_;

  // Both passes below split the nodes into ranges and run one task per
  // range.  Each task scans every edge and handles only the endpoints in
  // its own range, so no counter or row has two writers: no atomics, and a
  // task's scattered stores are not serialized behind locked
  // read-modify-writes.  There is a range per kDefaultGrain edges, at most
  // one per worker; a single range runs inline.
  const std::size_t ranges = std::clamp<std::size_t>(
      edges_.size() / kDefaultGrain, 1, pool.num_threads());
  const auto for_each_range = [&](const auto& task) {
    parallel_for(pool, 0, ranges, task, /*grain=*/1);
  };

  // Degrees, over equal node ranges: offsets[u] counts the half-edges
  // leaving u.  Each task zeroes its own counters, so the workers touch the
  // uninitialised offsets first.  An out-of-range endpoint lies in no
  // range, so it is never written before the check.
  CsrArrays csr(n);
  EdgeId* const offsets = csr.offsets.get();
  std::atomic<bool> out_of_range{false};
  for_each_range([&](std::size_t r) {
    const auto lo = static_cast<NodeId>(std::uint64_t{n} * r / ranges);
    const auto hi = static_cast<NodeId>(std::uint64_t{n} * (r + 1) / ranges);
    std::fill(offsets + lo, offsets + hi, EdgeId{0});
    bool bad = false;
    for (const auto& [u, v] : edges_) {
      bad |= u >= n || v >= n;
      if (u == v) continue;
      if (u - lo < hi - lo) ++offsets[u];
      if (v - lo < hi - lo) ++offsets[v];
    }
    if (bad) out_of_range.store(true, std::memory_order_relaxed);
  });
  GCLUS_CHECK(!out_of_range.load(), "edge endpoint out of range");

  // Inclusive prefix sum: offsets[u] is the end of row u.  The scatter
  // counts each row's cursor down from there, leaving offsets[u] at the
  // row's start — the CSR offsets, with no cursor array.
  for (std::size_t u = 1; u < n; ++u) offsets[u] += offsets[u - 1];
  offsets[n] = n == 0 ? 0 : offsets[n - 1];
  const EdgeId total = offsets[n];

  // Scatter, over node ranges of equal half-edge counts.  The edges are
  // scanned backwards, so each row is filled in edge order.
  std::vector<NodeId> first_row(ranges + 1, n);
  for (std::size_t r = 0; r < ranges; ++r) {
    first_row[r] = static_cast<NodeId>(
        std::lower_bound(offsets, offsets + n, total * r / ranges) - offsets);
  }
  csr.allocate_neighbors();
  NodeId* const neighbors = csr.neighbors.get();
  for_each_range([&](std::size_t r) {
    const NodeId lo = first_row[r];
    const NodeId hi = first_row[r + 1];
    for (std::size_t i = edges_.size(); i-- > 0;) {
      const auto [u, v] = edges_[i];
      if (u == v) continue;
      if (u - lo < hi - lo) neighbors[--offsets[u]] = v;
      if (v - lo < hi - lo) neighbors[--offsets[v]] = u;
    }
  });
  edges_.clear();
  edges_.shrink_to_fit();

  // Sorting each row makes the arrays a function of the edge multiset
  // alone, whatever the input order.  A row's duplicates are overwritten
  // with kInvalidNode, which marks them for the copy below.
  const EdgeId dropped = parallel_sum<EdgeId>(pool, 0, n, [&](std::size_t u) {
    NodeId* const first = neighbors + offsets[u];
    NodeId* const last = neighbors + offsets[u + 1];
    std::sort(first, last);
    NodeId* const kept = std::unique(first, last);
    std::fill(kept, last, kInvalidNode);
    return static_cast<EdgeId>(last - kept);
  });
  if (dropped == 0) return Graph(std::move(csr));

  // Duplicates: each scatter range copies its kept entries straight into
  // an exact-size array and rewrites its own rows' offsets in row order, so
  // a row's old end is read before the next row's offset is rewritten.
  // The ranges' old boundaries are read up front.
  const auto is_kept = [](NodeId v) { return v != kInvalidNode; };
  std::vector<EdgeId> bound(ranges + 1);
  for (std::size_t r = 0; r <= ranges; ++r) bound[r] = offsets[first_row[r]];
  std::vector<EdgeId> kept_start(ranges + 1, 0);
  for_each_range([&](std::size_t r) {
    kept_start[r + 1] = static_cast<EdgeId>(std::count_if(
        neighbors + bound[r], neighbors + bound[r + 1], is_kept));
  });
  for (std::size_t r = 0; r < ranges; ++r) kept_start[r + 1] += kept_start[r];
  auto kept = std::make_unique_for_overwrite<NodeId[]>(total - dropped);
  for_each_range([&](std::size_t r) {
    const NodeId hi = first_row[r + 1];
    EdgeId start = bound[r];
    NodeId* out = kept.get() + kept_start[r];
    for (NodeId u = first_row[r]; u < hi; ++u) {
      const EdgeId end = u + 1 < hi ? offsets[u + 1] : bound[r + 1];
      offsets[u] = static_cast<EdgeId>(out - kept.get());
      out = std::copy_if(neighbors + start, neighbors + end, out, is_kept);
      start = end;
    }
  });
  offsets[n] = total - dropped;
  csr.neighbors = std::move(kept);
  return Graph(std::move(csr));
}

Graph build_graph(NodeId num_nodes, const std::vector<Edge>& edges) {
  GraphBuilder b(num_nodes);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

}  // namespace gclus
