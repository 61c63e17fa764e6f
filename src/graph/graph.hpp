// Compressed sparse row (CSR) representation of an unweighted, undirected
// graph — the input domain of every algorithm in the paper.
//
// Invariants (established by GraphBuilder and checked in debug builds):
//   * adjacency lists are sorted and duplicate-free,
//   * no self-loops,
//   * symmetry: v appears in adj(u) iff u appears in adj(v).
// Both directions of each undirected edge are stored, so the adjacency
// array has 2m entries for m undirected edges.
//
// Storage.  A Graph is two immutable spans and one shared keepalive that
// pins the memory they view: the arrays a builder wrote in place
// (CsrArrays), two adopted vectors, or the offset/neighbor sections of a
// CSR v2 file (graph/io.hpp), mapped or read, used in place with zero
// copies.  Copying a Graph shares the keepalive (one refcount increment),
// and there is no separate move, so a moved-from graph still views the
// arrays it pins.  Every phase reads the arrays and none writes them.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace gclus {

/// CSR arrays that a producer writes in place and a Graph then adopts
/// whole.  Both are allocated uninitialised, so the producer's own
/// (parallel) writes are the first touch: `offsets` has num_nodes + 1
/// entries, and `neighbors` offsets[num_nodes], allocated once the offsets
/// give that count.
struct CsrArrays {
  explicit CsrArrays(NodeId n)
      : num_nodes(n),
        offsets(std::make_unique_for_overwrite<EdgeId[]>(std::size_t{n} + 1)) {}

  void allocate_neighbors() {
    neighbors = std::make_unique_for_overwrite<NodeId[]>(
        static_cast<std::size_t>(offsets[num_nodes]));
  }

  NodeId num_nodes;
  std::unique_ptr<EdgeId[]> offsets;
  std::unique_ptr<NodeId[]> neighbors;
};

class Graph {
 public:
  Graph() = default;

  /// Adopts arrays a producer wrote: `csr.offsets[0..n]` from 0 to the
  /// neighbor count, `neighbors[offsets[u]..offsets[u+1])` is adj(u),
  /// sorted ascending.
  explicit Graph(CsrArrays csr);

  /// Adopts prebuilt CSR arrays (tests, the big-endian file decode).
  Graph(std::vector<EdgeId> offsets, std::vector<NodeId> neighbors);

  /// Uses `offsets`/`neighbors` in place.  `storage` is an opaque handle
  /// (e.g. a file mapping) that must keep the spans valid; it is held for
  /// the lifetime of this graph and of every copy of it.
  Graph(std::span<const EdgeId> offsets, std::span<const NodeId> neighbors,
        std::shared_ptr<const void> storage);

  // Copies share the storage.  No move is declared, so a move is a copy
  // and never leaves the source viewing arrays it no longer pins.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of *undirected* edges.
  [[nodiscard]] EdgeId num_edges() const { return neighbors_.size() / 2; }

  /// Number of directed half-edges (CSR entries), i.e. 2·num_edges().
  [[nodiscard]] EdgeId num_half_edges() const { return neighbors_.size(); }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    GCLUS_DCHECK(u < num_nodes());
    return static_cast<std::size_t>(offsets_[u + 1] - offsets_[u]);
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    GCLUS_DCHECK(u < num_nodes());
    return {neighbors_.data() + offsets_[u],
            neighbors_.data() + offsets_[u + 1]};
  }

  /// True if the (undirected) edge {u, v} exists.  O(log deg(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::span<const EdgeId> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const NodeId> neighbor_array() const {
    return neighbors_;
  }

  /// Approximate footprint of the CSR arrays in bytes (for the MR
  /// global-memory budget).  Identical for built and mapped graphs: a
  /// mapped graph's pages are resident once touched.
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.size() * sizeof(EdgeId) +
           neighbors_.size() * sizeof(NodeId);
  }

  /// Validates all CSR invariants (sortedness, symmetry, no loops).
  /// O(m log) — intended for tests and debug assertions, not hot paths.
  [[nodiscard]] bool validate() const;

 private:
  std::span<const EdgeId> offsets_;
  std::span<const NodeId> neighbors_;
  std::shared_ptr<const void> storage_;  // pins what the spans view
};

}  // namespace gclus
