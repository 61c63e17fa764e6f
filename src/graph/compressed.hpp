// Compressed, cache-aware CSR: Rice-coded delta-gap adjacency behind the
// same keepalive storage contract as Graph.
//
// A CompressedGraph stores each vertex's sorted neighbor list as a first
// value plus (degree-1) gap codes in a single LSB-first bitstream, cutting
// the 4 bytes/half-edge of plain CSR to ~2 bits + log2(average gap) — a
// 2-4x memory-reach win on the sparse graphs the paper targets.  An
// optional degree-descending relabeling improves locality; the permutation
// and its inverse are kept so the *logical* node ids never change: every
// accessor speaks original ids, so algorithm output on a compressed graph
// is byte-identical to the plain-CSR run with zero per-algorithm changes.
//
// Physical layout (six byte sections, shared by memory and the CSR v2
// compressed file mode in graph/io):
//
//   index     n packed (degree_bits + local_bits)-bit slots, one per
//             storage vertex: the low degree_bits are the degree, the
//             high local_bits the bit offset of the vertex's code
//             relative to its superblock anchor.  Interleaving both
//             per-vertex fields into one slot makes a random neighbor
//             lookup touch ONE index cache line instead of two, so the
//             dependent-load chain to the adjacency stream is as short
//             as plain CSR's offsets->neighbors chase.  (Stored at the
//             file format's degrees_pos; the locals section is empty.)
//   anchors   one u64 per 64-vertex superblock: absolute bit position of
//             the superblock's first code in the adjacency stream
//   adj       the Rice bitstream, encoded in independent 4096-vertex
//             chunks each padded to a byte boundary (so parallel encode
//             writes byte-exclusive ranges and is byte-identical at any
//             thread count)
//   perm/inv  original->storage / storage->original u32 maps; omitted
//             (empty) when the relabeling is the identity or (kAuto)
//             when the relabeled stream's savings do not pay for them
//
// Per-vertex code: the first neighbor is Rice(k_first) of either the raw
// storage id (mode 0) or the zigzag of (id - vertex) (mode 1), whichever
// costs fewer total bits for the graph; each later neighbor is
// Rice(k_gap) of (gap - 1).  Rice parameters are chosen by exact cost
// evaluation, so encoding is deterministic.  A unary quotient is capped at
// 15 ones; longer values escape to 40 raw bits.  Every bitstream section
// carries 8 guard bytes so the decoder's single unaligned 64-bit peek per
// value never reads out of bounds.
//
// Neighbor order: decode yields storage-ascending ids mapped through inv,
// i.e. an arbitrary (but fixed) order in original-id space.  Consumers
// must be neighbor-order-independent — the growth engine and parallel BFS
// are (commutative min-reductions); order-dependent code paths must use
// decompress(), which re-sorts each list and reproduces the original CSR
// arrays byte-for-byte.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "graph/wire.hpp"

namespace gclus {

class ThreadPool;

namespace cz {

/// Format constants (fixed, not parameters — the file records only the
/// per-graph Rice/width choices).
inline constexpr std::uint32_t kSuperblock = 64;   // vertices per anchor
inline constexpr std::uint32_t kChunk = 4096;      // vertices per encode unit
inline constexpr unsigned kMaxQ = 15;              // unary quotient cap
inline constexpr unsigned kEscapeBits = 40;        // raw escape value width
inline constexpr unsigned kMaxK = 24;              // largest Rice parameter
inline constexpr std::uint64_t kGuardBytes = 8;    // bitstream over-read pad

/// Loads 64 bits at bit position `bit` of an LSB-first bitstream.  The
/// result has >= 57 valid stream bits in its low end; callers never
/// consume more than 56 per peek (escape: 15 + 40 = 55).
inline std::uint64_t peek64(const std::byte* base, std::uint64_t bit) {
  std::uint64_t w;
  std::memcpy(&w, base + (bit >> 3), sizeof w);
  return io::wire::from_le(w) >> (bit & 7);
}

inline constexpr std::uint64_t low_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Bits a Rice(k) code of `v` occupies.
inline constexpr std::uint64_t rice_len(std::uint64_t v, unsigned k) {
  const std::uint64_t q = v >> k;
  return q < kMaxQ ? q + 1 + k : kMaxQ + kEscapeBits;
}

/// Decodes one Rice(k) value at `bit`, advancing it.  Well-defined for any
/// bit pattern (corrupt streams produce wrong values, caught by the
/// loader's structural validation, never out-of-bounds reads — guard
/// bytes bound the peek).
inline std::uint64_t rice_decode(const std::byte* base, std::uint64_t& bit,
                                 unsigned k) {
  const std::uint64_t w = peek64(base, bit);
  const unsigned q = static_cast<unsigned>(std::countr_one(w));
  if (q >= kMaxQ) {
    const std::uint64_t raw = peek64(base, bit + kMaxQ) & low_mask(kEscapeBits);
    bit += kMaxQ + kEscapeBits;
    return raw;
  }
  bit += q + 1 + k;
  return (std::uint64_t{q} << k) | ((w >> (q + 1)) & low_mask(k));
}

inline constexpr std::uint64_t zigzag(std::int64_t d) {
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}

inline constexpr std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

}  // namespace cz

/// Per-graph encoding choices, persisted verbatim in the CSR v2 compressed
/// parameter block.
struct CompressedParams {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_half_edges = 0;
  std::uint8_t first_mode = 0;   // 0: raw first id, 1: zigzag(id - vertex)
  std::uint8_t k_first = 0;      // Rice parameter of first-neighbor codes
  std::uint8_t k_gap = 0;        // Rice parameter of gap codes
  bool relabeled = false;        // perm/inv sections present
  std::uint32_t degree_bits = 0; // degree field width in an index slot (<= 32)
  std::uint32_t local_bits = 0;  // superblock-local offset width (<= 56)
  std::uint64_t adj_bytes = 0;   // adjacency stream bytes (chunk-padded,
                                 // excluding the guard)
};

class CompressedGraph {
 public:
  CompressedGraph() = default;

  /// Non-owning over externally pinned sections (an mmap-ed file or an
  /// owned buffer wrapped by compress()).  Spans must include each
  /// bitstream section's guard bytes.  `storage` keeps them alive.
  CompressedGraph(CompressedParams params, std::span<const std::byte> degrees,
                  std::span<const std::byte> anchors,
                  std::span<const std::byte> locals,
                  std::span<const std::byte> adj,
                  std::span<const std::byte> perm,
                  std::span<const std::byte> inv,
                  std::shared_ptr<const void> storage);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(params_.num_nodes);
  }
  [[nodiscard]] EdgeId num_edges() const { return params_.num_half_edges / 2; }
  [[nodiscard]] EdgeId num_half_edges() const {
    return params_.num_half_edges;
  }
  [[nodiscard]] bool relabeled() const { return params_.relabeled; }
  [[nodiscard]] const CompressedParams& params() const { return params_; }

  /// Storage id of original vertex `u` (identity when not relabeled).
  [[nodiscard]] NodeId to_storage(NodeId u) const {
    GCLUS_DCHECK(u < num_nodes());
    if (!params_.relabeled) return u;
    return io::wire::read_le_at<NodeId>(perm_.data() +
                                        std::size_t{u} * sizeof(NodeId));
  }

  /// Original id of storage vertex `s` (identity when not relabeled).
  [[nodiscard]] NodeId to_original(NodeId s) const {
    GCLUS_DCHECK(s < num_nodes());
    if (!params_.relabeled) return s;
    return io::wire::read_le_at<NodeId>(inv_.data() +
                                        std::size_t{s} * sizeof(NodeId));
  }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    return storage_degree(to_storage(u));
  }

  /// Degree field of storage vertex s's index slot.  The slot's low
  /// degree_bits are the degree, the high local_bits the superblock-local
  /// code offset; both peeks land on the same cache line.
  [[nodiscard]] std::size_t storage_degree(NodeId s) const {
    GCLUS_DCHECK(s < num_nodes());
    const unsigned slot = params_.degree_bits + params_.local_bits;
    return static_cast<std::size_t>(
        cz::peek64(degrees_.data(), std::uint64_t{s} * slot) &
        cz::low_mask(params_.degree_bits));
  }

  /// Absolute bit position of storage vertex s's code in the adjacency
  /// stream.
  [[nodiscard]] std::uint64_t code_start(NodeId s) const {
    const std::uint64_t anchor = io::wire::read_le_at<std::uint64_t>(
        anchors_.data() + std::size_t{s / cz::kSuperblock} * 8);
    const unsigned slot = params_.degree_bits + params_.local_bits;
    const std::uint64_t local =
        cz::peek64(degrees_.data(),
                   std::uint64_t{s} * slot + params_.degree_bits) &
        cz::low_mask(params_.local_bits);
    return anchor + local;
  }

  /// Hints the cache lines a storage_neighbors(s) call is about to touch:
  /// the index slot and the (anchor + mean-rate estimated) code bytes.
  /// Decode is a serial bit-chain, so without lookahead an out-of-order
  /// core cannot overlap the cache misses of consecutive frontier
  /// vertices the way it does for plain CSR's independent neighbor
  /// loads; issuing these a few vertices ahead restores that memory-level
  /// parallelism.  The code estimate is within one superblock's drift of
  /// the true position — close enough for a prefetch, and harmlessly
  /// wrong otherwise.
  void prefetch_storage_neighbors(NodeId s) const {
    const unsigned slot = params_.degree_bits + params_.local_bits;
    const std::uint64_t slot_bit = std::uint64_t{s} * slot;
    __builtin_prefetch(degrees_.data() + slot_bit / 8, 0, 3);
    const std::uint64_t anchor = io::wire::read_le_at<std::uint64_t>(
        anchors_.data() + std::size_t{s / cz::kSuperblock} * 8);
    const std::uint64_t est =
        anchor + (s % cz::kSuperblock) * mean_vertex_bits_;
    __builtin_prefetch(adj_.data() + est / 8, 0, 3);
  }

  class NeighborSentinel {};

  /// Zero-allocation decode cursor over one neighbor list, yielding
  /// original ids in storage-ascending order.  Each value is decoded from
  /// one unconditional 64-bit peek at the current bit position: the peek
  /// is an L1 hit after the first value, and having no refill branch in
  /// the loop body keeps the branch predictor clean — measured faster
  /// than a register-window cursor with a data-dependent refill check,
  /// whose ~1-in-3 mispredicted refills flush the pipeline and serialize
  /// consecutive vertices' otherwise independent decode chains.
  class NeighborIterator {
   public:
    [[nodiscard]] NodeId operator*() const { return cur_; }
    NeighborIterator& operator++() {
      if (--remaining_ > 0) {
        prev_ += static_cast<NodeId>(decode_one(k_gap_) + 1);
        cur_ = map(prev_);
      }
      return *this;
    }
    friend bool operator!=(const NeighborIterator& it, NeighborSentinel) {
      return it.remaining_ != 0;
    }
    friend bool operator==(const NeighborIterator& it, NeighborSentinel s) {
      return !(it != s);
    }

   private:
    friend class CompressedGraph;
    [[nodiscard]] NodeId map(NodeId s) const {
      if (inv_ == nullptr) return s;
      NodeId v;
      std::memcpy(&v, inv_ + std::size_t{s} * sizeof(NodeId), sizeof v);
      return io::wire::from_le(v);
    }

    /// Decodes one Rice(k) value at bit_, advancing it.  A peek yields
    /// >= 57 valid bits and the longest code is 55 (escape: 15 + 40), so
    /// one window always holds a whole code; the only branch is the
    /// rarely-taken (and well-predicted) escape test.
    std::uint64_t decode_one(unsigned k) {
      const std::uint64_t w = cz::peek64(adj_, bit_);
      const unsigned q = static_cast<unsigned>(std::countr_one(w));
      if (q >= cz::kMaxQ) {
        bit_ += cz::kMaxQ + cz::kEscapeBits;
        return (w >> cz::kMaxQ) & cz::low_mask(cz::kEscapeBits);
      }
      bit_ += q + 1 + k;
      return (std::uint64_t{q} << k) | ((w >> (q + 1)) & cz::low_mask(k));
    }

    const std::byte* adj_ = nullptr;
    const std::byte* inv_ = nullptr;  // null when not relabeled
    std::uint64_t bit_ = 0;     // absolute position of the next code
    std::size_t remaining_ = 0;
    NodeId prev_ = 0;  // last decoded storage id
    NodeId cur_ = 0;   // original id of the current neighbor
    unsigned k_gap_ = 0;
  };

  class NeighborRange {
   public:
    [[nodiscard]] NeighborIterator begin() const { return it_; }
    [[nodiscard]] NeighborSentinel end() const { return {}; }

   private:
    friend class CompressedGraph;
    NeighborIterator it_;
  };

  /// Neighbors of original vertex `u`.
  [[nodiscard]] NeighborRange neighbors(NodeId u) const {
    return storage_neighbors(to_storage(u));
  }

  [[nodiscard]] NeighborRange storage_neighbors(NodeId s) const {
    NeighborRange r;
    NeighborIterator& it = r.it_;
    it.adj_ = adj_.data();
    it.inv_ = params_.relabeled ? inv_.data() : nullptr;
    it.k_gap_ = params_.k_gap;
    it.remaining_ = storage_degree(s);
    if (it.remaining_ == 0) return r;
    it.bit_ = code_start(s);
    const std::uint64_t v0 = it.decode_one(params_.k_first);
    it.prev_ = params_.first_mode == 0
                   ? static_cast<NodeId>(v0)
                   : static_cast<NodeId>(static_cast<std::int64_t>(s) +
                                         cz::unzigzag(v0));
    it.cur_ = it.map(it.prev_);
    return r;
  }

  /// Decodes the neighbor lists of original vertices `u0` and `u1` in one
  /// interleaved loop, calling `f0(v)` / `f1(v)` with original ids.  Rice
  /// decoding is a serial bit-position chain *within* a list, but the two
  /// lists' chains are independent (the index gives each its own start),
  /// so alternating their operations in program order lets an out-of-order
  /// core run both chains concurrently — measured ~1.4x over decoding the
  /// same two lists back to back, which is most of the gap to plain CSR's
  /// independent neighbor loads.  Frontier scans pair adjacent vertices
  /// through visit_neighbors2 below; callbacks must be order-independent
  /// across the two lists (claims are commutative minima, so they are).
  template <class F0, class F1>
  void for_neighbors2(NodeId u0, NodeId u1, F0&& f0, F1&& f1) const {
    const std::byte* const adj = adj_.data();
    const std::byte* const inv = params_.relabeled ? inv_.data() : nullptr;
    const auto map = [inv](NodeId s) {
      if (inv == nullptr) return s;
      NodeId v;
      std::memcpy(&v, inv + std::size_t{s} * sizeof(NodeId), sizeof v);
      return io::wire::from_le(v);
    };
    const unsigned kf = params_.k_first;
    const unsigned kg = params_.k_gap;
    const NodeId s0 = to_storage(u0);
    const NodeId s1 = to_storage(u1);
    std::size_t r0 = storage_degree(s0);
    std::size_t r1 = storage_degree(s1);
    std::uint64_t bit0 = 0, bit1 = 0;
    NodeId prev0 = 0, prev1 = 0;
    const auto start = [&](NodeId s, std::uint64_t& bit, NodeId& prev) {
      bit = code_start(s);
      const std::uint64_t v0 = cz::rice_decode(adj, bit, kf);
      prev = params_.first_mode == 0
                 ? static_cast<NodeId>(v0)
                 : static_cast<NodeId>(static_cast<std::int64_t>(s) +
                                       cz::unzigzag(v0));
    };
    if (r0 != 0) {
      start(s0, bit0, prev0);
      f0(map(prev0));
    }
    if (r1 != 0) {
      start(s1, bit1, prev1);
      f1(map(prev1));
    }
    while (r0 > 1 && r1 > 1) {
      prev0 += static_cast<NodeId>(cz::rice_decode(adj, bit0, kg) + 1);
      prev1 += static_cast<NodeId>(cz::rice_decode(adj, bit1, kg) + 1);
      f0(map(prev0));
      f1(map(prev1));
      --r0;
      --r1;
    }
    for (; r0 > 1; --r0) {
      prev0 += static_cast<NodeId>(cz::rice_decode(adj, bit0, kg) + 1);
      f0(map(prev0));
    }
    for (; r1 > 1; --r1) {
      prev1 += static_cast<NodeId>(cz::rice_decode(adj, bit1, kg) + 1);
      f1(map(prev1));
    }
  }

  /// Total bytes of all sections (the compressed footprint plain CSR's
  /// memory_bytes() is compared against).
  [[nodiscard]] std::size_t memory_bytes() const {
    return degrees_.size() + anchors_.size() + locals_.size() + adj_.size() +
           perm_.size() + inv_.size();
  }

  /// Materializes the original plain Graph: decode, map back to original
  /// ids, sort each list — byte-identical to the CSR arrays compress()
  /// was given.
  [[nodiscard]] Graph decompress(ThreadPool& pool) const;
  [[nodiscard]] Graph decompress() const;

  /// Full structural + semantic validation (decodes everything; O(m log)).
  [[nodiscard]] bool validate() const;

  // Raw section accessors for the CSR v2 serializer.  Bitstream sections
  // (degrees, locals, adj) include their guard bytes.
  [[nodiscard]] std::span<const std::byte> degrees_section() const {
    return degrees_;
  }
  [[nodiscard]] std::span<const std::byte> anchors_section() const {
    return anchors_;
  }
  [[nodiscard]] std::span<const std::byte> locals_section() const {
    return locals_;
  }
  [[nodiscard]] std::span<const std::byte> adj_section() const { return adj_; }
  [[nodiscard]] std::span<const std::byte> perm_section() const {
    return perm_;
  }
  [[nodiscard]] std::span<const std::byte> inv_section() const { return inv_; }

 private:
  CompressedParams params_;
  std::span<const std::byte> degrees_;
  std::span<const std::byte> anchors_;
  std::span<const std::byte> locals_;
  std::span<const std::byte> adj_;
  std::span<const std::byte> perm_;
  std::span<const std::byte> inv_;
  std::uint64_t mean_vertex_bits_ = 0;  // adj bits / n, for prefetch estimates
  std::shared_ptr<const void> storage_;
};

/// Section byte sizes implied by a parameter block (bitstream sections
/// include the guard).  Shared by the encoder, serializer, and loader so
/// bounds checks cannot drift from the writer.
struct CompressedSectionSizes {
  std::uint64_t degrees = 0;
  std::uint64_t anchors = 0;
  std::uint64_t locals = 0;
  std::uint64_t adj = 0;
  std::uint64_t perm = 0;
  std::uint64_t inv = 0;
};
[[nodiscard]] CompressedSectionSizes compressed_section_sizes(
    const CompressedParams& p);

enum class RelabelMode {
  /// Cost-based: the degree-descending stable order is kept only when its
  /// exact stream savings exceed the 64 bits/vertex of perm/inv maps;
  /// otherwise storage order is the identity and decode has no per-
  /// neighbor indirection.
  kAuto,
  kNever,   ///< keep input ids as storage ids
  kAlways,  ///< force the degree-descending order (ablations, tests)
};

struct CompressOptions {
  RelabelMode relabel = RelabelMode::kAuto;
};

/// Compresses `g`.  Deterministic: the produced sections are byte-identical
/// at any thread count (fixed 4096-vertex chunks, exact-cost parameter
/// selection, commutative integer reductions only).
[[nodiscard]] CompressedGraph compress(const Graph& g, ThreadPool& pool,
                                       const CompressOptions& opts = {});
[[nodiscard]] CompressedGraph compress(const Graph& g,
                                       const CompressOptions& opts = {});

/// Cheap structural validation for loaders: parameter ranges, perm/inv
/// bijection, degree sum, and a full decode walk checking index
/// consistency and id ranges — a flipped bit anywhere in the sections
/// comes back as kDataLoss instead of corrupting an algorithm run.
[[nodiscard]] Status validate_compressed_structure(const CompressedGraph& g,
                                                   ThreadPool& pool);

/// Representation-generic pairwise neighbor visit: scan loops that walk
/// two vertices at a time call this so the compressed overload can
/// interleave the two decode chains (see for_neighbors2).  For any other
/// representation it is exactly the two plain loops, in order — identical
/// codegen to visiting the vertices one after the other.
template <class G, class F0, class F1>
inline void visit_neighbors2(const G& g, NodeId u0, NodeId u1, F0&& f0,
                             F1&& f1) {
  for (const NodeId v : g.neighbors(u0)) f0(v);
  for (const NodeId v : g.neighbors(u1)) f1(v);
}

template <class F0, class F1>
inline void visit_neighbors2(const CompressedGraph& g, NodeId u0, NodeId u1,
                             F0&& f0, F1&& f1) {
  g.for_neighbors2(u0, u1, std::forward<F0>(f0), std::forward<F1>(f1));
}

}  // namespace gclus
