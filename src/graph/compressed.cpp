#include "graph/compressed.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

using namespace io::wire;

namespace {

/// LSB-first bit sink over a byte-exclusive output range.  Each encode
/// chunk owns its own writer, so parallel chunks never share a byte.
class BitWriter {
 public:
  explicit BitWriter(std::byte* out) : out_(out) {}

  /// Appends the low `nbits` of `v` (nbits <= 56; acc_ never overflows
  /// because fewer than 8 bits are pending between calls).
  void put(std::uint64_t v, unsigned nbits) {
    acc_ |= (v & cz::low_mask(nbits)) << pending_;
    pending_ += nbits;
    while (pending_ >= 8) {
      *out_++ = static_cast<std::byte>(acc_ & 0xff);
      acc_ >>= 8;
      pending_ -= 8;
    }
  }

  void put_rice(std::uint64_t v, unsigned k) {
    const std::uint64_t q = v >> k;
    if (q < cz::kMaxQ) {
      put(cz::low_mask(q) | ((v & cz::low_mask(k)) << (q + 1)),
          static_cast<unsigned>(q) + 1 + k);
    } else {
      put(cz::low_mask(cz::kMaxQ), cz::kMaxQ);
      put(v, cz::kEscapeBits);
    }
  }

  /// Flushes the final partial byte (high bits zero).
  void finish() {
    if (pending_ > 0) {
      *out_++ = static_cast<std::byte>(acc_ & 0xff);
      acc_ = 0;
      pending_ = 0;
    }
  }

 private:
  std::byte* out_;
  std::uint64_t acc_ = 0;
  unsigned pending_ = 0;
};

/// Degree-descending stable order (ties broken by ascending id): the
/// storage order of RelabelMode::kAuto.
std::vector<NodeId> degree_descending_order(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const std::size_t da = g.degree(a), db = g.degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  return order;
}

/// A CSR written in place: row s holds the degree(s) ids that
/// fill(s, out) writes from `out` on (returning their end), sorted.
template <typename Degree, typename Fill>
Graph sorted_rows(ThreadPool& pool, NodeId n, const Degree& degree,
                  const Fill& fill) {
  CsrArrays csr(n);
  EdgeId* const offsets = csr.offsets.get();
  offsets[0] = 0;
  parallel_for(pool, 0, n, [&](std::size_t s) {
    offsets[s + 1] = degree(static_cast<NodeId>(s));
  });
  for (NodeId s = 0; s < n; ++s) offsets[s + 1] += offsets[s];
  csr.allocate_neighbors();
  parallel_for(pool, 0, n, [&](std::size_t s) {
    NodeId* const first = csr.neighbors.get() + offsets[s];
    std::sort(first, fill(static_cast<NodeId>(s), first));
  });
  return Graph(std::move(csr));
}

/// Bits vertex s's code occupies under the chosen parameters.
std::uint64_t code_bits(std::span<const NodeId> list, NodeId s,
                        const CompressedParams& p) {
  if (list.empty()) return 0;
  const std::uint64_t first =
      p.first_mode == 0
          ? std::uint64_t{list[0]}
          : cz::zigzag(static_cast<std::int64_t>(list[0]) -
                       static_cast<std::int64_t>(s));
  std::uint64_t bits = cz::rice_len(first, p.k_first);
  for (std::size_t j = 1; j < list.size(); ++j) {
    bits += cz::rice_len(list[j] - list[j - 1] - 1, p.k_gap);
  }
  return bits;
}

void encode_vertex(BitWriter& w, std::span<const NodeId> list, NodeId s,
                   const CompressedParams& p) {
  if (list.empty()) return;
  const std::uint64_t first =
      p.first_mode == 0
          ? std::uint64_t{list[0]}
          : cz::zigzag(static_cast<std::int64_t>(list[0]) -
                       static_cast<std::int64_t>(s));
  w.put_rice(first, p.k_first);
  for (std::size_t j = 1; j < list.size(); ++j) {
    w.put_rice(list[j] - list[j - 1] - 1, p.k_gap);
  }
}

/// Exact total first-value/gap code costs for every candidate Rice
/// parameter.  Atomic u64 additions are commutative, so the totals (and
/// therefore the chosen parameters) are thread-count independent.
struct CostTotals {
  std::array<std::uint64_t, cz::kMaxK + 1> first_raw{};
  std::array<std::uint64_t, cz::kMaxK + 1> first_zz{};
  std::array<std::uint64_t, cz::kMaxK + 1> gaps{};
};

CostTotals cost_totals(const Graph& t, NodeId n, ThreadPool& pool) {
  std::array<std::atomic<std::uint64_t>, cz::kMaxK + 1> a_raw{}, a_zz{},
      a_gap{};
  parallel_for_chunks(
      pool, 0, n,
      [&](std::size_t lo, std::size_t hi) {
        CostTotals local;
        for (std::size_t si = lo; si < hi; ++si) {
          const auto s = static_cast<NodeId>(si);
          const auto list = t.neighbors(s);
          if (list.empty()) continue;
          const std::uint64_t raw = list[0];
          const std::uint64_t zz =
              cz::zigzag(static_cast<std::int64_t>(list[0]) -
                         static_cast<std::int64_t>(s));
          for (unsigned k = 0; k <= cz::kMaxK; ++k) {
            local.first_raw[k] += cz::rice_len(raw, k);
            local.first_zz[k] += cz::rice_len(zz, k);
          }
          for (std::size_t j = 1; j < list.size(); ++j) {
            const std::uint64_t gap = list[j] - list[j - 1] - 1;
            for (unsigned k = 0; k <= cz::kMaxK; ++k) {
              local.gaps[k] += cz::rice_len(gap, k);
            }
          }
        }
        for (unsigned k = 0; k <= cz::kMaxK; ++k) {
          a_raw[k].fetch_add(local.first_raw[k], std::memory_order_relaxed);
          a_zz[k].fetch_add(local.first_zz[k], std::memory_order_relaxed);
          a_gap[k].fetch_add(local.gaps[k], std::memory_order_relaxed);
        }
      },
      /*grain=*/cz::kChunk);
  CostTotals out;
  for (unsigned k = 0; k <= cz::kMaxK; ++k) {
    out.first_raw[k] = a_raw[k].load();
    out.first_zz[k] = a_zz[k].load();
    out.gaps[k] = a_gap[k].load();
  }
  return out;
}

/// The parameter choice implied by one labeling's cost totals, plus the
/// exact adjacency-stream bit count it yields (before chunk padding).
struct ParamChoice {
  std::uint8_t first_mode = 0;
  std::uint8_t k_first = 0;
  std::uint8_t k_gap = 0;
  std::uint64_t total_bits = 0;
};

/// Exact-cost parameter choice (ties: smaller k, raw mode first).
ParamChoice choose_params(const CostTotals& costs) {
  ParamChoice c;
  std::uint64_t best_gap = ~std::uint64_t{0};
  for (unsigned k = 0; k <= cz::kMaxK; ++k) {
    if (costs.gaps[k] < best_gap) {
      best_gap = costs.gaps[k];
      c.k_gap = static_cast<std::uint8_t>(k);
    }
  }
  std::uint64_t best_first = ~std::uint64_t{0};
  for (unsigned mode = 0; mode <= 1; ++mode) {
    const auto& totals = mode == 0 ? costs.first_raw : costs.first_zz;
    for (unsigned k = 0; k <= cz::kMaxK; ++k) {
      if (totals[k] < best_first) {
        best_first = totals[k];
        c.first_mode = static_cast<std::uint8_t>(mode);
        c.k_first = static_cast<std::uint8_t>(k);
      }
    }
  }
  c.total_bits = best_gap + best_first;
  return c;
}

/// The owned backing buffer of a compress() result.
struct OwnedSections {
  std::vector<std::byte> bytes;
};

}  // namespace

CompressedGraph::CompressedGraph(CompressedParams params,
                                 std::span<const std::byte> degrees,
                                 std::span<const std::byte> anchors,
                                 std::span<const std::byte> locals,
                                 std::span<const std::byte> adj,
                                 std::span<const std::byte> perm,
                                 std::span<const std::byte> inv,
                                 std::shared_ptr<const void> storage)
    : params_(params),
      degrees_(degrees),
      anchors_(anchors),
      locals_(locals),
      adj_(adj),
      perm_(perm),
      inv_(inv),
      mean_vertex_bits_(params.num_nodes == 0
                            ? 0
                            : params.adj_bytes * 8 / params.num_nodes),
      storage_(std::move(storage)) {}

CompressedSectionSizes compressed_section_sizes(const CompressedParams& p) {
  CompressedSectionSizes s;
  const std::uint64_t n = p.num_nodes;
  // The "degrees" section holds the interleaved per-vertex index slots
  // (degree + superblock-local offset); a separate locals section no
  // longer exists, so its size is always zero.
  s.degrees = (n * (p.degree_bits + p.local_bits) + 7) / 8 + cz::kGuardBytes;
  s.anchors = (n + cz::kSuperblock - 1) / cz::kSuperblock * 8;
  s.locals = 0;
  s.adj = p.adj_bytes + cz::kGuardBytes;
  s.perm = p.relabeled ? n * sizeof(NodeId) : 0;
  s.inv = s.perm;
  return s;
}

CompressedGraph compress(const Graph& g, ThreadPool& pool,
                         const CompressOptions& opts) {
  const NodeId n = g.num_nodes();

  // Relabeling candidate: degree-descending order, dropped when it is
  // already the identity (regular graphs).
  std::vector<NodeId> inv;  // storage -> original
  std::vector<NodeId> perm; // original -> storage
  if (opts.relabel != RelabelMode::kNever && n > 0) {
    std::vector<NodeId> order = degree_descending_order(g);
    bool identity = true;
    for (NodeId s = 0; s < n && identity; ++s) identity = order[s] == s;
    if (!identity) {
      inv = std::move(order);
      perm.resize(n);
      for (NodeId s = 0; s < n; ++s) perm[inv[s]] = s;
    }
  }
  // The adjacency to encode, in storage ids: list s holds the sorted
  // storage ids of the neighbors of original vertex inv[s], and `g` itself
  // (a shared copy) under the identity.
  Graph t = g;
  if (!perm.empty()) {
    t = sorted_rows(
        pool, n, [&](NodeId s) { return g.degree(inv[s]); },
        [&](NodeId s, NodeId* out) {
          for (const NodeId v : g.neighbors(inv[s])) *out++ = perm[v];
          return out;
        });
  }

  CompressedParams p;
  p.num_nodes = n;
  p.num_half_edges = g.num_half_edges();
  p.relabeled = !perm.empty();

  ParamChoice choice = choose_params(cost_totals(t, n, pool));

  // Under kAuto the relabeling must pay its own way: the 64 bits/vertex of
  // perm+inv maps (and the per-neighbor map lookup on decode) are kept
  // only when the relabeled stream's exact bit savings exceed them.  On
  // near-uniform graphs the order buys nothing, so the maps are dropped
  // and neighbors decode with zero indirection.
  if (p.relabeled && opts.relabel == RelabelMode::kAuto) {
    const ParamChoice id_choice = choose_params(cost_totals(g, n, pool));
    const std::uint64_t map_bits = std::uint64_t{n} * 2 * sizeof(NodeId) * 8;
    if (id_choice.total_bits <= choice.total_bits + map_bits) {
      perm.clear();
      inv.clear();
      t = g;
      p.relabeled = false;
      choice = id_choice;
    }
  }
  p.first_mode = choice.first_mode;
  p.k_first = choice.k_first;
  p.k_gap = choice.k_gap;

  const std::uint64_t max_degree = parallel_reduce(
      pool, 0, n, std::uint64_t{0},
      [&](std::size_t s) {
        return std::uint64_t{t.degree(static_cast<NodeId>(s))};
      },
      [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
  p.degree_bits = static_cast<std::uint32_t>(std::bit_width(max_degree));

  // Layout pass: per-vertex code bit lengths, chunk-padded into absolute
  // bit positions.  Chunks are a fixed 4096 vertices, so the layout (and
  // every downstream byte) is independent of the thread count.
  const std::size_t num_chunks = (std::size_t{n} + cz::kChunk - 1) / cz::kChunk;
  std::vector<std::uint64_t> bit_start(n);
  std::vector<std::uint64_t> chunk_bits(num_chunks, 0);
  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t c) {
        const NodeId lo = static_cast<NodeId>(c * cz::kChunk);
        const NodeId hi =
            static_cast<NodeId>(std::min<std::size_t>(lo + cz::kChunk, n));
        std::uint64_t at = 0;
        for (NodeId s = lo; s < hi; ++s) {
          bit_start[s] = at;
          at += code_bits(t.neighbors(s), s, p);
        }
        chunk_bits[c] = at;
      },
      /*grain=*/1);
  std::vector<std::uint64_t> chunk_byte(num_chunks + 1, 0);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    chunk_byte[c + 1] = chunk_byte[c] + (chunk_bits[c] + 7) / 8;
  }
  p.adj_bytes = chunk_byte[num_chunks];
  parallel_for(pool, 0, n, [&](std::size_t s) {
    bit_start[s] += chunk_byte[s / cz::kChunk] * 8;
  });

  // Superblocks never straddle a chunk (64 divides 4096), so every local
  // offset is relative to a byte-contiguous run of codes.
  const std::uint64_t max_local = parallel_reduce(
      pool, 0, n, std::uint64_t{0},
      [&](std::size_t s) {
        return bit_start[s] - bit_start[s / cz::kSuperblock * cz::kSuperblock];
      },
      [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
  p.local_bits = static_cast<std::uint32_t>(std::bit_width(max_local));

  const CompressedSectionSizes sz = compressed_section_sizes(p);
  auto owned = std::make_shared<OwnedSections>();
  owned->bytes.assign(
      static_cast<std::size_t>(sz.degrees + sz.anchors + sz.locals + sz.adj +
                               sz.perm + sz.inv),
      std::byte{0});
  std::byte* const b_degrees = owned->bytes.data();
  std::byte* const b_anchors = b_degrees + sz.degrees;
  std::byte* const b_locals = b_anchors + sz.anchors;
  std::byte* const b_adj = b_locals + sz.locals;
  std::byte* const b_perm = b_adj + sz.adj;
  std::byte* const b_inv = b_perm + sz.perm;

  // The index section chunks on 4096-vertex boundaries too: 4096·slot
  // bits is always whole bytes, so writers stay byte-exclusive.  Degree
  // and local offset are emitted as two puts (a slot can exceed put()'s
  // 56-bit limit); the sequential BitWriter makes that one packed slot.
  const unsigned slot_bits = p.degree_bits + p.local_bits;
  if (slot_bits > 0) {
    parallel_for(
        pool, 0, num_chunks,
        [&](std::size_t c) {
          const NodeId lo = static_cast<NodeId>(c * cz::kChunk);
          const NodeId hi =
              static_cast<NodeId>(std::min<std::size_t>(lo + cz::kChunk, n));
          BitWriter w(b_degrees + std::uint64_t{lo} * slot_bits / 8);
          for (NodeId s = lo; s < hi; ++s) {
            w.put(std::uint64_t{t.degree(s)}, p.degree_bits);
            w.put(bit_start[s] -
                      bit_start[s / cz::kSuperblock * cz::kSuperblock],
                  p.local_bits);
          }
          w.finish();
        },
        /*grain=*/1);
  }
  parallel_for(pool, 0, (std::size_t{n} + cz::kSuperblock - 1) /
                            cz::kSuperblock,
               [&](std::size_t sb) {
                 store_le_at(b_anchors + sb * 8,
                             bit_start[sb * cz::kSuperblock]);
               });
  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t c) {
        const NodeId lo = static_cast<NodeId>(c * cz::kChunk);
        const NodeId hi =
            static_cast<NodeId>(std::min<std::size_t>(lo + cz::kChunk, n));
        BitWriter w(b_adj + chunk_byte[c]);
        for (NodeId s = lo; s < hi; ++s) encode_vertex(w, t.neighbors(s), s, p);
        w.finish();
      },
      /*grain=*/1);
  if (p.relabeled) {
    parallel_for(pool, 0, n, [&](std::size_t u) {
      store_le_at(b_perm + u * sizeof(NodeId), perm[u]);
      store_le_at(b_inv + u * sizeof(NodeId), inv[u]);
    });
  }

  return CompressedGraph(
      p, {b_degrees, static_cast<std::size_t>(sz.degrees)},
      {b_anchors, static_cast<std::size_t>(sz.anchors)},
      {b_locals, static_cast<std::size_t>(sz.locals)},
      {b_adj, static_cast<std::size_t>(sz.adj)},
      {b_perm, static_cast<std::size_t>(sz.perm)},
      {b_inv, static_cast<std::size_t>(sz.inv)}, std::move(owned));
}

CompressedGraph compress(const Graph& g, const CompressOptions& opts) {
  return compress(g, ThreadPool::global(), opts);
}

Graph CompressedGraph::decompress(ThreadPool& pool) const {
  return sorted_rows(
      pool, num_nodes(), [&](NodeId u) { return degree(u); },
      [&](NodeId u, NodeId* out) {
        for (const NodeId v : neighbors(u)) *out++ = v;
        return out;
      });
}

Graph CompressedGraph::decompress() const {
  return decompress(ThreadPool::global());
}

bool CompressedGraph::validate() const {
  ThreadPool& pool = ThreadPool::global();
  if (!validate_compressed_structure(*this, pool).ok()) return false;
  return decompress(pool).validate();
}

Status validate_compressed_structure(const CompressedGraph& g,
                                     ThreadPool& pool) {
  const CompressedParams& p = g.params();
  const NodeId n = g.num_nodes();
  if (p.first_mode > 1 || p.k_first > cz::kMaxK || p.k_gap > cz::kMaxK ||
      p.degree_bits > 32 || p.local_bits > 56) {
    return DataLossError("compressed CSR parameters out of range");
  }
  std::atomic<bool> ok{true};
  if (p.relabeled) {
    parallel_for(pool, 0, n, [&](std::size_t u) {
      const NodeId s = g.to_storage(static_cast<NodeId>(u));
      if (s >= n || g.to_original(s) != u) {
        ok.store(false, std::memory_order_relaxed);
      }
    });
    if (!ok.load()) {
      return DataLossError("compressed CSR relabeling is not a bijection");
    }
  }
  const std::uint64_t degree_sum = parallel_reduce(
      pool, 0, n, std::uint64_t{0},
      [&](std::size_t s) {
        return std::uint64_t{g.storage_degree(static_cast<NodeId>(s))};
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  if (degree_sum != p.num_half_edges) {
    return DataLossError("compressed CSR degree sum mismatch");
  }

  // Decode walk: every vertex's indexed start must equal the running
  // cursor, every decoded id must stay in range, and each chunk must end
  // exactly at the next chunk's byte-aligned start — so a flipped bit
  // anywhere in the index or stream surfaces here, not as a wild read in
  // an algorithm.
  const std::uint64_t limit_bits = p.adj_bytes * 8;
  const std::size_t num_chunks = (std::size_t{n} + cz::kChunk - 1) / cz::kChunk;
  std::vector<std::uint64_t> chunk_start(num_chunks, 0);
  std::vector<std::uint64_t> chunk_end(num_chunks, 0);
  const std::byte* adj = g.adj_section().data();
  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t c) {
        const NodeId lo = static_cast<NodeId>(c * cz::kChunk);
        const NodeId hi =
            static_cast<NodeId>(std::min<std::size_t>(lo + cz::kChunk, n));
        std::uint64_t bit = g.code_start(lo);
        chunk_start[c] = bit;
        if (bit % 8 != 0 || bit > limit_bits) {
          ok.store(false, std::memory_order_relaxed);
          return;
        }
        for (NodeId s = lo; s < hi; ++s) {
          if (g.code_start(s) != bit) {
            ok.store(false, std::memory_order_relaxed);
            return;
          }
          const std::size_t d = g.storage_degree(s);
          std::uint64_t prev = 0;
          for (std::size_t j = 0; j < d; ++j) {
            if (bit > limit_bits) {  // guard bytes keep the peek in bounds
              ok.store(false, std::memory_order_relaxed);
              return;
            }
            if (j == 0) {
              const std::uint64_t v0 =
                  cz::rice_decode(adj, bit, p.k_first);
              const std::int64_t id =
                  p.first_mode == 0
                      ? static_cast<std::int64_t>(v0)
                      : static_cast<std::int64_t>(s) + cz::unzigzag(v0);
              if (id < 0 || id >= static_cast<std::int64_t>(n)) {
                ok.store(false, std::memory_order_relaxed);
                return;
              }
              prev = static_cast<std::uint64_t>(id);
            } else {
              prev += cz::rice_decode(adj, bit, p.k_gap) + 1;
              if (prev >= n) {
                ok.store(false, std::memory_order_relaxed);
                return;
              }
            }
          }
        }
        chunk_end[c] = bit;
      },
      /*grain=*/1);
  if (!ok.load()) {
    return DataLossError("compressed CSR adjacency stream is corrupt");
  }
  std::uint64_t expected = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (chunk_start[c] != expected || chunk_end[c] > limit_bits) {
      return DataLossError("compressed CSR adjacency index is inconsistent");
    }
    expected = (chunk_end[c] + 7) / 8 * 8;
  }
  if (expected != limit_bits) {
    return DataLossError("compressed CSR adjacency stream length mismatch");
  }
  return OkStatus();
}

}  // namespace gclus
