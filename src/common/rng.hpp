// Deterministic random number generation.
//
// All randomness in the library flows from a single 64-bit seed through
// *counter-based* hashing: a decision attached to logical coordinates
// (seed, stream, counter) is computed by mixing those coordinates, never by
// advancing shared mutable state.  This makes every randomized algorithm a
// pure function of (input, seed) regardless of how work is scheduled across
// threads — the property the cross-implementation equivalence tests rely on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace gclus {

/// Finalizer from SplitMix64 (Steele et al.); a high-quality 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines coordinates into a single well-mixed 64-bit value.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t c) {
  return hash_combine(hash_combine(a, b), c);
}

/// Derives an independent sub-stream seed from a base seed and a phase tag.
/// Every sub-phase that needs its own randomness (the preliminary CLUSTER
/// run inside CLUSTER2, the decomposition inside the distance-oracle build,
/// the spanner pass of the MR diameter pipeline) goes through this one
/// helper with a named tag below, so identical base seeds give identical
/// results across every entry point — direct calls and the registry alike —
/// and no call site improvises its own mixing.
///
/// Phases whose draws are already *counter-based* (keyed_bernoulli /
/// keyed_exponential over (seed, phase, node) coordinates, CenterDraw over
/// (seed, draw key, block, j)) do not need a derived seed: the coordinates
/// are the stream.  In particular, the weighted decomposition's per-wave
/// center draws intentionally share CLUSTER's exact CenterDraw (seed,
/// iteration, p, n, uncovered count) — that equality is what makes it
/// degenerate to CLUSTER step-for-step on unit weights.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t tag) {
  return hash_combine(base, tag);
}

/// Registry of derivation tags.  Values are frozen: changing one silently
/// reshuffles every decomposition computed under the owning phase.
inline constexpr std::uint64_t kSeedTagCluster2Prelim = 0xC1;
inline constexpr std::uint64_t kSeedTagOracleBuild = 0x0AC1E;
inline constexpr std::uint64_t kSeedTagMrSpanner = 0x5B;

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
/// Used where a *sequential* stream is convenient (generators, shuffles).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t sm = seed;
    for (auto& word : state_) {
      sm += 0x9e3779b97f4a7c15ULL;
      word = mix64(sm);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Lemire's multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool next_bool(double p) { return next_double() < p; }

  /// Exponential with rate `beta` (mean 1/beta), via inverse transform.
  double next_exponential(double beta);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Uniform double in [0,1) from the top 53 bits of a hash.
constexpr double unit_double(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Counter-based uniform double in [0,1) for coordinates (seed, a, b).
/// Schedule-independent: any thread evaluating the same coordinates gets
/// the same value.  Inline so a per-node sweep over b hoists the
/// loop-invariant hash_combine(seed, a).
inline double keyed_uniform(std::uint64_t seed, std::uint64_t a,
                            std::uint64_t b) {
  return unit_double(hash_combine(seed, a, b));
}

/// Counter-based Bernoulli(p) draw for coordinates (seed, a, b).
inline bool keyed_bernoulli(std::uint64_t seed, std::uint64_t a,
                            std::uint64_t b, double p) {
  return keyed_uniform(seed, a, b) < p;
}

/// Ids per block of a CenterDraw's gap walk.  Measured on the gap walk
/// alone over road_like(1400, 1400) (1.96M ids, pool of 3): 2^16 was the
/// fastest or within 10% of it at 100, 3000 and 24k draws.  Smaller blocks
/// pay a stream set-up and a work claim per block (2^10: 431 µs against
/// 110 at 3000 draws); larger ones leave workers idle (2^20, two blocks:
/// 518 µs against 323 at 24k draws).
inline constexpr std::uint64_t kCenterDrawBlock = std::uint64_t{1} << 16;

/// A CenterDraw walks gaps while p·n <= kCenterDrawCrossover · uncovered,
/// and sweeps the uncovered ids otherwise: at 1 it evaluates the fewer
/// uniforms, ~p·n against one per uncovered id.  A gap uniform costs more
/// (10–17 ns against 3.6–4.4 per swept id, wall time at a pool of 3 on
/// road_like(1400, 1400)), but CLUSTER(τ=1) and CLUSTER2(τ=64) on that
/// graph timed the same within noise at 0.25, 1 and 4.
inline constexpr double kCenterDrawCrossover = 1.0;

/// The CLUSTER family's batch draw: every uncovered id in [0, n) joins the
/// batch independently with probability p.  CLUSTER, CLUSTER2,
/// weighted_cluster and mr_cluster all select their centers through it, so
/// their draws agree id for id.
///
/// The regime is fixed once per draw from (p, n, uncovered count):
/// - *gaps* (p < 1 and p·n at most kCenterDrawCrossover·uncovered): ids
///   are cut into blocks of kCenterDrawBlock; block b's j-th uniform u_j =
///   unit_double(hash_combine(hash_combine(seed, key, b), j)) gives the
///   gap floor(log1p(−u_j) / log1p(−p)) to its next selected id.  The gaps
///   are Geometric(p), so each id is selected independently with
///   probability p, and a draw costs O(p·n + n/B) uniforms instead of one
///   per uncovered id.  Selected ids that are already covered are dropped.
/// - *sweep*: each uncovered id v draws keyed_bernoulli(seed, key, v, p).
///
/// Either way the selected set is a pure function of (seed, key, p, n,
/// uncovered count) and the covered set — never of the schedule, the
/// worklist order or the pool size.
class CenterDraw {
 public:
  CenterDraw(std::uint64_t seed, std::uint64_t key, double p, std::uint64_t n,
             std::uint64_t uncovered)
      : seed_(seed), key_(key), p_(p), n_(n), log_q_(std::log1p(-p)) {
    const double expected = p * static_cast<double>(n);
    gaps_ = p < 1.0 &&
            expected <= kCenterDrawCrossover * static_cast<double>(uncovered);
  }

  /// True: select through for_each_in_block over every block.  False:
  /// sweep the uncovered ids through selects().
  [[nodiscard]] bool gaps() const { return gaps_; }

  [[nodiscard]] std::uint64_t num_blocks() const {
    return (n_ + kCenterDrawBlock - 1) / kCenterDrawBlock;
  }

  /// Sweep regime: whether uncovered id `v` is selected.
  [[nodiscard]] bool selects(std::uint64_t v) const {
    return keyed_bernoulli(seed_, key_, v, p_);
  }

  /// Gap regime: calls visit(v) for each id of block `block` the draw
  /// selects, ascending, covered or not.  Returns the uniforms evaluated:
  /// one per selected id plus the one whose gap leaves the block.
  template <class Visit>
  std::uint64_t for_each_in_block(std::uint64_t block, Visit&& visit) const {
    if (!(p_ > 0.0)) return 0;
    const std::uint64_t stream = hash_combine(seed_, key_, block);
    const std::uint64_t hi = std::min(n_, (block + 1) * kCenterDrawBlock);
    std::uint64_t v = block * kCenterDrawBlock;
    for (std::uint64_t j = 0;;) {
      const double u = unit_double(hash_combine(stream, j++));
      const double gap = std::floor(std::log1p(-u) / log_q_);
      if (gap >= static_cast<double>(hi - v)) return j;
      v += static_cast<std::uint64_t>(gap);
      visit(v);
      ++v;
    }
  }

 private:
  std::uint64_t seed_;
  std::uint64_t key_;
  double p_;
  std::uint64_t n_;
  double log_q_;  // log1p(−p), the gaps' log-base
  bool gaps_ = false;
};

/// Counter-based Exp(beta) draw for coordinates (seed, a).
double keyed_exponential(std::uint64_t seed, std::uint64_t a, double beta);

}  // namespace gclus
