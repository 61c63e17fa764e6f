// Deterministic random number generation.
//
// All randomness in the library flows from a single 64-bit seed through
// *counter-based* hashing: a decision attached to logical coordinates
// (seed, stream, counter) is computed by mixing those coordinates, never by
// advancing shared mutable state.  This makes every randomized algorithm a
// pure function of (input, seed) regardless of how work is scheduled across
// threads — the property the cross-implementation equivalence tests rely on.
#pragma once

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
/// keyed_exponential over (seed, phase, node) coordinates) do not need a
/// derived seed: the coordinates are the stream.  In particular, the
/// weighted decomposition's per-wave center draws intentionally share
/// CLUSTER's exact (seed, iteration, node) coordinates — that equality is
/// what makes it degenerate to CLUSTER step-for-step on unit weights.
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

/// Counter-based uniform double in [0,1) for coordinates (seed, a, b).
/// Schedule-independent: any thread evaluating the same coordinates gets
/// the same value.  Inline so a per-node sweep over b hoists the
/// loop-invariant hash_combine(seed, a).
inline double keyed_uniform(std::uint64_t seed, std::uint64_t a,
                            std::uint64_t b) {
  return static_cast<double>(hash_combine(seed, a, b) >> 11) * 0x1.0p-53;
}

/// Counter-based Bernoulli(p) draw for coordinates (seed, a, b).
inline bool keyed_bernoulli(std::uint64_t seed, std::uint64_t a,
                            std::uint64_t b, double p) {
  return keyed_uniform(seed, a, b) < p;
}

/// Counter-based Exp(beta) draw for coordinates (seed, a).
double keyed_exponential(std::uint64_t seed, std::uint64_t a, double beta);

}  // namespace gclus
