#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace gclus {

std::uint64_t Rng::next_below(std::uint64_t bound) {
  GCLUS_CHECK(bound > 0);
  // Lemire (2019): multiply a 64-bit draw by the bound and keep the high
  // word; reject draws falling into the biased low fringe.
  using u128 = unsigned __int128;
  std::uint64_t x = next_u64();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_exponential(double beta) {
  GCLUS_CHECK(beta > 0.0);
  // Inverse transform; 1-u avoids log(0).
  return -std::log1p(-next_double()) / beta;
}

double keyed_exponential(std::uint64_t seed, std::uint64_t a, double beta) {
  GCLUS_CHECK(beta > 0.0);
  const double u = keyed_uniform(seed, a, 0x5eedF00dULL);
  return -std::log1p(-u) / beta;
}

}  // namespace gclus
