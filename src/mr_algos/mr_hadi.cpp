#include "mr_algos/mr_hadi.hpp"

#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "par/parallel_for.hpp"

namespace gclus::mr_algos {

namespace {

/// Flajolet–Martin magic constant correcting the expectation of 2^R.
constexpr double kFmPhi = 0.77351;

/// Position of the lowest zero bit.
unsigned lowest_zero_bit(std::uint32_t x) {
  return static_cast<unsigned>(std::countr_one(x));
}

}  // namespace

HadiSketch hadi_init_sketch(NodeId v, std::uint64_t seed) {
  HadiSketch s{};
  for (std::size_t r = 0; r < kHadiRegisters; ++r) {
    // Geometric bit position: #trailing zeros of a fresh hash, capped.
    const std::uint64_t h = hash_combine(seed, v, r);
    const unsigned pos = std::min<unsigned>(
        31, static_cast<unsigned>(std::countr_zero(h | (1ULL << 31))));
    s[r] = 1u << pos;
  }
  return s;
}

double hadi_estimate(const HadiSketch& sketch) {
  double sum_r = 0.0;
  for (const std::uint32_t reg : sketch) {
    sum_r += lowest_zero_bit(reg);
  }
  const double avg = sum_r / kHadiRegisters;
  return std::pow(2.0, avg) / kFmPhi;
}

StatusOr<HadiResult> mr_hadi(mr::Engine& engine, const Graph& g,
                             const HadiOptions& options) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);
  const std::size_t max_rounds =
      options.max_rounds != 0 ? options.max_rounds
                              : 4 * static_cast<std::size_t>(n);

  std::vector<HadiSketch> sketch(n);
  parallel_for(engine.pool(), 0, n, [&](std::size_t v) {
    sketch[v] = hadi_init_sketch(static_cast<NodeId>(v), options.seed);
  });

  auto global_estimate = [&] {
    double total = 0.0;
    for (NodeId v = 0; v < n; ++v) total += hadi_estimate(sketch[v]);
    return total;
  };

  HadiResult result;
  result.neighborhood_function.push_back(global_estimate());  // N(0)

  std::size_t t = 0;
  std::size_t last_growth_round = 0;
  while (t < max_rounds) {
    ++t;
    // One MR round: every node ships its sketch to every neighbor (the
    // Θ(m·K) per-round volume), each node ORs what it receives.
    std::vector<std::pair<NodeId, HadiSketch>> msgs;
    msgs.reserve(g.num_half_edges());
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId w : g.neighbors(u)) msgs.emplace_back(w, sketch[u]);
    }
    // Combiner: register-wise OR is the reducer's own fold — sketches for
    // the same destination merge before they are shuffled (the classic
    // HADI optimization; cuts the Θ(m·K) per-round volume).
    const auto merged = engine.round<NodeId, HadiSketch, NodeId, std::uint8_t>(
        std::move(msgs),
        [&](const NodeId& v, std::span<HadiSketch> inbox,
            mr::Emitter<NodeId, std::uint8_t>&) {
          HadiSketch acc = sketch[v];
          for (const HadiSketch& in : inbox) {
            for (std::size_t r = 0; r < kHadiRegisters; ++r) acc[r] |= in[r];
          }
          sketch[v] = acc;
        },
        [](const HadiSketch& a, const HadiSketch& b) {
          HadiSketch out;
          for (std::size_t r = 0; r < kHadiRegisters; ++r) {
            out[r] = a[r] | b[r];
          }
          return out;
        });
    GCLUS_RETURN_IF_ERROR(merged.status());

    const double nt = global_estimate();
    const double prev = result.neighborhood_function.back();
    result.neighborhood_function.push_back(nt);
    if (nt > prev * (1.0 + options.epsilon)) {
      last_growth_round = t;
    } else {
      break;  // converged: neighborhood function stopped growing
    }
  }

  result.rounds = t;
  result.estimate = last_growth_round;
  result.estimated_reachable = result.neighborhood_function.back() /
                               static_cast<double>(n);
  return result;
}

}  // namespace gclus::mr_algos
