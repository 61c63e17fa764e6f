// Vertex-centric superstep layer on top of the MR engine.
//
// The paper's distributed algorithms (cluster growing, BFS, HADI) are all
// level-synchronous: in each step, active vertices send messages along
// edges and every messaged vertex updates its state.  One superstep maps
// onto a constant number of MR rounds (Lemma 3: grouping messages by
// destination is one sort, i.e. O(log_{M_L} m) rounds when local memory is
// sublinear).  The layer executes one engine round per superstep and
// *charges* the additional log_{M_L} m sorting rounds to the metrics, so
// round counts reported by benches match the model's accounting.  A failed
// round ends the run and its Status is returned as is.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "mapreduce/engine.hpp"

namespace gclus::mr {

/// Outbox handed to the per-vertex compute function; a thin veneer over
/// the round's Emitter with vertex-program vocabulary.
template <typename Msg>
class Outbox {
 public:
  explicit Outbox(Emitter<NodeId, Msg>& emitter) : emitter_(emitter) {}
  void send(NodeId dest, Msg msg) { emitter_.emit(dest, std::move(msg)); }

 private:
  Emitter<NodeId, Msg>& emitter_;
};

/// Number of MR rounds one superstep costs under local memory M_L
/// (Fact 1 / Lemma 3): ceil(log_{M_L} total_items), at least 1.
inline std::size_t rounds_per_superstep(std::size_t local_memory_pairs,
                                        std::uint64_t total_items) {
  if (total_items <= 1) return 1;
  if (local_memory_pairs >= total_items) return 1;
  const double denom = std::log(
      std::max<double>(2.0, static_cast<double>(local_memory_pairs)));
  const double r = std::log(static_cast<double>(total_items)) / denom;
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(r)));
}

/// Runs a vertex program to quiescence (or `max_supersteps`).
///
/// `compute` is called once per messaged vertex and superstep as
///   compute(superstep, vertex, inbox_span, outbox)
/// and may freely mutate external per-vertex state: distinct vertices are
/// processed by distinct reducer invocations, so per-vertex state writes
/// are race-free.  Supersteps end when no messages are in flight.
///
/// `charge_items`, when nonzero, is the item count used for the Lemma-3
/// round charging (typically m, the graph's edge count); by default the
/// actual in-flight message count is used.
///
/// `combine`, when not NoCombiner, is the mapper-side message combiner
/// handed to every underlying engine round (engine.hpp documents the
/// algebraic contract: associative + commutative, and `compute` must be
/// invariant to pre-aggregated inboxes).
///
/// Returns the number of supersteps executed, or the first failed
/// round's Status.
template <typename Msg, typename Compute, typename Combine = NoCombiner>
StatusOr<std::size_t> run_supersteps(
    Engine& engine, std::vector<std::pair<NodeId, Msg>> initial,
    Compute compute, std::size_t max_supersteps = SIZE_MAX,
    std::uint64_t charge_items = 0, Combine combine = {}) {
  std::size_t superstep = 0;
  auto inflight = std::move(initial);
  while (!inflight.empty() && superstep < max_supersteps) {
    // Charge the Fact-1 sorting rounds beyond the one the engine counts.
    const std::uint64_t items =
        charge_items != 0 ? charge_items : inflight.size();
    const std::size_t cost =
        rounds_per_superstep(engine.config().local_memory_pairs, items);
    engine.mutable_metrics().rounds += cost - 1;

    auto delivered = engine.round<NodeId, Msg, NodeId, Msg>(
        std::move(inflight),
        [&](const NodeId& vertex, std::span<Msg> inbox,
            Emitter<NodeId, Msg>& emitter) {
          Outbox<Msg> outbox(emitter);
          compute(superstep, vertex, inbox, outbox);
        },
        combine);
    GCLUS_RETURN_IF_ERROR(delivered.status());
    inflight = std::move(delivered).value();
    ++superstep;
  }
  return superstep;
}

}  // namespace gclus::mr
