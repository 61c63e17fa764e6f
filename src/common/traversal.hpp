// Direction-optimizing traversal knobs of the cluster-growth engine
// (core/growth), which also runs every parallel BFS.
//
// The engine expands its frontier one hop per synchronous step and can do
// so in either direction:
//   * push (top-down): frontier nodes write claims to their uncovered
//     neighbors — work proportional to the frontier's degree sum;
//   * pull (bottom-up): uncovered nodes scan their own neighbors for a
//     covered claimant — work proportional to the uncovered degree sum,
//     with no write contention.
// The classic degree-sum heuristic (Beamer et al., "Direction-Optimizing
// Breadth-First Search") switches per step: go pull when the frontier's
// degree sum exceeds 1/alpha of the uncovered degree sum, and back to push
// once the frontier shrinks below 1/beta of the node count.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gclus {

enum class TraversalMode {
  kAuto,      // per-step degree-sum heuristic (the default)
  kPushOnly,  // always top-down (the classic engine; reference behavior)
  kPullOnly,  // always bottom-up (useful for testing and ablations)
};

struct GrowthOptions {
  TraversalMode mode = TraversalMode::kAuto;

  /// Switch push -> pull when frontier_degree_sum > uncovered_degree_sum
  /// / alpha.  Larger alpha switches to pull earlier.
  double alpha = 15.0;

  /// Switch pull -> push when the frontier holds fewer than num_nodes /
  /// beta nodes.  Larger beta switches back to push later.
  double beta = 18.0;

  /// Keep a per-step GrowthStepLog in GrowthStats::steps.  Off by default:
  /// a growth over a high-diameter graph executes one step per hop, and
  /// the log would grow with the diameter for callers that never read it.
  /// The scalar push/pull counters are always maintained.
  bool record_step_log = false;
};

/// Returns the mnemonic name of a mode ("push", "pull", "auto").
const char* traversal_mode_name(TraversalMode mode);

/// Per-direction level counters reported by parallel_bfs.
struct DirectionCounts {
  std::size_t push = 0;
  std::size_t pull = 0;
};

/// The growth engine's per-step direction decision: pinned modes win
/// outright; under kAuto the hysteresis state machine switches push ->
/// pull when the frontier degree sum exceeds
/// remaining_degree_sum / alpha and back once the frontier shrinks below
/// num_nodes / beta.  `pulling` is the previous step's decision; returns
/// the new one.
[[nodiscard]] bool decide_direction(bool pulling, std::size_t frontier_size,
                                    std::size_t num_nodes,
                                    std::uint64_t frontier_degree_sum,
                                    std::uint64_t remaining_degree_sum,
                                    const GrowthOptions& options);

/// Below this frontier degree sum a push step runs inline on the caller
/// (a pull step below four times it, counting the uncovered worklist):
/// the pool dispatch (mutex + condvar round trip) and the cross-core
/// traffic of a split step would dominate the actual edge work.  Matters
/// for BFS over high-diameter graphs, whose thousands of levels each hold
/// a few thousand edges.  On a shared 4-vCPU host, single-source
/// parallel_bfs over the 1.96M-node road_like(1400, 1400) graph at 3
/// threads took (medians of 9, two processes each) 100-113 ms with this
/// cutoff, 117-119 ms with 4096, 109-120 ms with 1024 and 132-153 ms with
/// 8192; the 300k-node expander read 9.7-10.4 ms at 2048 and 10.0-10.4 ms
/// at 8192.
inline constexpr std::uint64_t kSerialPushCutoff = 2048;

/// Policy for the engine's lazily-compacted uncovered worklist: compact
/// once more than half the entries are stale, but never bother below 1024
/// entries.
[[nodiscard]] inline bool worklist_needs_compaction(std::size_t size,
                                                    std::size_t remaining) {
  return size >= 1024 && size > 2 * remaining;
}

/// Process-wide default options: GrowthOptions{} with the mode overridden
/// by the GCLUS_GROWTH_MODE environment variable (push|pull|auto), read
/// once on first use.  alpha and beta are set through GrowthOptions.
GrowthOptions default_growth_options();

}  // namespace gclus
