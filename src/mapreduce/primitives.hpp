// Fact-1 primitives of the MR(M_G, M_L) model: sorting and (segmented)
// prefix sums in O(log_{M_L} n) rounds.
//
// These are real multi-round implementations — not shared-memory sorts
// with a fabricated round count.  Sorting is a sample sort: one round
// selects splitters from a regular sample, one round partitions into
// buckets of at most M_L pairs which each reducer sorts locally
// (recursing in the unlikely case a bucket overflows).  Prefix sums use an
// aggregation tree of fan-in M_L (up-sweep + down-sweep).  Each primitive
// returns the first failed round's Status.
#pragma once

#include <cstdint>
#include <vector>

#include "mapreduce/engine.hpp"

namespace gclus::mr {

/// Sorts `values` ascending using MR rounds on `engine`.
/// Deterministic: equal keys keep their input order (stable).
StatusOr<std::vector<std::uint64_t>> mr_sort(
    Engine& engine, std::vector<std::uint64_t> values);

/// Exclusive prefix sums of `values`; out[i] = sum of values[0..i).
/// `total_out`, if non-null, receives the grand total.
StatusOr<std::vector<std::uint64_t>> mr_prefix_sum(
    Engine& engine, const std::vector<std::uint64_t>& values,
    std::uint64_t* total_out = nullptr);

/// Segmented exclusive prefix sums: the running sum resets whenever
/// segment_id changes between consecutive positions.  segment_ids must be
/// nondecreasing (the usual post-sort layout).
StatusOr<std::vector<std::uint64_t>> mr_segmented_prefix_sum(
    Engine& engine, const std::vector<std::uint64_t>& values,
    const std::vector<std::uint32_t>& segment_ids);

}  // namespace gclus::mr
