#include "mapreduce/primitives.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gclus::mr {

namespace {

/// Effective reducer capacity: the configured M_L, clamped to a sane floor
/// so degenerate configurations still terminate.
std::size_t capacity(const Engine& engine) {
  return std::max<std::size_t>(2, engine.config().local_memory_pairs);
}

}  // namespace

namespace {

/// Sort items are (value, original position): the position component makes
/// every key distinct, so splitters always partition strictly and
/// stability falls out for free.
using SortItem = std::pair<std::uint64_t, std::uint64_t>;

}  // namespace

StatusOr<std::vector<std::uint64_t>> mr_sort(
    Engine& engine, std::vector<std::uint64_t> values) {
  const std::size_t n = values.size();
  if (n <= 1) return values;
  const std::size_t cap = capacity(engine);

  std::vector<SortItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) items.emplace_back(values[i], i);
  values.clear();
  values.shrink_to_fit();

  // Ordered bucket list; buckets over the reducer capacity are re-split,
  // all in the SAME pair of rounds per level (map-side sampling + reduce
  // splitter selection, then map-side partition + reduce local sort).
  // Levels shrink bucket sizes by ~cap/2, so rounds = O(log_{M_L} n).
  std::vector<std::vector<SortItem>> buckets(1);
  buckets[0] = std::move(items);

  constexpr std::size_t kOversample = 8;
  while (true) {
    std::vector<std::size_t> oversized;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].size() > cap) oversized.push_back(b);
    }
    if (oversized.empty()) break;

    // --- Round A: per-bucket splitter selection from a map-side sample.
    // Each oversized bucket contributes a regular sample small enough for
    // one reducer; the reducer emits child-count-1 splitters.
    using SampleKV = std::pair<std::uint32_t, SortItem>;
    std::vector<SampleKV> sample_input;
    std::vector<std::size_t> children_of(oversized.size());
    for (std::size_t oi = 0; oi < oversized.size(); ++oi) {
      const auto& bucket = buckets[oversized[oi]];
      const std::size_t children =
          std::min(bucket.size(), 2 * ((bucket.size() - 1) / cap + 1));
      children_of[oi] = children;
      const std::size_t target = std::min(cap, children * kOversample);
      const std::size_t stride = std::max<std::size_t>(
          1, bucket.size() / target);
      for (std::size_t i = 0; i < bucket.size(); i += stride) {
        sample_input.emplace_back(static_cast<std::uint32_t>(oi), bucket[i]);
      }
    }
    std::vector<std::vector<SortItem>> splitters(oversized.size());
    const auto sampled =
        engine.round<std::uint32_t, SortItem, std::uint32_t, std::uint8_t>(
            std::move(sample_input),
            [&](const std::uint32_t& oi, std::span<SortItem> group,
                Emitter<std::uint32_t, std::uint8_t>&) {
              std::vector<SortItem> s(group.begin(), group.end());
              std::sort(s.begin(), s.end());
              const std::size_t children = children_of[oi];
              auto& sp = splitters[oi];
              for (std::size_t c = 1; c < children; ++c) {
                sp.push_back(s[c * s.size() / children]);
              }
              sp.erase(std::unique(sp.begin(), sp.end()), sp.end());
            });
    GCLUS_RETURN_IF_ERROR(sampled.status());

    // --- Round B: map-side partition against the splitters, reduce-side
    // local sort of every child bucket that now fits.
    using PartKV = std::pair<std::uint64_t, SortItem>;
    std::vector<PartKV> part_input;
    // Child buckets get globally ordered ids: walk the bucket list and
    // splice children in place of their parent.
    std::vector<std::vector<SortItem>> next;
    std::vector<std::size_t> child_base(oversized.size());
    {
      std::size_t oi = 0;
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (oi < oversized.size() && oversized[oi] == b) {
          child_base[oi] = next.size();
          for (std::size_t c = 0; c <= splitters[oi].size(); ++c) {
            next.emplace_back();
          }
          ++oi;
        } else {
          next.push_back(std::move(buckets[b]));
        }
      }
    }
    for (std::size_t oi = 0; oi < oversized.size(); ++oi) {
      const auto& sp = splitters[oi];
      for (const SortItem& item : buckets[oversized[oi]]) {
        const std::size_t child =
            std::upper_bound(sp.begin(), sp.end(), item) - sp.begin();
        part_input.emplace_back(child_base[oi] + child, item);
      }
    }
    const auto partitioned =
        engine.round<std::uint64_t, SortItem, std::uint64_t, std::uint8_t>(
            std::move(part_input),
            [&](const std::uint64_t& child, std::span<SortItem> group,
                Emitter<std::uint64_t, std::uint8_t>&) {
              auto& bucket = next[child];
              bucket.assign(group.begin(), group.end());
              if (bucket.size() <= cap) {
                std::sort(bucket.begin(), bucket.end());
              }
            });
    GCLUS_RETURN_IF_ERROR(partitioned.status());
    buckets = std::move(next);
  }

  // Small buckets that never overflowed still need their one-round local
  // sort (the single-bucket n <= cap case lands here).
  bool any_unsorted = false;
  for (const auto& bucket : buckets) {
    if (!std::is_sorted(bucket.begin(), bucket.end())) {
      any_unsorted = true;
      break;
    }
  }
  if (any_unsorted) {
    using KV = std::pair<std::uint32_t, SortItem>;
    std::vector<KV> input;
    input.reserve(n);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      for (const SortItem& item : buckets[b]) {
        input.emplace_back(static_cast<std::uint32_t>(b), item);
      }
    }
    const auto sorted =
        engine.round<std::uint32_t, SortItem, std::uint32_t, std::uint8_t>(
            std::move(input),
            [&](const std::uint32_t& b, std::span<SortItem> group,
                Emitter<std::uint32_t, std::uint8_t>&) {
              auto& bucket = buckets[b];
              bucket.assign(group.begin(), group.end());
              std::sort(bucket.begin(), bucket.end());
            });
    GCLUS_RETURN_IF_ERROR(sorted.status());
  }

  std::vector<std::uint64_t> result;
  result.reserve(n);
  for (const auto& bucket : buckets) {
    for (const SortItem& item : bucket) result.push_back(item.first);
  }
  return result;
}

StatusOr<std::vector<std::uint64_t>> mr_prefix_sum(
    Engine& engine, const std::vector<std::uint64_t>& values,
    std::uint64_t* total_out) {
  const std::size_t n = values.size();
  if (n == 0) {
    if (total_out != nullptr) *total_out = 0;
    return std::vector<std::uint64_t>{};
  }
  const std::size_t fan = capacity(engine);

  // Up-sweep: level l holds one aggregate per block of fan^l inputs.
  // levels[0] = values; levels[l+1][b] = sum of levels[l][b*fan..(b+1)*fan).
  std::vector<std::vector<std::uint64_t>> levels;
  levels.push_back(values);
  while (levels.back().size() > 1) {
    const auto& cur = levels.back();
    // (size-1)/fan + 1 avoids the overflow of size+fan-1 when M_L is
    // unbounded (fan == SIZE_MAX).
    const std::size_t blocks = (cur.size() - 1) / fan + 1;
    using KV = std::pair<std::uint64_t, std::uint64_t>;
    std::vector<KV> input;
    input.reserve(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      input.emplace_back(i / fan, cur[i]);
    }
    std::vector<std::uint64_t> next(blocks, 0);
    const auto summed =
        engine.round<std::uint64_t, std::uint64_t, std::uint64_t,
                     std::uint64_t>(
            std::move(input),
            [&](const std::uint64_t& block, std::span<std::uint64_t> group,
                Emitter<std::uint64_t, std::uint64_t>&) {
              std::uint64_t sum = 0;
              for (const auto v : group) sum += v;
              next[block] = sum;
            });
    GCLUS_RETURN_IF_ERROR(summed.status());
    levels.push_back(std::move(next));
  }
  if (total_out != nullptr) *total_out = levels.back()[0];

  // Down-sweep: push exclusive offsets back down, one round per level.
  // offsets[l][b] = sum of all inputs before block b of level l.
  std::vector<std::uint64_t> offsets_above(1, 0);  // top level: single block
  for (std::size_t l = levels.size() - 1; l-- > 0;) {
    const auto& cur = levels[l];
    using KV = std::pair<std::uint64_t, std::uint64_t>;
    // Key = parent block; values = children values tagged by position.
    // Emit one offset per child.  We encode (child_index, value) pairs by
    // sending index and value through separate rounds would double cost;
    // instead the reducer recomputes the running sum over its ≤ fan
    // children, which it receives in deterministic input order.
    std::vector<KV> input;
    input.reserve(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      input.emplace_back(i / fan, cur[i]);
    }
    std::vector<std::uint64_t> offsets(cur.size(), 0);
    const auto offset =
        engine.round<std::uint64_t, std::uint64_t, std::uint64_t,
                     std::uint64_t>(
            std::move(input),
            [&](const std::uint64_t& block, std::span<std::uint64_t> group,
                Emitter<std::uint64_t, std::uint64_t>&) {
              std::uint64_t running = offsets_above[block];
              for (std::size_t c = 0; c < group.size(); ++c) {
                offsets[block * fan + c] = running;
                running += group[c];
              }
            });
    GCLUS_RETURN_IF_ERROR(offset.status());
    offsets_above = std::move(offsets);
  }
  return offsets_above;
}

StatusOr<std::vector<std::uint64_t>> mr_segmented_prefix_sum(
    Engine& engine, const std::vector<std::uint64_t>& values,
    const std::vector<std::uint32_t>& segment_ids) {
  GCLUS_CHECK(values.size() == segment_ids.size());
  for (std::size_t i = 1; i < segment_ids.size(); ++i) {
    GCLUS_CHECK(segment_ids[i - 1] <= segment_ids[i],
                "segment ids must be nondecreasing");
  }
  // Reduce to two plain prefix sums: a global one over the values, and one
  // over per-position "segment head sums".  For position i in segment s,
  // segmented[i] = prefix[i] − prefix[head(s)], where head(s) is the first
  // position of s.  head-sums are broadcast via one extra MR round keyed by
  // segment.
  const std::size_t n = values.size();
  GCLUS_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> prefix,
                         mr_prefix_sum(engine, values));

  using KV = std::pair<std::uint32_t, std::uint64_t>;
  std::vector<KV> heads;
  heads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_head = (i == 0) || (segment_ids[i] != segment_ids[i - 1]);
    if (is_head) heads.emplace_back(segment_ids[i], prefix[i]);
  }
  std::vector<std::uint64_t> head_prefix(
      segment_ids.empty() ? 0 : segment_ids.back() + 1, 0);
  const auto broadcast =
      engine.round<std::uint32_t, std::uint64_t, std::uint32_t,
                   std::uint64_t>(
          std::move(heads),
          [&](const std::uint32_t& seg, std::span<std::uint64_t> group,
              Emitter<std::uint32_t, std::uint64_t>&) {
            head_prefix[seg] = group.front();
          });
  GCLUS_RETURN_IF_ERROR(broadcast.status());

  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = prefix[i] - head_prefix[segment_ids[i]];
  }
  return out;
}

}  // namespace gclus::mr
