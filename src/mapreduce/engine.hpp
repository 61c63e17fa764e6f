// The round-based MR(M_G, M_L) execution engine.
//
// Engine::round() implements exactly one round of the model as a two-phase
// external shuffle on Config::pool (or the global pool):
//
//   Map phase    — workers scan fixed-size chunks of the input and scatter
//                  each pair into per-worker, per-partition buckets (the
//                  hash partitioner; partition count pinned in Config, so
//                  the output never depends on the worker count).  When a
//                  round declares a *combiner* — an associative,
//                  commutative fold over same-key values — buckets are
//                  pre-aggregated before they travel further.  If buffered
//                  bytes exceed Config::spill_memory_bytes, buckets are
//                  sorted, combined, and appended to per-partition run
//                  files on disk (spill.hpp), so a round's shuffle memory
//                  is genuinely bounded, not merely accounted.
//
//   Reduce phase — each partition sort-merges its runs (in-memory
//                  leftovers + spilled) into one key-ordered stream and
//                  feeds each same-key group to the user reducer.
//
// Determinism: pairs are tagged with their input position, runs are sorted
// by (key, position), and the merge is stable on that order, so the
// concatenated output is a pure function of the input — identical across
// worker counts and across spilled vs in-memory execution.  Rounds with a
// combiner additionally require the standard MR combiner contract (the
// reducer must be invariant to pre-aggregation of its inputs) for the
// *reducer output* to be byte-identical; every combiner declared in
// mr_algos/ satisfies it (min-folds, dedup, sketch OR).
//
// Errors: round() is the engine's one entry point and returns StatusOr;
// lost spilled data comes back as kIoError / kDataLoss (see round()).
// M_L / M_G violations are recorded in Metrics, never enforced.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mapreduce/config.hpp"
#include "mapreduce/spill.hpp"
#include "par/thread_pool.hpp"

namespace gclus::mr {

/// Collects the pairs a reducer emits during one round.
template <typename OutK, typename OutV>
class Emitter {
 public:
  explicit Emitter(std::vector<std::pair<OutK, OutV>>& sink) : sink_(sink) {}
  void emit(OutK key, OutV value) {
    sink_.emplace_back(std::move(key), std::move(value));
  }

 private:
  std::vector<std::pair<OutK, OutV>>& sink_;
};

/// Tag type for "this round has no combiner".
struct NoCombiner {};

/// Applies environment overrides (GCLUS_MR_SPILL_BYTES for engines left at
/// the unbounded default, GCLUS_MR_SPILL_STRICT) — how CI's low-memory job
/// forces the whole MR test suite through the out-of-core path.
Config apply_env_overrides(Config config);

class Engine {
 public:
  explicit Engine(Config config = {})
      : config_(apply_env_overrides(std::move(config))) {
    GCLUS_CHECK(config_.num_partitions >= 1);
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  Metrics& mutable_metrics() { return metrics_; }
  void reset_metrics() { metrics_.reset(); }

  /// Config::pool, or the process-global pool when that is null (the same
  /// rule as RunContext).
  ThreadPool& pool() {
    return config_.pool != nullptr ? *config_.pool : ThreadPool::global();
  }

  /// Executes one MR round.
  ///
  /// `Reduce` is invoked as reduce(const K& key, std::span<V> values,
  /// Emitter<OutK, OutV>&).  Keys must be totally ordered (operator<) and
  /// values arrive in a deterministic order (sorted by their original
  /// position in `input`).
  ///
  /// `Combine`, unless NoCombiner, is an associative, commutative fold
  /// `V(const V&, const V&)` over same-key values; it pre-aggregates
  /// buckets before they are buffered onward or spilled, cutting shuffle
  /// volume (tracked in Metrics::combiner_pairs_in/out).  With a combiner,
  /// a reducer group holds one folded value per run rather than every
  /// original value, so only declare one when the reducer is invariant to
  /// that (the standard MR combiner contract).  Config::enable_combiners
  /// == false ignores it.
  ///
  /// Spill failures degrade rather than fail: a run that cannot be
  /// appended to the primary spill directory is retried against
  /// Config::spill_fallback_dir (when set), and if that also fails the
  /// engine stops spilling and keeps the rest of the round's shuffle in
  /// memory — the output is byte-identical either way (the (key, pos)
  /// merge order and the combiner contract are independent of run
  /// placement).  Failures that *lose already-spilled data* — a sealed
  /// file that cannot be flushed, a run file truncated or unreadable
  /// during the reduce merge — cannot be degraded around and come back as
  /// kIoError / kDataLoss.
  template <typename K, typename V, typename OutK, typename OutV,
            typename Reduce, typename Combine = NoCombiner>
  StatusOr<std::vector<std::pair<OutK, OutV>>> round(
      std::vector<std::pair<K, V>> input, Reduce reduce,
      Combine combine = {}) {
    account_round(input.size(), sizeof(std::pair<K, V>));

    // A pair tagged with its input position: the reproducibility handle
    // every later ordering decision hangs off.
    struct Tagged {
      K key;
      V value;
      std::uint64_t pos;
    };
    const auto tagged_less = [](const Tagged& a, const Tagged& b) {
      if (a.key < b.key) return true;
      if (b.key < a.key) return false;
      return a.pos < b.pos;
    };

    constexpr bool kSpillable = std::is_trivially_copyable_v<K> &&
                                std::is_trivially_copyable_v<V>;
    constexpr bool kHasCombiner = !std::is_same_v<Combine, NoCombiner>;
    const bool use_combiner = kHasCombiner && config_.enable_combiners;
    const bool spill_enabled = kSpillable && config_.spill_memory_bytes > 0 &&
                               config_.spill_memory_bytes != kSpillUnbounded;

    ThreadPool& workers = pool();
    const std::size_t num_workers = std::max<std::size_t>(
        1, workers.num_threads());
    const std::size_t num_partitions = config_.num_partitions;
    const std::uint64_t per_worker_budget =
        spill_enabled
            ? std::max<std::uint64_t>(
                  config_.spill_memory_bytes / num_workers, sizeof(Tagged))
            : std::numeric_limits<std::uint64_t>::max();

    // Folds equal-key neighbors of a (key, pos)-sorted run; the minimum
    // position survives as the fold's representative.
    const auto combine_sorted_run = [&](std::vector<Tagged>& run,
                                        std::uint64_t& pairs_in,
                                        std::uint64_t& pairs_out) {
      if constexpr (kHasCombiner) {
        pairs_in += run.size();
        std::size_t out = 0;
        std::size_t i = 0;
        while (i < run.size()) {
          Tagged acc = std::move(run[i]);
          std::size_t j = i + 1;
          while (j < run.size() && !(acc.key < run[j].key) &&
                 !(run[j].key < acc.key)) {
            acc.value = combine(acc.value, run[j].value);
            ++j;
          }
          run[out++] = std::move(acc);
          i = j;
        }
        run.resize(out);
        pairs_out += run.size();
      } else {
        (void)run;
        (void)pairs_in;
        (void)pairs_out;
      }
    };

    // --- Map phase: parallel partition + (combine) + spill. ---
    struct Shard {
      std::vector<std::vector<Tagged>> buckets;
      std::uint64_t buffered_bytes = 0;
      std::uint64_t peak_bytes = 0;
      std::uint64_t combiner_in = 0;
      std::uint64_t combiner_out = 0;
      std::uint64_t spilled_runs = 0;
    };
    std::vector<Shard> shards(num_workers);

    // Spill target escalation: primary dir -> fallback dir -> in-memory.
    // `tier` only ever advances, so once a target has failed no worker
    // goes back to it; runs already appended to an earlier tier stay
    // valid (a failed append leaves its partition untouched) and are
    // merged alongside everything else in the reduce phase.
    enum : int { kPrimary = 0, kFallback = 1, kDegraded = 2 };
    std::array<std::unique_ptr<SpillSession>, 2> sessions;
    std::mutex spill_mu;
    std::atomic<int> tier{kPrimary};
    std::atomic<std::uint64_t> fallback_runs{0};
    const auto session_at = [&](int t) -> SpillSession& {
      std::lock_guard<std::mutex> lock(spill_mu);
      auto& slot = sessions[static_cast<std::size_t>(t)];
      if (slot == nullptr) {
        slot = std::make_unique<SpillSession>(
            t == kPrimary ? config_.spill_dir : config_.spill_fallback_dir,
            num_partitions, sizeof(Tagged));
      }
      return *slot;
    };
    const auto escalate = [&](int from, const Status& why) {
      const int to = (from == kPrimary && !config_.spill_fallback_dir.empty())
                         ? kFallback
                         : kDegraded;
      int expected = from;
      if (tier.compare_exchange_strong(expected, to)) {
        std::fprintf(stderr,
                     "gclus: MR spill %s: %s\n",
                     to == kFallback
                         ? "falling back to GCLUS_MR_SPILL_FALLBACK_DIR"
                         : "degrading to in-memory shuffle",
                     why.to_string().c_str());
      }
    };
    // Appends one run to the current tier; false = degraded, caller keeps
    // the bucket in memory.
    const auto spill_append = [&](std::size_t p, const void* data,
                                  std::uint64_t count) {
      for (;;) {
        const int t = tier.load(std::memory_order_relaxed);
        if (t == kDegraded) return false;
        const Status st = session_at(t).append_run(p, data, count);
        if (st.ok()) {
          if (t == kFallback) {
            fallback_runs.fetch_add(1, std::memory_order_relaxed);
          }
          return true;
        }
        escalate(t, st);
      }
    };

    // Chunked scan: chunk boundaries depend only on the input size, and
    // the position tag makes the scatter order irrelevant, so dynamic
    // chunk assignment cannot leak into the output.
    constexpr std::size_t kChunkPairs = 2048;
    const std::size_t num_chunks =
        (input.size() + kChunkPairs - 1) / kChunkPairs;
    std::atomic<std::size_t> chunk_cursor{0};
    workers.run_on_workers([&](std::size_t w) {
      Shard& shard = shards[w];
      shard.buckets.resize(num_partitions);
      const auto flush_to_disk = [&] {
        if constexpr (kSpillable) {
          for (std::size_t p = 0; p < num_partitions; ++p) {
            auto& bucket = shard.buckets[p];
            if (bucket.empty()) continue;
            std::sort(bucket.begin(), bucket.end(), tagged_less);
            if (use_combiner) {
              combine_sorted_run(bucket, shard.combiner_in,
                                 shard.combiner_out);
            }
            if (!spill_append(p, bucket.data(), bucket.size())) {
              // Degraded: this (sorted, combined) bucket and everything
              // after it stay in memory; the reduce phase re-sorts and
              // re-folds, which the combiner contract makes exact.
              break;
            }
            ++shard.spilled_runs;
            std::vector<Tagged>().swap(bucket);  // actually release memory
          }
          shard.buffered_bytes = 0;
          for (const auto& bucket : shard.buckets) {
            shard.buffered_bytes += bucket.size() * sizeof(Tagged);
          }
        }
      };
      for (;;) {
        const std::size_t c =
            chunk_cursor.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) break;
        const std::size_t begin = c * kChunkPairs;
        const std::size_t end =
            std::min(input.size(), begin + kChunkPairs);
        for (std::size_t i = begin; i < end; ++i) {
          auto& [k, v] = input[i];
          const std::size_t p = partition_of(k, num_partitions);
          if (spill_enabled &&
              tier.load(std::memory_order_relaxed) != kDegraded &&
              shard.buffered_bytes + sizeof(Tagged) > per_worker_budget) {
            flush_to_disk();
          }
          shard.buckets[p].push_back(
              Tagged{std::move(k), std::move(v), static_cast<std::uint64_t>(i)});
          shard.buffered_bytes += sizeof(Tagged);
          shard.peak_bytes =
              std::max(shard.peak_bytes, shard.buffered_bytes);
        }
      }
    });
    input.clear();
    input.shrink_to_fit();
    for (const auto& session : sessions) {
      // A seal failure means already-spilled (and evicted) data may never
      // reach the file: there is nothing left to degrade to.
      if (session != nullptr) GCLUS_RETURN_IF_ERROR(session->seal());
    }

    // --- Reduce phase: per-partition sort-merge of all runs. ---
    std::vector<std::vector<std::pair<OutK, OutV>>> outputs(num_partitions);
    std::atomic<std::size_t> max_group{0};
    std::atomic<std::uint64_t> runs_merged{0};
    std::atomic<std::uint64_t> merge_buffer_peak{0};
    std::atomic<std::size_t> part_cursor{0};
    // Workers cannot early-return out of run_on_workers, so merge-phase
    // failures park the first error here and the round reports it after
    // the barrier.
    std::mutex err_mu;
    Status round_status;
    const auto record_error = [&](Status st) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (round_status.ok()) round_status = std::move(st);
    };
    workers.run_on_workers([&](std::size_t) {
      std::uint64_t combiner_in = 0;
      std::uint64_t combiner_out = 0;
      std::uint64_t my_merge_peak = 0;
      std::vector<V> group;
      for (;;) {
        const std::size_t p =
            part_cursor.fetch_add(1, std::memory_order_relaxed);
        if (p >= num_partitions) break;

        // In-memory leftovers become sorted (combined) runs, worker order.
        std::vector<std::vector<Tagged>> mem_runs;
        for (std::size_t w = 0; w < num_workers; ++w) {
          auto& bucket = shards[w].buckets[p];
          if (bucket.empty()) continue;
          std::sort(bucket.begin(), bucket.end(), tagged_less);
          if (use_combiner) {
            combine_sorted_run(bucket, combiner_in, combiner_out);
          }
          mem_runs.push_back(std::move(bucket));
        }

        Emitter<OutK, OutV> emitter(outputs[p]);
        std::size_t local_max = 0;

        // Spilled runs stream through bounded cursors; the whole merge
        // holds one refill buffer per run, never a whole partition.
        std::vector<RunCursor> disk_runs;
        if constexpr (kSpillable) {
          std::size_t total_disk = 0;
          for (const auto& session : sessions) {
            if (session != nullptr) total_disk += session->num_runs(p);
          }
          if (total_disk > 0) {
            const std::size_t buffer_records = std::clamp<std::size_t>(
                per_worker_budget / (sizeof(Tagged) * total_disk), 1, 4096);
            my_merge_peak = std::max<std::uint64_t>(
                my_merge_peak, static_cast<std::uint64_t>(buffer_records) *
                                   sizeof(Tagged) * total_disk);
            bool open_failed = false;
            for (const auto& session : sessions) {
              if (session == nullptr || session->num_runs(p) == 0) continue;
              auto cursors = session->open_partition(p, buffer_records);
              if (!cursors.ok()) {
                record_error(std::move(cursors).status());
                open_failed = true;
                break;
              }
              for (auto& c : *cursors) disk_runs.push_back(std::move(c));
            }
            if (open_failed) continue;  // round fails; skip the partition
          }
        }
        const std::size_t total_runs = mem_runs.size() + disk_runs.size();
        if (total_runs == 0) continue;
        runs_merged.fetch_add(total_runs, std::memory_order_relaxed);

        if (disk_runs.empty() && mem_runs.size() == 1) {
          // Fast path: one in-memory run reduces by linear group scan
          // (also the only path for non-trivially-copyable keys/values).
          auto& run = mem_runs.front();
          std::size_t i = 0;
          while (i < run.size()) {
            std::size_t j = i;
            group.clear();
            while (j < run.size() && !(run[i].key < run[j].key) &&
                   !(run[j].key < run[i].key)) {
              group.push_back(std::move(run[j].value));
              ++j;
            }
            local_max = std::max(local_max, group.size());
            reduce(run[i].key, std::span<V>(group), emitter);
            i = j;
          }
        } else {
          merge_runs<Tagged, K, V>(mem_runs, disk_runs, tagged_less, group,
                                   local_max,
                                   [&](const K& key, std::span<V> values) {
                                     reduce(key, values, emitter);
                                   });
        }

        // A cursor ends its stream on error exactly like at end-of-run,
        // so the merge cannot tell a truncated run from a complete one —
        // only the parked status can.
        for (const RunCursor& cursor : disk_runs) {
          if (!cursor.status().ok()) record_error(cursor.status());
        }

        std::size_t seen = max_group.load(std::memory_order_relaxed);
        while (local_max > seen &&
               !max_group.compare_exchange_weak(seen, local_max,
                                                std::memory_order_relaxed)) {
        }
      }
      shards_accumulate(combiner_in, combiner_out);
      merge_buffer_peak.fetch_add(my_merge_peak, std::memory_order_relaxed);
    });

    GCLUS_RETURN_IF_ERROR(std::move(round_status));

    const bool degraded = tier.load() == kDegraded;
    if (degraded) ++metrics_.spill_degraded_rounds;
    metrics_.spill_fallback_runs += fallback_runs.load();
    std::uint64_t bytes_spilled = 0;
    for (const auto& session : sessions) {
      if (session == nullptr) continue;
      bytes_spilled += session->bytes_written();
      metrics_.spill_write_retries += session->write_retries();
    }
    account_groups(max_group.load());
    account_shuffle(shards, bytes_spilled, runs_merged.load(),
                    merge_buffer_peak.load(), sizeof(Tagged), spill_enabled,
                    degraded, num_workers);

    // --- Concatenate outputs in partition order (deterministic). ---
    std::size_t total = 0;
    for (const auto& o : outputs) total += o.size();
    std::vector<std::pair<OutK, OutV>> result;
    result.reserve(total);
    for (auto& o : outputs) {
      std::move(o.begin(), o.end(), std::back_inserter(result));
    }
    return result;
  }

 private:
  template <typename K>
  static std::size_t partition_of(const K& key, std::size_t num_partitions) {
    if constexpr (std::is_integral_v<K>) {
      return static_cast<std::size_t>(
          mix64(static_cast<std::uint64_t>(key)) % num_partitions);
    } else {
      return std::hash<K>{}(key) % num_partitions;
    }
  }

  /// K-way stable merge of sorted runs by (key, pos), streaming each
  /// same-key group through `consume(key, values)`.
  template <typename Tagged, typename K, typename V, typename Less,
            typename Consume>
  static void merge_runs(std::vector<std::vector<Tagged>>& mem_runs,
                         std::vector<RunCursor>& disk_runs, Less less,
                         std::vector<V>& group, std::size_t& local_max,
                         Consume consume) {
    struct Source {
      const Tagged* cur;
      const Tagged* end;       // memory runs; nullptr for disk
      RunCursor* cursor;       // disk runs; nullptr for memory
      void advance() {
        if (cursor != nullptr) {
          cur = static_cast<const Tagged*>(cursor->next());
        } else {
          ++cur;
          if (cur == end) cur = nullptr;
        }
      }
    };
    std::vector<Source> sources;
    sources.reserve(mem_runs.size() + disk_runs.size());
    for (auto& run : mem_runs) {
      sources.push_back(Source{run.data(), run.data() + run.size(), nullptr});
    }
    for (auto& cursor : disk_runs) {
      const auto* first = static_cast<const Tagged*>(cursor.next());
      if (first != nullptr) sources.push_back(Source{first, nullptr, &cursor});
    }

    // Min-heap of run heads ordered by (key, pos).  Positions are unique
    // (each input pair lands in exactly one run; a combiner keeps the
    // minimum position of its fold), so heads never tie.
    const auto heap_greater = [&](const Source* a, const Source* b) {
      return less(*b->cur, *a->cur);
    };
    std::vector<Source*> heap;
    heap.reserve(sources.size());
    for (auto& s : sources) {
      if (s.cur != nullptr) heap.push_back(&s);
    }
    std::make_heap(heap.begin(), heap.end(), heap_greater);

    group.clear();
    bool have_key = false;
    // The group key is copied out of the record (cursor refills may reuse
    // the buffer the record pointer aims into).
    K current_key{};
    const auto finish_group = [&] {
      if (!have_key) return;
      local_max = std::max(local_max, group.size());
      consume(current_key, std::span<V>(group));
      group.clear();
    };
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_greater);
      Source* s = heap.back();
      heap.pop_back();
      const Tagged& rec = *s->cur;
      // The merged stream is key-nondecreasing, so a strictly greater key
      // closes the current group.
      if (!have_key || current_key < rec.key) {
        finish_group();
        current_key = rec.key;
        have_key = true;
      }
      group.push_back(rec.value);
      s->advance();
      if (s->cur != nullptr) {
        heap.push_back(s);
        std::push_heap(heap.begin(), heap.end(), heap_greater);
      }
    }
    finish_group();
  }

  void account_round(std::size_t pairs, std::size_t pair_bytes) {
    ++metrics_.rounds;
    metrics_.pairs_shuffled += pairs;
    metrics_.bytes_shuffled += static_cast<std::uint64_t>(pairs) * pair_bytes;
    metrics_.max_round_pairs =
        std::max<std::uint64_t>(metrics_.max_round_pairs, pairs);
    if (pairs > config_.global_memory_pairs) {
      metrics_.global_memory_exceeded = true;
    }
  }

  void account_groups(std::size_t max_group) {
    metrics_.max_reducer_pairs =
        std::max(metrics_.max_reducer_pairs, max_group);
    if (max_group > config_.local_memory_pairs) {
      metrics_.local_memory_exceeded = true;
    }
  }

  template <typename Shards>
  void account_shuffle(const Shards& shards, std::uint64_t bytes_spilled,
                       std::uint64_t runs_merged,
                       std::uint64_t merge_buffer_peak,
                       std::size_t record_size, bool spill_enabled,
                       bool degraded, std::size_t num_workers) {
    std::uint64_t round_peak = 0;
    for (const auto& shard : shards) {
      round_peak += shard.peak_bytes;
      metrics_.combiner_pairs_in += shard.combiner_in;
      metrics_.combiner_pairs_out += shard.combiner_out;
      metrics_.spill_runs += shard.spilled_runs;
    }
    {
      std::lock_guard<std::mutex> lock(reduce_combiner_mu_);
      metrics_.combiner_pairs_in += reduce_combiner_in_;
      metrics_.combiner_pairs_out += reduce_combiner_out_;
      reduce_combiner_in_ = 0;
      reduce_combiner_out_ = 0;
    }
    metrics_.peak_shuffle_buffer_bytes =
        std::max(metrics_.peak_shuffle_buffer_bytes, round_peak);
    metrics_.peak_merge_buffer_bytes =
        std::max(metrics_.peak_merge_buffer_bytes, merge_buffer_peak);
    metrics_.runs_merged += runs_merged;
    metrics_.bytes_spilled += bytes_spilled;
    // A degraded round holds the shuffle in memory by design; its peak is
    // legitimately above budget, so the strict check applies only to
    // rounds where spilling actually worked.
    if (spill_enabled && config_.spill_strict && !degraded) {
      const std::uint64_t allowed = std::max<std::uint64_t>(
          config_.spill_memory_bytes,
          static_cast<std::uint64_t>(num_workers) * record_size);
      GCLUS_CHECK(round_peak <= allowed,
                  "MR spill budget exceeded: buffered ", round_peak,
                  " bytes > ", allowed, " allowed");
    }
  }

  /// Reduce-phase workers fold their combiner counters through here (the
  /// map-phase ones live in the shards and need no lock).
  void shards_accumulate(std::uint64_t combiner_in,
                         std::uint64_t combiner_out) {
    if (combiner_in == 0 && combiner_out == 0) return;
    std::lock_guard<std::mutex> lock(reduce_combiner_mu_);
    reduce_combiner_in_ += combiner_in;
    reduce_combiner_out_ += combiner_out;
  }

  Config config_;
  Metrics metrics_;
  std::mutex reduce_combiner_mu_;
  std::uint64_t reduce_combiner_in_ = 0;
  std::uint64_t reduce_combiner_out_ = 0;
};

}  // namespace gclus::mr
