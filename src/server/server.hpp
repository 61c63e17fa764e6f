// QueryServer — bounded-queue, multi-worker execution on top of
// QueryEngine.
//
// Clients submit *batches* of queries (amortizing one queue round-trip
// over hundreds of lookups — the engine's per-query cost is tens of
// nanoseconds, so per-query locking would be all overhead).  A fixed pool
// of worker threads drains a bounded FIFO of batches; each worker owns
// its QueryScratch, the engine is shared read-only.  When the queue is
// full, try_submit sheds the batch with kResourceExhausted instead of
// queueing unbounded work — the caller decides whether to retry, back
// off, or drop (submit() blocks for space instead).  Both submission
// paths return kUnavailable once shutdown() has begun: with remote
// clients feeding the queue (src/net/), losing the submit-vs-shutdown
// race is a routine event during every graceful drain, not a caller bug,
// so it must propagate as a Status the front end can turn into a wire
// error instead of aborting the process.
//
// Determinism: a QueryResult is a pure function of (engine, query), never
// of scheduling — workers share no mutable state besides the queue — so N
// concurrent workers produce answers byte-identical to serial execution
// of the same stream.  tests/test_server.cpp pins this under TSan.
//
// Engine hot-swap: the server holds the engine through a
// shared_ptr<const QueryEngine> and each worker pins a snapshot per
// batch, so swap_engine() can atomically replace the artifact under live
// traffic (the net front end's hot-reload) — every batch is answered
// entirely by one engine version, never a mix, and the old engine is
// freed when its last in-flight batch completes.
//
// Environment defaults (read when the corresponding option is 0):
//   GCLUS_SERVER_WORKERS      worker thread count        (default 4)
//   GCLUS_SERVER_QUEUE_DEPTH  max queued batches = the shed threshold
//                             (default 128)
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "server/engine.hpp"

namespace gclus::server {

enum class QueryKind : std::uint8_t {
  kApproxDistance = 0,
  kSameCluster = 1,
  kClusterNeighborhood = 2,
};

struct Query {
  QueryKind kind = QueryKind::kApproxDistance;
  NodeId u = 0;
  /// kApproxDistance / kSameCluster: the second node id.
  /// kClusterNeighborhood: the hop radius in the quotient graph.
  std::uint32_t arg = 0;
};

struct QueryResult {
  /// kOk, or kInvalidArgument for an out-of-range node id.  A bad query
  /// fails alone — the rest of its batch still executes.
  StatusCode code = StatusCode::kOk;
  /// kApproxDistance: the distance upper bound.  kSameCluster: 0 or 1.
  /// kClusterNeighborhood: an order-sensitive digest of the sorted
  /// cluster list (size folded in) — two executions agree on the digest
  /// iff they agree on the full list, which is what the determinism
  /// tests compare; callers needing the actual clusters use QueryEngine
  /// directly.
  std::uint64_t value = 0;

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

/// Executes one query: dispatches to the QueryEngine method of its kind
/// (the engine defines what each kind answers) and folds the answer into
/// a QueryResult.  Server workers and the serial reference path of the
/// determinism tests both call it, so they cannot drift.
/// `scratch`/`neighborhood_buf` are the caller's reusable per-thread
/// buffers.
[[nodiscard]] QueryResult execute_query(const QueryEngine& engine,
                                        const Query& q, QueryScratch& scratch,
                                        std::vector<ClusterId>& neighborhood_buf);

struct ServerOptions {
  /// Worker threads; 0 reads GCLUS_SERVER_WORKERS (default 4).
  std::size_t workers = 0;
  /// Max queued batches before try_submit sheds; 0 reads
  /// GCLUS_SERVER_QUEUE_DEPTH (default 128).
  std::size_t queue_depth = 0;
};

/// Monotonic counters, readable at any time (relaxed atomics snapshot).
struct ServerStats {
  std::uint64_t queries_served = 0;
  std::uint64_t batches_served = 0;
  std::uint64_t invalid_queries = 0;  ///< served, but answered kInvalidArgument
  std::uint64_t shed_batches = 0;
  std::uint64_t shed_queries = 0;
};

class QueryServer {
  struct Batch;

 public:
  /// Handle to a submitted batch; wait() blocks until the batch completed
  /// and returns the per-query results in submission order.
  class Ticket {
   public:
    /// Results, in the order the queries were submitted.
    const std::vector<QueryResult>& wait() const;
    /// Queue-entry to completion latency, or -1.0 while the batch is
    /// still pending (it reads the completion timestamp under the batch
    /// lock, so calling before wait() is safe — just not yet meaningful).
    [[nodiscard]] double latency_s() const;

   private:
    friend class QueryServer;
    explicit Ticket(std::shared_ptr<Batch> b) : batch_(std::move(b)) {}
    std::shared_ptr<Batch> batch_;
  };

  /// Non-owning convenience: the engine must outlive the server.
  explicit QueryServer(const QueryEngine& engine, ServerOptions opts = {});
  /// Owning form — the seam swap_engine() pivots on.  `engine` must be
  /// non-null.
  explicit QueryServer(std::shared_ptr<const QueryEngine> engine,
                       ServerOptions opts = {});
  ~QueryServer();  ///< drains the queue and joins the workers

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueues a batch; kResourceExhausted (shed, counted) when the queue
  /// is at queue_depth, kUnavailable after shutdown().  Never blocks.
  [[nodiscard]] StatusOr<Ticket> try_submit(std::vector<Query> queries);

  /// Enqueues a batch, blocking until queue space frees up.
  /// kUnavailable when the server has been (or is concurrently being)
  /// shut down — a normal race during graceful drain, never an abort.
  [[nodiscard]] StatusOr<Ticket> submit(std::vector<Query> queries);

  /// Atomically replaces the engine for batches popped from now on.
  /// In-flight batches finish on the engine they started with; the old
  /// engine is released once its last batch completes.  `engine` must be
  /// non-null and its artifact must describe the same graph.
  void swap_engine(std::shared_ptr<const QueryEngine> engine);

  /// The engine currently answering new batches.
  [[nodiscard]] std::shared_ptr<const QueryEngine> engine() const;

  /// Stops accepting work, drains everything already queued, joins the
  /// workers.  Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_depth_; }

 private:
  struct Batch {
    std::vector<Query> queries;
    std::vector<QueryResult> results;
    std::chrono::steady_clock::time_point enqueued_at;
    std::chrono::steady_clock::time_point completed_at;
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    bool done = false;
  };

  void worker_loop();
  Ticket enqueue_locked(std::unique_lock<std::mutex>& lock,
                        std::vector<Query> queries);

  std::shared_ptr<const QueryEngine> engine_;  ///< guarded by mu_
  std::size_t queue_depth_ = 0;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;

  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> queries_served_{0};
  std::atomic<std::uint64_t> batches_served_{0};
  std::atomic<std::uint64_t> invalid_queries_{0};
  std::atomic<std::uint64_t> shed_batches_{0};
  std::atomic<std::uint64_t> shed_queries_{0};
};

}  // namespace gclus::server
