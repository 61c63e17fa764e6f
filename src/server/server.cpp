#include "server/server.hpp"

#include <atomic>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace gclus::server {

QueryServer::QueryServer(const QueryEngine& engine, ServerOptions opts)
    // Aliasing shared_ptr with no owner: the historical non-owning
    // contract (engine outlives the server), expressed in the type the
    // swap seam needs.
    : QueryServer(std::shared_ptr<const QueryEngine>(
                      std::shared_ptr<const void>(), &engine),
                  opts) {}

QueryServer::QueryServer(std::shared_ptr<const QueryEngine> engine,
                         ServerOptions opts)
    : engine_(std::move(engine)) {
  GCLUS_CHECK(engine_ != nullptr, "QueryServer needs an engine");
  const std::size_t workers =
      opts.workers != 0
          ? opts.workers
          : static_cast<std::size_t>(env_u64("GCLUS_SERVER_WORKERS", 4, 1));
  queue_depth_ =
      opts.queue_depth != 0
          ? opts.queue_depth
          : static_cast<std::size_t>(env_u64("GCLUS_SERVER_QUEUE_DEPTH", 128,
                                             1));
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryServer::~QueryServer() { shutdown(); }

const std::vector<QueryResult>& QueryServer::Ticket::wait() const {
  std::unique_lock<std::mutex> lock(batch_->mu);
  batch_->cv.wait(lock, [&] { return batch_->done; });
  return batch_->results;
}

double QueryServer::Ticket::latency_s() const {
  // completed_at is written by the worker under batch_->mu; reading it
  // unlocked before done would be a data race yielding a garbage value.
  std::unique_lock<std::mutex> lock(batch_->mu);
  if (!batch_->done) return -1.0;
  return std::chrono::duration<double>(batch_->completed_at -
                                       batch_->enqueued_at)
      .count();
}

QueryServer::Ticket QueryServer::enqueue_locked(
    std::unique_lock<std::mutex>& lock, std::vector<Query> queries) {
  auto batch = std::make_shared<Batch>();
  batch->queries = std::move(queries);
  batch->enqueued_at = std::chrono::steady_clock::now();
  queue_.push_back(batch);
  lock.unlock();
  not_empty_.notify_one();
  return Ticket(std::move(batch));
}

StatusOr<QueryServer::Ticket> QueryServer::try_submit(
    std::vector<Query> queries) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return UnavailableError("query server is shut down");
  }
  if (queue_.size() >= queue_depth_) {
    shed_batches_.fetch_add(1, std::memory_order_relaxed);
    shed_queries_.fetch_add(queries.size(), std::memory_order_relaxed);
    return ResourceExhaustedError(
        "query server overloaded: " + std::to_string(queue_.size()) +
        " batches queued (depth " + std::to_string(queue_depth_) + ")");
  }
  return enqueue_locked(lock, std::move(queries));
}

StatusOr<QueryServer::Ticket> QueryServer::submit(std::vector<Query> queries) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [&] { return stop_ || queue_.size() < queue_depth_; });
  if (stop_) {
    // Losing the race with shutdown() is an ordinary event during a
    // graceful drain — every remote client still writing when SIGTERM
    // lands takes this path — so it must be a propagated refusal, never
    // an abort.
    return UnavailableError("query server is shutting down");
  }
  return enqueue_locked(lock, std::move(queries));
}

void QueryServer::swap_engine(std::shared_ptr<const QueryEngine> engine) {
  GCLUS_CHECK(engine != nullptr, "swap_engine needs an engine");
  std::unique_lock<std::mutex> lock(mu_);
  engine_ = std::move(engine);
}

std::shared_ptr<const QueryEngine> QueryServer::engine() const {
  std::unique_lock<std::mutex> lock(mu_);
  return engine_;
}

void QueryServer::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void QueryServer::worker_loop() {
  QueryScratch scratch;
  for (;;) {
    std::shared_ptr<Batch> batch;
    std::shared_ptr<const QueryEngine> engine;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and fully drained
      batch = std::move(queue_.front());
      queue_.pop_front();
      // Pin the engine for this whole batch: a concurrent swap_engine()
      // affects later batches only, so no batch mixes artifact versions.
      engine = engine_;
    }
    not_full_.notify_one();

    Batch& b = *batch;
    b.results.resize(b.queries.size());
    engine->execute(b.queries, b.results, scratch);
    std::uint64_t invalid = 0;
    for (const QueryResult& r : b.results) {
      if (r.code != StatusCode::kOk) ++invalid;
    }
    queries_served_.fetch_add(b.queries.size(), std::memory_order_relaxed);
    batches_served_.fetch_add(1, std::memory_order_relaxed);
    if (invalid > 0) {
      invalid_queries_.fetch_add(invalid, std::memory_order_relaxed);
    }
    {
      std::unique_lock<std::mutex> lock(b.mu);
      b.completed_at = std::chrono::steady_clock::now();
      b.done = true;
    }
    b.cv.notify_all();
  }
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  s.batches_served = batches_served_.load(std::memory_order_relaxed);
  s.invalid_queries = invalid_queries_.load(std::memory_order_relaxed);
  s.shed_batches = shed_batches_.load(std::memory_order_relaxed);
  s.shed_queries = shed_queries_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gclus::server
