// A small fixed-size thread pool.
//
// The pool hands out *blocked ranges*: a parallel region enqueues one task
// per worker, each task repeatedly grabs chunks of the iteration space via
// an atomic cursor (guided self-scheduling).  This keeps the pool free of
// per-item overhead while still load-balancing irregular graph work such as
// frontier expansion.
//
// A process-wide default pool (sized from std::thread::hardware_concurrency,
// overridable with the GCLUS_THREADS environment variable) serves all
// library kernels; tests construct private pools to exercise specific
// worker counts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gclus {

class ThreadPool {
 public:
  /// Creates `num_threads` workers.  `num_threads == 1` short-circuits all
  /// dispatch: work runs inline on the caller (useful for debugging and for
  /// deterministic baselines in tests).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }

  /// Runs `fn(worker_index)` on every worker and blocks until all
  /// invocations return.  `fn` must be safe to call concurrently from
  /// distinct threads.  A pool of size 1, and any pool used in a fork()ed
  /// child of the process that created it, runs every index in turn on the
  /// caller instead.
  void run_on_workers(const std::function<void(std::size_t)>& fn);

  /// Process-wide pool.  First call creates it; sizing honours
  /// GCLUS_THREADS if set, else hardware_concurrency (min 1).
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t index);

  std::size_t num_threads_;
  int owner_pid_;  ///< the process whose worker threads threads_ holds
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t epoch_ = 0;       // bumped per job; workers wait for a new epoch
  std::size_t outstanding_ = 0; // workers still running the current job
  bool shutdown_ = false;
};

}  // namespace gclus
