#include "par/thread_pool.hpp"

#include <unistd.h>

#include <cstdlib>

#include "common/check.hpp"

namespace gclus {

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(num_threads == 0 ? 1 : num_threads), owner_pid_(::getpid()) {
  if (num_threads_ == 1) return;  // inline mode: no worker threads at all
  threads_.reserve(num_threads_);
  for (std::size_t i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (threads_.empty()) return;
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_on_workers(const std::function<void(std::size_t)>& fn) {
  // A fork()ed child inherits the pool but none of its worker threads, so
  // it runs every worker index inline, as a 1-thread pool does.
  if (threads_.empty() || ::getpid() != owner_pid_) {
    for (std::size_t w = 0; w < num_threads_; ++w) fn(w);
    return;
  }
  {
    std::lock_guard lock(mu_);
    GCLUS_CHECK(job_ == nullptr, "nested run_on_workers on the same pool");
    job_ = &fn;
    outstanding_ = num_threads_;
    ++epoch_;
  }
  cv_work_.notify_all();
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
  job_ = nullptr;
}

void ThreadPool::worker_loop(std::size_t index) {
  std::size_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock,
                    [&] { return shutdown_ || (job_ && epoch_ != seen_epoch); });
      if (shutdown_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    (*job)(index);
    {
      std::lock_guard lock(mu_);
      if (--outstanding_ == 0) cv_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("GCLUS_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1) return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }());
  return pool;
}

}  // namespace gclus
