// ThreadPool: fixed-size worker pool used to execute federated clients in
// parallel within a communication round, and to parallelise heavy tensor
// kernels. A single shared pool avoids thread churn across rounds.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fedtrip {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to hardware
  /// concurrency, minimum 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool is_worker_thread() const;

  /// Enqueues a task; the returned future resolves with the task's result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Process-wide pool shared by tensor kernels and the round engine.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(i) for i in [begin, end) across the pool, blocking until done.
/// Work is split into contiguous chunks, one per worker, which keeps
/// per-iteration state cache-local. fn must be safe to call concurrently for
/// distinct i. Falls back to a serial loop for tiny ranges, and when called
/// from one of the pool's own workers: a worker blocking on tasks queued
/// behind it could deadlock the pool, so nested calls run inline.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr, std::size_t grain = 1);

}  // namespace fedtrip
