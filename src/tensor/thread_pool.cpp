#include "tensor/thread_pool.h"

#include <algorithm>

namespace fedtrip {

namespace {
// The pool whose worker loop runs on this thread (nullptr elsewhere).
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::is_worker_thread() const { return current_pool == this; }

void ThreadPool::worker_loop() {
  current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, ThreadPool* pool,
                  std::size_t grain) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t workers = pool->size();
  if (workers <= 1 || n <= grain || pool->is_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(workers, (n + grain - 1) / grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(pool->submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& f : futures) f.get();
}

}  // namespace fedtrip
