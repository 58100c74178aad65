#include "tensor/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace fedtrip {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, &pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int called = 0;
  parallel_for(5, 5, [&](std::size_t) { ++called; }, &pool);
  parallel_for(7, 3, [&](std::size_t) { ++called; }, &pool);
  EXPECT_EQ(called, 0);
}

TEST(ParallelForTest, NonZeroBegin) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(20);
  parallel_for(5, 15, [&](std::size_t i) { hits[i].fetch_add(1); }, &pool);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 15) ? 1 : 0) << i;
  }
}

TEST(ParallelForTest, MatchesSerialSum) {
  ThreadPool pool(4);
  std::vector<double> out(500, 0.0);
  parallel_for(0, out.size(),
               [&](std::size_t i) { out[i] = static_cast<double>(i) * 2.0; },
               &pool);
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 499.0 * 500.0);
}

TEST(ParallelForTest, SingleWorkerFallsBackToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(0, 10,
               [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               &pool);
  // With one worker the loop runs inline and stays ordered.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelForTest, GrainLimitsSplitting) {
  ThreadPool pool(8);
  std::atomic<int> hits{0};
  // grain >= n forces the serial path; correctness must be unaffected.
  parallel_for(0, 16, [&](std::size_t) { hits.fetch_add(1); }, &pool, 100);
  EXPECT_EQ(hits.load(), 16);
}

TEST(ParallelForTest, NestedCallOnSamePoolCompletes) {
  // Both workers run an outer chunk; if the inner calls queued tasks and
  // waited on them, no worker would be free to run those tasks.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 8);
  parallel_for(
      0, 4,
      [&](std::size_t i) {
        EXPECT_TRUE(pool.is_worker_thread());
        parallel_for(
            0, 8, [&](std::size_t j) { hits[i * 8 + j].fetch_add(1); },
            &pool);
      },
      &pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(pool.is_worker_thread());
}

}  // namespace
}  // namespace fedtrip
