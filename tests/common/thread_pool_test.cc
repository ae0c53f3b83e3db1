#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace telco {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForSmallRangeFewerThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 3, [&](size_t i) { total += static_cast<int>(i); });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPoolTest, DefaultSizeIsPositive) {
  EXPECT_GE(ThreadPool::Default().num_threads(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&done] { ++done; });
    }
  }  // destructor must wait for all
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, SingleThreadPoolCoversRange) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// Regression test: a ParallelFor issued from inside a pool worker used to
// deadlock (the worker blocked waiting for chunks only it could run). The
// nested call must detect the worker thread and run inline.
TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  constexpr size_t kOuter = 4;
  constexpr size_t kInner = 50;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  pool.ParallelFor(0, kOuter, [&](size_t o) {
    EXPECT_TRUE(pool.InWorkerThread());
    pool.ParallelFor(0, kInner, [&](size_t i) { hits[o][i] += 1; });
  });
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, 1);
  }
}

// FIFO contract: a task may wait on the future of a task submitted
// earlier to the same pool, on any pool size (one worker included),
// because the earlier task is dequeued — and running — first.
TEST(ThreadPoolTest, TaskMayWaitOnEarlierSubmittedTask) {
  for (const size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    constexpr int kChain = 16;
    std::vector<int> values(kChain, 0);
    std::vector<std::shared_future<void>> futures;
    futures.push_back(pool.Submit([&values] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      values[0] = 1;
    }).share());
    for (int k = 1; k < kChain; ++k) {
      // Each task waits on its predecessor, and every third one also on
      // the chain's first task.
      const std::shared_future<void> previous = futures.back();
      const std::shared_future<void> first = futures.front();
      futures.push_back(pool.Submit([&values, previous, first, k] {
        previous.wait();
        if (k % 3 == 0) first.wait();
        values[k] = values[k - 1] + 1;
      }).share());
    }
    futures.back().wait();
    for (int k = 0; k < kChain; ++k) {
      EXPECT_EQ(values[k], k + 1) << threads << " threads, task " << k;
    }
  }
}

TEST(ThreadPoolTest, InWorkerThreadFalseOutside) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.InWorkerThread());
}

TEST(ThreadPoolTest, PropagatesFirstExceptionByChunkIndex) {
  ThreadPool pool(4);
  // Every chunk throws; the rethrown exception must be the lowest chunk's,
  // independent of scheduling order.
  try {
    pool.ParallelForChunks(0, 64, 16, [](size_t chunk, size_t, size_t) {
      throw std::runtime_error("chunk " + std::to_string(chunk));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
}

TEST(ThreadPoolTest, ExceptionLeavesPoolUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(0, 8, [](size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 10, [&](size_t) { ++total; });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPoolTest, ParallelForChunksGridIndependentOfPoolSize) {
  // The chunk grid must depend only on (range, num_chunks) so reductions
  // combined in chunk order are identical across pool sizes.
  auto record_grid = [](ThreadPool& pool) {
    std::vector<std::pair<size_t, size_t>> bounds(7);
    pool.ParallelForChunks(0, 1000, 7, [&](size_t c, size_t lo, size_t hi) {
      bounds[c] = {lo, hi};
    });
    return bounds;
  };
  ThreadPool one(1);
  ThreadPool four(4);
  EXPECT_EQ(record_grid(one), record_grid(four));
}

TEST(ThreadPoolTest, RunParallelChunksNullPoolMatchesPooled) {
  auto sum_chunked = [](ThreadPool* pool) {
    std::vector<double> partial(5, 0.0);
    RunParallelChunks(pool, 0, 1000, 5, [&](size_t c, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        partial[c] += 1.0 / static_cast<double>(i + 1);
      }
    });
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  };
  ThreadPool pool(3);
  // Bit-identical: same grid, same per-chunk partials, same combine order.
  EXPECT_EQ(sum_chunked(nullptr), sum_chunked(&pool));
}

TEST(ThreadPoolTest, DefaultNumThreadsHonoursEnvOverride) {
  // setenv/getenv here is safe: tests in this binary run single-threaded.
  setenv("TELCO_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3u);
  unsetenv("TELCO_THREADS");
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1u);
}

TEST(ThreadPoolTest, DegenerateEnvValuesFallBackToHardwareConcurrency) {
  const size_t fallback = [] {
    unsetenv("TELCO_THREADS");
    return ThreadPool::DefaultNumThreads();
  }();
  // Garbage, trailing text, zero, negatives, and out-of-range magnitudes
  // must never size a pool — each falls back instead of returning 0 or a
  // wrapped-around huge count.
  const char* degenerate[] = {
      "not-a-number", "3threads", "", " ", "0",    "-4",
      "+",            "0x10",     "1e3", "99999999999999999999",
      "4097",  // above the sanity cap
  };
  for (const char* value : degenerate) {
    setenv("TELCO_THREADS", value, 1);
    EXPECT_EQ(ThreadPool::DefaultNumThreads(), fallback)
        << "TELCO_THREADS='" << value << "'";
  }
  // Boundary values that are legitimate.
  setenv("TELCO_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1u);
  setenv("TELCO_THREADS", "4096", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 4096u);
  unsetenv("TELCO_THREADS");
}

}  // namespace
}  // namespace telco
