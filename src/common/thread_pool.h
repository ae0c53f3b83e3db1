// Fixed-size thread pool with ParallelFor/ParallelForChunks convenience
// wrappers, used to parallelise embarrassingly-parallel stages
// (random-forest tree fitting and batch scoring, wide-table family
// builds, PageRank sweeps, LDA finalisation, warehouse CSV loading).
//
// Concurrency contract:
//  - ParallelFor called from inside a pool worker runs inline on the
//    calling thread (a fixed pool with a blocking wait would otherwise
//    deadlock on nested use).
//  - Tasks are dequeued in submission order (FIFO), and a worker runs a
//    task as soon as it dequeues it. A task may therefore block on the
//    future of a task submitted *earlier* to the same pool: by the time
//    the waiter starts, the earlier task is running or finished, so the
//    wait cannot deadlock on any pool size (provided the earlier task
//    does not itself wait on later work). The wide-table build's F7/F8
//    tasks wait on their LDA fits this way. Waiting on a *later* task
//    from a worker can deadlock.
//  - The first exception thrown by an iteration (lowest chunk index wins)
//    is rethrown on the calling thread after all chunks finish.
//  - Chunk grids derived from an explicit `num_chunks` are independent of
//    the pool size, so per-chunk reductions combined in chunk order are
//    bit-identical across thread counts (see RunParallelChunks).
//  - The TELCO_THREADS environment variable overrides the size of the
//    process-wide Default() pool (and any pool constructed with 0).

#ifndef TELCO_COMMON_THREAD_POOL_H_
#define TELCO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/telemetry/trace.h"

namespace telco {

/// \brief A fixed pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Body of one contiguous chunk: fn(chunk_index, lo, hi) covers [lo, hi).
  using ChunkFn = std::function<void(size_t, size_t, size_t)>;

  /// Starts `num_threads` workers (default: TELCO_THREADS if set, else
  /// hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains outstanding tasks then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// True iff the calling thread is one of this pool's workers.
  bool InWorkerThread() const;

  /// Enqueues a task; the future resolves when it completes. The
  /// submitting thread's current trace span becomes the parent of spans
  /// opened inside the task, so pool work nests under its submitter in
  /// --trace-out output.
  template <typename F>
  std::future<void> Submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<F>(fn));
    std::future<void> fut = task->get_future();
    const uint64_t trace_parent = TraceContext::CurrentSpanId();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace([task, trace_parent] {
        TraceContext::Scope trace_scope(trace_parent);
        (*task)();
      });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [begin, end) across the pool and blocks until all
  /// iterations finish. Iterations are chunked to limit queueing overhead.
  /// Safe to call from a pool worker (runs inline); rethrows the first
  /// iteration exception.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Runs fn(chunk, lo, hi) over a grid of at most `num_chunks` contiguous
  /// chunks covering [begin, end). Pass an explicit num_chunks derived
  /// from the problem size (not the pool size) when the chunks feed a
  /// reduction that must be bit-identical across thread counts;
  /// num_chunks == 0 picks a grid from the pool size.
  void ParallelForChunks(size_t begin, size_t end, size_t num_chunks,
                         const ChunkFn& fn);

  /// Process-wide default pool (sized by TELCO_THREADS when set).
  static ThreadPool& Default();

  /// Threads a default-constructed pool starts: TELCO_THREADS if set to a
  /// positive integer, else hardware concurrency (min 1).
  static size_t DefaultNumThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// \brief Pool-optional chunked parallel loop: runs fn(chunk, lo, hi) over
/// the same chunk grid whether `pool` is null (inline, in chunk order) or
/// not, so per-chunk reductions combined in chunk order give bit-identical
/// results serially and in parallel.
void RunParallelChunks(ThreadPool* pool, size_t begin, size_t end,
                       size_t num_chunks, const ThreadPool::ChunkFn& fn);

/// \brief Pool-optional element-wise parallel loop over [begin, end).
void RunParallelFor(ThreadPool* pool, size_t begin, size_t end,
                    const std::function<void(size_t)>& fn);

}  // namespace telco

#endif  // TELCO_COMMON_THREAD_POOL_H_
