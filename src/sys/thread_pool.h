// Persistent worker pool with OpenMP-style static-partition parallel loops.
//
// SLIDE's batch parallelism (paper §3.1, "OpenMP Parallelization across a
// Batch") maps each training instance in a mini-batch to one thread. The
// pool here gives the same shape with an explicit, per-run-configurable
// thread count, plus per-thread busy-time accounting that backs the core
// utilization numbers of paper Table 2 / Figure 6.
//
// The calling thread participates as logical thread 0, so a pool of size N
// spawns N-1 workers. Loops use static chunking: item i goes to thread
// i / ceil(count / threads), matching OpenMP's schedule(static) — the
// default the paper relies on when the batch size exceeds the thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sys/common.h"

namespace slide {

class ThreadPool {
 public:
  /// Creates a pool of `num_threads` logical threads (>= 1). The constructor
  /// spawns `num_threads - 1` workers; the caller acts as thread 0.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(item_index, thread_id) for every item in [0, count), statically
  /// partitioned into contiguous per-thread ranges. Blocks until all items
  /// complete. Exceptions thrown by fn are rethrown on the calling thread
  /// (first one wins).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, int)>& fn);

  /// Runs fn(begin, end, thread_id) once per thread with that thread's
  /// contiguous slice of [0, count). Lower dispatch overhead than
  /// parallel_for for tight inner loops.
  void parallel_range(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t, int)>& fn);

  /// Runs fn(thread_id) once on every logical thread.
  void run_on_all(const std::function<void(int)>& fn);

  /// Seconds each logical thread has spent executing loop bodies since the
  /// last reset_busy(). busy_seconds().size() == num_threads().
  std::vector<double> busy_seconds() const;
  void reset_busy();

 private:
  struct alignas(kCacheLineSize) PaddedDouble {
    std::atomic<double> value{0.0};
  };

  void worker_main(int thread_id);
  void execute_slice(int thread_id);
  // Dispatches the currently-staged job to all threads and waits.
  void dispatch_and_wait();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::vector<PaddedDouble> busy_;

  // Job staging: guarded by mutex_, published to workers via generation_.
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int workers_remaining_ = 0;
  bool shutting_down_ = false;

  // Current job (valid while a dispatch is in flight).
  std::size_t job_count_ = 0;
  const std::function<void(std::size_t, std::size_t, int)>* job_ = nullptr;
  std::exception_ptr first_error_;
  std::mutex error_mutex_;
};

/// Number of hardware threads, never less than 1.
int hardware_threads();

// ---------------------------------------------------------------------------

/// A single background thread executing submitted tasks in FIFO order — the
/// maintenance executor behind asynchronous LSH table rebuilds (see
/// core/layer.h, MaintenancePolicy). Constructing the object is free: the
/// thread is spawned lazily on the first submit, so layers that never use
/// async maintenance never pay for a thread.
///
/// Tasks run strictly one at a time in submission order, which is what the
/// maintenance logic relies on to keep full rebuilds from overlapping each
/// other. wait_idle() blocks until the queue is empty and no task is
/// running; it also rethrows the first exception a task raised
/// (maintenance tasks are not expected to throw).
///
/// Destruction discards tasks that have not started, waits for the running
/// one to finish, and joins the thread — shutdown never blocks on a long
/// queue of stale maintenance work.
class BackgroundWorker {
 public:
  BackgroundWorker() = default;
  ~BackgroundWorker();

  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;

  /// Enqueues a task (spawning the thread on first use).
  void submit(std::function<void()> task);

  /// Tasks queued or currently running.
  std::size_t pending() const;
  bool idle() const { return pending() == 0; }

  /// Blocks until no task is queued or running, then rethrows the first
  /// task exception if any. Logically const: observers may wait without
  /// mutating the worker.
  void wait_idle() const;

  /// Tasks that have finished running (monotonic).
  std::uint64_t completed() const;

 private:
  void worker_main();

  mutable std::mutex mutex_;
  mutable std::condition_variable wake_cv_;
  mutable std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::thread thread_;
  bool started_ = false;
  bool running_task_ = false;
  bool shutting_down_ = false;
  std::uint64_t completed_ = 0;
  mutable std::exception_ptr first_error_;
};

}  // namespace slide
