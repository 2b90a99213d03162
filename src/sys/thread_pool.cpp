#include "sys/thread_pool.h"

#include <algorithm>

#include "sys/timer.h"

namespace slide {

int hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  SLIDE_CHECK(num_threads >= 1, "ThreadPool requires at least one thread");
  busy_ = std::vector<PaddedDouble>(static_cast<std::size_t>(num_threads));
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int t = 1; t < num_threads; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
    ++generation_;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main(int thread_id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      wake_cv_.wait(lock, [&] {
        return shutting_down_ || generation_ != seen_generation;
      });
      if (shutting_down_) return;
      seen_generation = generation_;
    }
    execute_slice(thread_id);
    {
      std::lock_guard lock(mutex_);
      if (--workers_remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::execute_slice(int thread_id) {
  const std::size_t count = job_count_;
  const std::size_t threads = static_cast<std::size_t>(num_threads_);
  const std::size_t chunk = (count + threads - 1) / threads;
  const std::size_t begin = std::min(count, chunk * thread_id);
  const std::size_t end = std::min(count, begin + chunk);
  if (begin >= end) return;
  WallTimer timer;
  try {
    (*job_)(begin, end, thread_id);
  } catch (...) {
    std::lock_guard lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  auto& acc = busy_[static_cast<std::size_t>(thread_id)].value;
  acc.store(acc.load(std::memory_order_relaxed) + timer.seconds(),
            std::memory_order_relaxed);
}

void ThreadPool::dispatch_and_wait() {
  if (num_threads_ == 1) {
    execute_slice(0);
  } else {
    {
      std::lock_guard lock(mutex_);
      workers_remaining_ = num_threads_ - 1;
      ++generation_;
    }
    wake_cv_.notify_all();
    execute_slice(0);  // Caller participates as thread 0.
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return workers_remaining_ == 0; });
  }
  job_ = nullptr;
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_range(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, int)>& fn) {
  if (count == 0) return;
  job_count_ = count;
  job_ = &fn;
  dispatch_and_wait();
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t, int)>& fn) {
  const std::function<void(std::size_t, std::size_t, int)> range_fn =
      [&fn](std::size_t begin, std::size_t end, int tid) {
        for (std::size_t i = begin; i < end; ++i) fn(i, tid);
      };
  parallel_range(count, range_fn);
}

void ThreadPool::run_on_all(const std::function<void(int)>& fn) {
  const std::function<void(std::size_t, std::size_t, int)> range_fn =
      [&fn](std::size_t, std::size_t, int tid) { fn(tid); };
  parallel_range(static_cast<std::size_t>(num_threads_), range_fn);
}

std::vector<double> ThreadPool::busy_seconds() const {
  std::vector<double> out;
  out.reserve(busy_.size());
  for (const auto& b : busy_) out.push_back(b.value.load());
  return out;
}

void ThreadPool::reset_busy() {
  for (auto& b : busy_) b.value.store(0.0);
}

}  // namespace slide
