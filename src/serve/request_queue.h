// Bounded MPMC FIFO request queue for the inference engine.
//
// Producers (client threads calling InferenceEngine::submit) never block:
// try_push fails immediately when the queue is at capacity, which is the
// engine's backpressure signal — under overload the caller sheds load at
// admission instead of growing an unbounded latency backlog. Consumers
// (engine workers) block on pop with an optional deadline; pops come out
// in arrival order.
//
// A paused queue admits pushes but holds all pops — the drain-control knob
// behind InferenceEngine::pause()/resume() (quiesce workers, let a burst
// accumulate, take a consistent stats reading, ...).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>

#include "data/sparse_vector.h"
#include "sys/common.h"

namespace slide {

/// Result of one served request.
struct Prediction {
  /// Top-k labels, descending score (fewer than k if the sampled active set
  /// was smaller).
  std::vector<Index> labels;
  /// Version of the model snapshot that produced the result.
  std::uint64_t snapshot_version = 0;
  /// End-to-end latency (submit to completion), microseconds.
  double latency_us = 0.0;
};

/// One queued inference request. Exactly one of {promise, callback} is
/// set, and observed by the issuing client; workers fulfill both paths the
/// same way. The promise is built only by submit(): a std::promise
/// allocates its shared state, which a callback request never uses.
struct ServeRequest {
  SparseVector features;
  int top_k = 1;
  bool exact = false;
  std::chrono::steady_clock::time_point enqueue_time;
  std::optional<std::promise<Prediction>> promise;
  std::function<void(Prediction)> callback;
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueues unless full or closed; never blocks. False = backpressure
  /// (the request was not taken).
  bool try_push(ServeRequest&& request);

  /// Blocks until an item is available (and the queue is unpaused) or the
  /// queue is closed and drained. Returns false only in the latter case.
  bool pop(ServeRequest& out);

  /// Like pop, but gives up at `deadline`. A deadline already in the past
  /// still drains immediately-available items (the micro-batcher's "take
  /// what is already here" case).
  bool pop_until(ServeRequest& out,
                 std::chrono::steady_clock::time_point deadline);

  /// Stops admission and wakes all poppers; queued items remain poppable
  /// so a close drains rather than drops.
  void close();

  /// Pause/resume consumption (admission unaffected).
  void set_paused(bool paused);

  std::size_t depth() const;

 private:
  bool poppable_locked() const { return !paused_ && !items_.empty(); }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<ServeRequest> items_;
  std::size_t capacity_;
  bool closed_ = false;
  bool paused_ = false;
};

}  // namespace slide
