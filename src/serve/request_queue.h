// Bounded MPMC request queue for the inference engine: a fixed set of
// strict-priority lanes with SLO-aware shedding hooks.
//
// Producers (client threads calling InferenceEngine::submit) never block:
// try_push fails immediately when the queue is at capacity, which is the
// engine's backpressure signal — under overload the caller sheds load at
// admission instead of growing an unbounded latency backlog. When the
// queue is full but a *higher*-priority request arrives, the youngest
// request of the lowest-priority occupied lane is evicted instead and
// handed back to the caller to shed (the lane discipline: kBatch absorbs
// overload so kInteractive latency holds). Consumers (engine workers)
// block on pop with an optional deadline; pops drain lanes in strict
// priority order (kInteractive > kDefault > kBatch), FIFO within a lane.
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

/// Priority lane of a request. Lower value = served first; strict priority
/// (an interactive request always pops before any default or batch one).
enum class Priority : std::uint8_t {
  kInteractive = 0,
  kDefault = 1,
  kBatch = 2,
};

inline constexpr int kNumLanes = 3;

constexpr int lane_index(Priority p) noexcept {
  return static_cast<int>(p);
}

const char* to_string(Priority p) noexcept;

/// Why a request was shed instead of served. Routed to the caller through
/// the request's future as a ShedError, so clients can distinguish "the
/// server chose not to serve this in time" from "serving it failed".
enum class ShedReason : std::uint8_t {
  /// Admission control: the deadline had already passed at submit, or the
  /// EWMA queue-wait estimate said it could not be met. Never enqueued.
  kAdmission = 0,
  /// Evicted from a full queue to admit a higher-priority request.
  kQueueEvicted = 1,
  /// Deadline expired while queued; dropped at pop time.
  kDeadlineExpired = 2,
};

const char* to_string(ShedReason r) noexcept;

/// The typed shed/timeout error. A future resolving with ShedError means
/// the request was *dropped by policy* (deadline or overload) — retrying
/// later or degrading gracefully is appropriate. Any other exception means
/// serving was attempted and failed.
class ShedError : public Error {
 public:
  ShedError(ShedReason reason, const std::string& what)
      : Error(what), reason_(reason) {}
  ShedReason reason() const noexcept { return reason_; }

 private:
  ShedReason reason_;
};

/// Absent-deadline sentinel: requests without an SLO never shed.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

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
/// observed by the issuing client; workers fulfill both paths the same way.
struct ServeRequest {
  SparseVector features;
  int top_k = 1;
  bool exact = false;
  /// SLO contract: absolute steady-clock deadline (kNoDeadline = none).
  /// Expired requests are shed at admission or pop time, never served.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  Priority priority = Priority::kDefault;
  std::chrono::steady_clock::time_point enqueue_time;
  std::promise<Prediction> promise;
  std::function<void(Prediction)> callback;  // empty -> promise path

  bool has_deadline() const noexcept { return deadline != kNoDeadline; }
  bool expired(std::chrono::steady_clock::time_point now) const noexcept {
    return has_deadline() && now >= deadline;
  }
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Outcome of try_push. `!admitted` = backpressure (queue full of
  /// same-or-higher-priority work, or closed). `evicted` carries a
  /// lower-priority request bumped to make room — the caller owns shedding
  /// it (failing its promise with ShedError{kQueueEvicted}).
  struct PushOutcome {
    bool admitted = false;
    std::optional<ServeRequest> evicted;
    explicit operator bool() const noexcept { return admitted; }
  };

  /// Enqueues into the request's priority lane unless full or closed;
  /// never blocks. On a full queue, admission of a higher-priority request
  /// evicts the youngest request of the lowest-priority occupied lane.
  PushOutcome try_push(ServeRequest&& request);

  /// Blocks until an item is available (and the queue is unpaused) or the
  /// queue is closed and drained. Returns false only in the latter case.
  /// Pops strict-priority: the highest-priority non-empty lane, FIFO.
  bool pop(ServeRequest& out);

  /// Like pop, but gives up at `deadline`. A deadline already in the past
  /// still drains immediately-available items (the micro-batcher's "take
  /// what is already here" case).
  bool pop_until(ServeRequest& out,
                 std::chrono::steady_clock::time_point deadline);

  /// Stops admission and wakes all poppers; queued items remain poppable
  /// so a close drains rather than drops.
  void close();
  bool closed() const;

  /// Pause/resume consumption (admission unaffected).
  void set_paused(bool paused);

  /// Total queued requests across lanes.
  std::size_t depth() const;
  /// Queued requests in one lane.
  std::size_t lane_depth(Priority lane) const;
  /// Requests that would be served before a new arrival of `priority`:
  /// everything in its lane and above. The admission-control wait estimate
  /// multiplies this by the EWMA per-request service time.
  std::size_t depth_ahead_of(Priority priority) const;

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  bool poppable_locked() const {
    return !paused_ && size_ > 0;
  }
  ServeRequest pop_front_locked();

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<ServeRequest> lanes_[kNumLanes];
  std::size_t size_ = 0;  // sum of lane sizes
  std::size_t capacity_;
  bool closed_ = false;
  bool paused_ = false;
};

}  // namespace slide
