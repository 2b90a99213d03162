#include "serve/request_queue.h"

namespace slide {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  SLIDE_CHECK(capacity > 0, "RequestQueue: capacity must be positive");
}

bool RequestQueue::try_push(ServeRequest&& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::pop(ServeRequest& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return poppable_locked() || closed_; });
  // On close, remaining items still drain (close() clears pause so
  // shutdown cannot deadlock behind a paused queue).
  if (items_.empty() || paused_) return false;
  out = std::move(items_.front());
  items_.pop_front();
  return true;
}

bool RequestQueue::pop_until(ServeRequest& out,
                             std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait_until(lock, deadline,
                        [&] { return poppable_locked() || closed_; });
  if (paused_ || items_.empty()) return false;  // timed out, paused, or drained
  out = std::move(items_.front());
  items_.pop_front();
  return true;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    // A paused close would strand queued items: unpause so they drain.
    paused_ = false;
  }
  not_empty_.notify_all();
}

void RequestQueue::set_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;  // close overrides pause, permanently
    paused_ = paused;
  }
  if (!paused) not_empty_.notify_all();
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}

}  // namespace slide
