#include "serve/engine.h"

#include <ostream>
#include <utility>

#include "metrics/table_printer.h"

namespace slide {

InferenceEngine::InferenceEngine(std::shared_ptr<ModelStore> store,
                                 const ServeConfig& config)
    : config_(config),
      store_(std::move(store)),
      queue_(config.queue_capacity) {
  SLIDE_CHECK(store_ != nullptr, "InferenceEngine: store must not be null");
  SLIDE_CHECK(config_.num_workers > 0,
              "InferenceEngine: num_workers must be positive");
  SLIDE_CHECK(config_.max_batch > 0,
              "InferenceEngine: max_batch must be positive");
  SLIDE_CHECK(config_.max_wait_us >= 0,
              "InferenceEngine: max_wait_us must be non-negative");
  SLIDE_CHECK(config_.default_top_k > 0,
              "InferenceEngine: default_top_k must be positive");
  worker_state_.resize(static_cast<std::size_t>(config_.num_workers));
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w) {
    // Distinct per-worker seeds drive the sampled-inference RNGs inside the
    // worker's BatchOutput contexts.
    worker_state_[static_cast<std::size_t>(w)].out = BatchOutput(
        config_.seed + 0x9E37u * static_cast<std::uint64_t>(w + 1));
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

InferenceEngine::~InferenceEngine() { stop(); }

ServeRequest InferenceEngine::prepare_request(SparseVector features,
                                              const ServeOptions& options) {
  // Validate at admission (indices are sorted, so this is one lock-free
  // comparison) — a malformed request must never reach a worker, where it
  // would corrupt or kill the whole serving process. Workers re-validate
  // against the snapshot actually serving the batch, so a hot-swap between
  // admission and service cannot re-open the hole.
  SLIDE_CHECK(features.min_dim() <= store_->input_dim(),
              "InferenceEngine: feature index out of range for the served "
              "model");
  SLIDE_CHECK(options.top_k >= 0,
              "InferenceEngine: top_k must be non-negative");
  ServeRequest request;
  request.features = std::move(features);
  request.top_k = options.top_k > 0 ? options.top_k : config_.default_top_k;
  request.exact = options.exact.value_or(config_.exact);
  request.enqueue_time = std::chrono::steady_clock::now();
  return request;
}

bool InferenceEngine::enqueue(ServeRequest&& request) {
  if (!queue_.try_push(std::move(request))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<std::future<Prediction>> InferenceEngine::submit(
    SparseVector features, const ServeOptions& options) {
  ServeRequest request = prepare_request(std::move(features), options);
  std::future<Prediction> future = request.promise.emplace().get_future();
  if (!enqueue(std::move(request))) return std::nullopt;
  return future;
}

bool InferenceEngine::submit_callback(SparseVector features,
                                      std::function<void(Prediction)> callback,
                                      const ServeOptions& options) {
  SLIDE_CHECK(callback != nullptr,
              "InferenceEngine: callback must not be empty");
  ServeRequest request = prepare_request(std::move(features), options);
  request.callback = std::move(callback);
  return enqueue(std::move(request));
}

void InferenceEngine::pause() { queue_.set_paused(true); }

void InferenceEngine::resume() { queue_.set_paused(false); }

void InferenceEngine::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();  // admission off, pause cleared; queued items drain
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void InferenceEngine::worker_main(int worker_id) {
  std::vector<ServeRequest> batch;
  batch.reserve(static_cast<std::size_t>(config_.max_batch));
  ServeRequest request;
  while (queue_.pop(request)) {
    batch.clear();
    batch.push_back(std::move(request));
    // Window closes at max_batch requests or max_wait_us after the oldest
    // enqueue — an already-late first request drains only what is
    // immediately available (deadline in the past).
    const auto deadline =
        batch.front().enqueue_time + std::chrono::microseconds(config_.max_wait_us);
    while (static_cast<int>(batch.size()) < config_.max_batch) {
      ServeRequest next;
      if (!queue_.pop_until(next, deadline)) break;
      batch.push_back(std::move(next));
    }
    serve_batch(batch, worker_id);
  }
}

void InferenceEngine::update_service_ewma(double per_request_us) noexcept {
  // Smoothing: higher reacts faster to the latest batch.
  constexpr double alpha = 0.2;
  double prev = ewma_service_us_.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev == 0.0 ? per_request_us
                       : (1.0 - alpha) * prev + alpha * per_request_us;
  } while (!ewma_service_us_.compare_exchange_weak(prev, next,
                                                   std::memory_order_relaxed));
}

void InferenceEngine::serve_batch(std::vector<ServeRequest>& batch,
                                  int worker_id) {
  WorkerState& state = worker_state_[static_cast<std::size_t>(worker_id)];
  // One snapshot reference for the whole batch: a concurrent publish
  // never mixes two models inside a batch, and the old model stays alive
  // until the last in-flight batch releases it (RCU grace period).
  std::shared_ptr<const ModelSnapshot> snap = store_->current();
  if (state.snapshot == nullptr || state.snapshot->version != snap->version) {
    if (state.snapshot != nullptr)
      swaps_observed_.fetch_add(1, std::memory_order_relaxed);
    state.snapshot = snap;
    // The BatchOutput's context scratch is sized by the snapshot's
    // architecture; predict_batch rebuilds it automatically when the
    // max-units signature changes.
  }
  // Batch composition is final here; count it before fulfilling any
  // promise so stats() read after a future resolves always sees the batch.
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  const Network& network = *snap->network;
  const std::size_t n = batch.size();
  const auto service_start = std::chrono::steady_clock::now();

  // A failure on one request must not take down the worker (an uncaught
  // exception in a std::thread is std::terminate — the whole server):
  // route it into the request's future and keep draining.
  auto fulfill = [&](ServeRequest& r, std::span<const Index> labels) {
    try {
      Prediction result;
      result.snapshot_version = snap->version;
      result.labels.assign(labels.begin(), labels.end());
      result.latency_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() -
                              r.enqueue_time)
                              .count();
      latency_.record(result.latency_us);
      if (r.callback) {
        r.callback(std::move(result));
        completed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Counted before set_value so stats() observed after the future
        // resolves always includes this request; set_value runs no user
        // code, so it cannot fail past this point.
        completed_.fetch_add(1, std::memory_order_relaxed);
        r.promise->set_value(std::move(result));
      }
    } catch (...) {
      fail(r, std::current_exception());
    }
  };

  // Requests already failed (validation) or served drop out of dispatch.
  state.served.assign(n, 0);

  // Admission validated against the then-current snapshot; a hot-swap to a
  // narrower model may have happened since, so re-check against the
  // snapshot actually serving this batch.
  for (std::size_t i = 0; i < n; ++i) {
    try {
      SLIDE_CHECK(batch[i].features.min_dim() <= snap->input_dim,
                  "InferenceEngine: feature index out of range for the "
                  "snapshot serving this request");
    } catch (...) {
      fail(batch[i], std::current_exception());
      state.served[i] = 1;
    }
  }

  // Dispatch the micro-batch whole: group requests that share
  // (top_k, exact) — those parameters shape the answer — and run each
  // group through Network::predict_batch in one call.
  for (std::size_t i = 0; i < n; ++i) {
    if (state.served[i]) continue;
    const int top_k = batch[i].top_k;
    const bool exact = batch[i].exact;
    state.group_features.clear();
    state.group_members.clear();
    for (std::size_t j = i; j < n; ++j) {
      if (state.served[j] || batch[j].top_k != top_k ||
          batch[j].exact != exact)
        continue;
      state.group_features.push_back(&batch[j].features);
      state.group_members.push_back(j);
      state.served[j] = 1;
    }
    try {
      network.predict_batch(
          std::span<const SparseVector* const>(state.group_features),
          state.out, /*pool=*/nullptr, top_k, exact);
      for (std::size_t g = 0; g < state.group_members.size(); ++g)
        fulfill(batch[state.group_members[g]], state.out.row(g));
    } catch (...) {
      // The whole group failed before any row was produced.
      for (std::size_t member : state.group_members)
        fail(batch[member], std::current_exception());
    }
  }

  // Per-request service time of this batch folds into the reported EWMA.
  const double elapsed_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() -
                                service_start)
                                .count();
  update_service_ewma(elapsed_us / static_cast<double>(n));
}

void InferenceEngine::enable_online_updates(std::shared_ptr<Network> master,
                                            const OnlineUpdateConfig& config) {
  SLIDE_CHECK(master != nullptr,
              "enable_online_updates: master must not be null");
  SLIDE_CHECK(config.learning_rate > 0.0f,
              "enable_online_updates: learning_rate must be positive");
  SLIDE_CHECK(config.publish_every > 0,
              "enable_online_updates: publish_every must be positive");
  std::lock_guard<std::mutex> lock(online_mutex_);
  SLIDE_CHECK(online_master_ == nullptr,
              "enable_online_updates: already enabled");
  online_config_ = config;
  online_rng_ = Rng(config.seed);
  online_visited_ =
      std::make_unique<VisitedSet>(std::max<Index>(master->max_sampled_units(), 1));
  online_master_ = std::move(master);
  online_enabled_.store(true, std::memory_order_release);
}

std::uint64_t InferenceEngine::publish_master_locked() {
  const auto start = std::chrono::steady_clock::now();
  const Network& master = *online_master_;
  const std::uint64_t version = publish_clone(
      *store_, master, online_config_.rebuild_threads, "online-update");
  online_publishes_.fetch_add(1, std::memory_order_relaxed);
  // The clone is BUILT at the master's grown width (publish_clone constructs
  // from the live config), so its own appended_units() reads 0; record the
  // master's count here so stats() can report the published label-space
  // delta without touching the master off-lock.
  published_appended_.store(
      master.stack(master.stack_depth() - 1).appended_units(),
      std::memory_order_release);
  online_publish_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
  return version;
}

std::uint64_t InferenceEngine::update(const OnlineDelta& delta) {
  std::lock_guard<std::mutex> lock(online_mutex_);
  SLIDE_CHECK(online_master_ != nullptr,
              "InferenceEngine::update: call enable_online_updates first");
  Network& master = *online_master_;

  // Grow, then retire, then train: samples may label units this very delta
  // appended, and retired units must stop being sampled as negatives.
  if (delta.add_units > 0) {
    master.add_output_units(delta.add_units);
    labels_added_.fetch_add(static_cast<std::uint64_t>(delta.add_units),
                            std::memory_order_relaxed);
    // Growth widens the sampled universe; the VisitedSet is capacity-fixed.
    if (online_visited_->capacity() < master.max_sampled_units())
      online_visited_ =
          std::make_unique<VisitedSet>(master.max_sampled_units());
  }
  if (!delta.retire.empty()) {
    master.retire_output_units(delta.retire);
    labels_retired_.fetch_add(
        static_cast<std::uint64_t>(delta.retire.size()),
        std::memory_order_relaxed);
  }

  // Train against the fp32 masters in max_batch_size chunks (the gradient
  // accumulators are sized per slot). Single-threaded on purpose: update()
  // rides the control plane, not the serving data plane.
  const int max_batch = master.max_batch_size();
  std::size_t done = 0;
  while (done < delta.samples.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(delta.samples.size() - done,
                              static_cast<std::size_t>(max_batch));
    const float inv_batch = 1.0f / static_cast<float>(chunk);
    for (std::size_t s = 0; s < chunk; ++s) {
      master.train_sample(static_cast<int>(s), delta.samples[done + s],
                          inv_batch, online_rng_, *online_visited_,
                          /*tid=*/0);
    }
    master.apply_updates(online_config_.learning_rate, /*pool=*/nullptr);
    master.maybe_rebuild(++online_iteration_, /*pool=*/nullptr);
    done += chunk;
  }

  const std::uint64_t calls =
      online_updates_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (calls % online_config_.publish_every == 0) return publish_master_locked();
  return store_->version();
}

std::uint64_t InferenceEngine::publish_now() {
  std::lock_guard<std::mutex> lock(online_mutex_);
  SLIDE_CHECK(online_master_ != nullptr,
              "InferenceEngine::publish_now: call enable_online_updates "
              "first");
  return publish_master_locked();
}

void InferenceEngine::fail(ServeRequest& request,
                           std::exception_ptr error) noexcept {
  errors_.fetch_add(1, std::memory_order_relaxed);
  if (request.promise) {
    try {
      request.promise->set_exception(std::move(error));
    } catch (const std::future_error&) {
      // set_value already succeeded: the exception came from the
      // callback-free tail (nothing left to report) — counted above.
    }
  }
}

ServeStats InferenceEngine::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  const std::uint64_t batched =
      batched_requests_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches == 0 ? 0.0
                     : static_cast<double>(batched) /
                           static_cast<double>(s.batches);
  s.queue_depth = queue_.depth();
  s.snapshot_version = store_->version();
  s.swaps_observed = swaps_observed_.load(std::memory_order_relaxed);
  s.latency = latency_.summary();
  s.latency_buckets = latency_.snapshot();
  s.ewma_service_us = ewma_service_us_.load(std::memory_order_relaxed);
  s.online_updates = online_enabled_.load(std::memory_order_acquire);
  s.online_update_calls = online_updates_.load(std::memory_order_relaxed);
  s.online_publishes = online_publishes_.load(std::memory_order_relaxed);
  s.online_publish_seconds =
      static_cast<double>(
          online_publish_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  s.labels_added = labels_added_.load(std::memory_order_relaxed);
  s.labels_retired = labels_retired_.load(std::memory_order_relaxed);
  const std::shared_ptr<const ModelSnapshot> snapshot = store_->current();
  if (snapshot != nullptr && snapshot->network != nullptr) {
    const Network& net = *snapshot->network;
    s.memory = net.memory_footprint();
    {
      const Layer& out_layer = net.stack(net.stack_depth() - 1);
      s.snapshot_appended_labels = out_layer.appended_units();
      s.snapshot_retired_labels = out_layer.retired_count();
      // Online-published clones are built at the grown width (their own
      // appended_units() is 0) — the count recorded at publish time wins.
      const Index published =
          published_appended_.load(std::memory_order_acquire);
      if (published > s.snapshot_appended_labels)
        s.snapshot_appended_labels = published;
    }
    for (int i = 0; i < net.stack_depth(); ++i) {
      const TableHealth health = net.stack(i).table_health();
      if (health.buckets > 0)
        s.lsh_tables.push_back(
            {i, health.occupancy(), health.saturation()});
    }
  }
  return s;
}

void InferenceEngine::print_stats(std::ostream& out) const {
  const ServeStats s = stats();
  MarkdownTable table({"metric", "value"});
  table.add_row({"submitted", fmt_int(static_cast<long long>(s.submitted))});
  table.add_row({"completed", fmt_int(static_cast<long long>(s.completed))});
  table.add_row({"rejected", fmt_int(static_cast<long long>(s.rejected))});
  table.add_row({"errors", fmt_int(static_cast<long long>(s.errors))});
  table.add_row({"queue depth", fmt_int(static_cast<long long>(s.queue_depth))});
  table.add_row({"batches", fmt_int(static_cast<long long>(s.batches))});
  table.add_row({"mean batch", fmt(s.mean_batch_size, 2)});
  table.add_row({"ewma service", fmt_latency_us(s.ewma_service_us)});
  table.add_row({"snapshot version",
                 fmt_int(static_cast<long long>(s.snapshot_version))});
  table.add_row({"swaps observed",
                 fmt_int(static_cast<long long>(s.swaps_observed))});
  table.add_row({"latency p50", fmt_latency_us(s.latency.p50_us)});
  table.add_row({"latency p95", fmt_latency_us(s.latency.p95_us)});
  table.add_row({"latency p99", fmt_latency_us(s.latency.p99_us)});
  table.add_row({"latency mean", fmt_latency_us(s.latency.mean_us)});
  table.add_row({"latency max", fmt_latency_us(s.latency.max_us)});
  for (const ServeStats::LshTables& t : s.lsh_tables) {
    const std::string layer = "layer " + std::to_string(t.layer);
    table.add_row({layer + " bucket occupancy", fmt(t.occupancy, 4)});
    table.add_row({layer + " bucket saturation", fmt(t.saturation, 4)});
  }
  if (s.online_updates) {
    table.add_row({"online updates",
                   fmt_int(static_cast<long long>(s.online_update_calls))});
    table.add_row({"online publishes",
                   fmt_int(static_cast<long long>(s.online_publishes))});
    table.add_row({"online publish seconds",
                   fmt(s.online_publish_seconds, 3)});
    table.add_row({"labels added",
                   fmt_int(static_cast<long long>(s.labels_added))});
    table.add_row({"labels retired",
                   fmt_int(static_cast<long long>(s.labels_retired))});
  }
  if (s.snapshot_appended_labels > 0 || s.snapshot_retired_labels > 0) {
    table.add_row(
        {"snapshot appended labels",
         fmt_int(static_cast<long long>(s.snapshot_appended_labels))});
    table.add_row(
        {"snapshot retired labels",
         fmt_int(static_cast<long long>(s.snapshot_retired_labels))});
  }
  table.print(out);
}

}  // namespace slide
