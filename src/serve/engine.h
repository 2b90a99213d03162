// Concurrent inference engine: bounded admission, adaptive micro-batching,
// hot-swappable snapshots.
//
// Shape of the system (cf. "Accelerating SLIDE Deep Learning on Modern
// CPUs", 2021 — on CPUs, batching and memory placement decide serving
// throughput):
//
//   clients --> submit --> [FIFO RequestQueue] --> N workers
//                 |                                  |  drain up to
//                 |  (full)                          |  max_batch, or
//                 +--> rejected                      |  until the oldest
//                                                    |  waits max_wait_us
//                                                    v
//                                           snapshot = store->current()
//                                           predict_batch per group
//                                           fulfill future / callback
//
// Adaptive micro-batching: a worker takes one request (blocking), then
// keeps draining until either `max_batch` requests are in hand or
// `max_wait_us` has elapsed since the *oldest* request was enqueued —
// whichever comes first. Under light load the window closes on the
// deadline (latency-bound, batch of 1-2); under heavy load it closes on
// size (throughput-bound, full batches) — no tuning knob to flip between
// the two regimes. The whole batch runs against one snapshot reference, so
// a concurrent hot-swap never mixes models within a batch. The batch is
// then dispatched whole through Network::predict_batch (grouped by
// requested top_k/exact, since those change the shape of the answer), and
// the per-worker BatchOutput scratch is reused across batches (its
// contexts are rebuilt only when a swap changes the architecture).
//
// Thread-safety contract with the model: predict_batch is safe for any
// number of concurrent readers while no writer is active (see
// core/network.h); snapshots are immutable by construction, so workers
// need no locks on the model at all.
#pragma once

#include <chrono>
#include <exception>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "metrics/latency.h"
#include "serve/request_queue.h"
#include "serve/snapshot.h"

namespace slide {

struct ServeConfig {
  /// Worker threads draining the queue.
  int num_workers = 2;
  /// Dispatch a micro-batch at this many requests...
  int max_batch = 16;
  /// ...or when the oldest queued request has waited this long.
  long max_wait_us = 200;
  /// Admission bound; try_push past this is rejected (backpressure).
  std::size_t queue_capacity = 4096;
  /// Default top-k when submit is called with k = 0.
  int default_top_k = 5;
  /// Score every class instead of LSH-sampled inference (slower, exact).
  bool exact = false;
  /// Seeds the per-worker RNGs driving sampled inference.
  std::uint64_t seed = 0x51CE;
};

/// Per-request serving options — everything submit() accepts beyond the
/// feature vector, set by designated initializers:
///   engine.submit(x, {.top_k = 3, .exact = true});
struct ServeOptions {
  /// 0 = ServeConfig::default_top_k; negative is rejected at admission.
  int top_k = 0;
  /// Overrides ServeConfig::exact when set.
  std::optional<bool> exact = std::nullopt;
};

/// Policy knobs for the online-update path (enable_online_updates).
struct OnlineUpdateConfig {
  /// Adam learning rate applied to each update() call's samples.
  float learning_rate = 1e-3f;
  /// Republish a serving snapshot every this many update() calls (1 =
  /// every call). Between publishes the fp32 master absorbs deltas while
  /// traffic keeps serving the previous immutable snapshot.
  std::uint64_t publish_every = 1;
  /// Threads for the clone-side table rebuild at publish (0 = hardware).
  int rebuild_threads = 1;
  /// Seeds the update path's sampled-training RNG.
  std::uint64_t seed = 0x0511DEull;
};

/// One batch of live-traffic model change: label-space growth/retirement
/// plus training samples, applied atomically to the fp32 master.
struct OnlineDelta {
  /// Output units to append before training (0 = none). New labels become
  /// retrievable in the NEXT published snapshot.
  Index add_units = 0;
  /// Output units to tombstone out of retrieval/top-k (rows survive; see
  /// Layer::retire_units).
  std::vector<Index> retire;
  /// Samples trained against the fp32 master (labels may reference units
  /// added by this same delta).
  std::vector<Sample> samples;
};

/// Point-in-time counters (monotonic since engine construction).
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   // backpressure at admission
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;     // exceptions routed into futures
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  std::size_t queue_depth = 0;
  std::uint64_t snapshot_version = 0;  // store version at reading time
  std::uint64_t swaps_observed = 0;    // version changes seen by workers
  LatencyHistogram::Summary latency;   // end-to-end, microseconds
  LatencyHistogram::Snapshot latency_buckets;  // full distribution
  /// Always 0: the engine sheds nothing (a full queue rejects at
  /// admission, counted in `rejected`). Kept for readers that still
  /// report it.
  std::uint64_t shed_total = 0;
  /// EWMA of per-request service time, folded in once per micro-batch; 0
  /// until the first batch completes. Reported only: admission ignores it.
  double ewma_service_us = 0.0;

  /// LSH table health of the current snapshot, one entry per stack layer
  /// that owns tables (Layer::table_health). The tables count their
  /// buckets when built, so reading these costs no table scan.
  struct LshTables {
    int layer = 0;            ///< index in Network::stack()
    double occupancy = 0.0;   ///< non-empty buckets / all buckets
    double saturation = 0.0;  ///< full buckets / all buckets
  };
  std::vector<LshTables> lsh_tables;

  // Online updates (all zero unless enable_online_updates was called).
  bool online_updates = false;
  std::uint64_t online_update_calls = 0;  // update() calls absorbed
  std::uint64_t online_publishes = 0;     // snapshots published by cadence
  /// Wall seconds spent publishing them: the copy of the master and the
  /// tables' build (publish_master_locked), summed over every publish.
  double online_publish_seconds = 0.0;
  std::uint64_t labels_added = 0;         // output units appended, lifetime
  std::uint64_t labels_retired = 0;       // retire requests applied, lifetime

  // Dynamic label space of the CURRENT snapshot (nonzero only after
  // growth/retirement reached a published snapshot or checkpoint).
  Index snapshot_appended_labels = 0;  // units appended since construction
  Index snapshot_retired_labels = 0;   // ids currently tombstoned

  /// Memory footprint of the current snapshot's network — the fix for the
  /// historic under-report: retriever_bytes (the LSH buckets) is now part
  /// of the accounting and the Prometheus export.
  MemoryFootprint memory;
};

class InferenceEngine {
 public:
  InferenceEngine(std::shared_ptr<ModelStore> store, const ServeConfig& config);
  ~InferenceEngine();  // stop(): drains the queue, joins workers

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Submits a request; the future resolves when a worker completes it
  /// (with the result, or with the exception the worker hit serving it).
  /// nullopt = rejected by backpressure (queue full, or engine stopped).
  /// Throws slide::Error at admission when a feature index exceeds the
  /// served model's input dimension or top_k is negative.
  std::optional<std::future<Prediction>> submit(
      SparseVector features, const ServeOptions& options = {});

  /// Callback flavor: `callback` runs on the worker thread that served the
  /// request (keep it light). False = rejected by backpressure; the
  /// callback is then never invoked.
  bool submit_callback(SparseVector features,
                       std::function<void(Prediction)> callback,
                       const ServeOptions& options = {});

  /// Drain control: paused workers finish their in-flight batch, then hold;
  /// admission stays open (the queue absorbs up to queue_capacity).
  void pause();
  void resume();

  /// Closes admission, drains every queued request, joins workers. Futures
  /// of already-admitted requests all resolve. Idempotent; the destructor
  /// calls it.
  void stop();

  // ---- Online updates (dynamic label lifecycle on live traffic) ----
  //
  // The engine serves immutable snapshots; `master` is the mutable fp32
  // network that absorbs deltas off the serving path. update() grows /
  // retires output labels and trains on the delta's samples, then — on the
  // configured cadence — republishes a quantized clone through the store's
  // RCU swap (publish_clone / publish_clone_sharded), so in-flight batches
  // finish on the old snapshot and new batches see the new label space.
  // update() calls are serialized internally; safe to call concurrently
  // with submit() from any thread.

  /// Arms the online-update path. `master` must be the serving-equivalent
  /// trainer network (typically the one the store was seeded from, or a
  /// fp32 twin of the checkpoint). Callable once; throws on a second call
  /// or a null master.
  void enable_online_updates(std::shared_ptr<Network> master,
                             const OnlineUpdateConfig& config = {});
  bool online_updates_enabled() const noexcept {
    return online_enabled_.load(std::memory_order_acquire);
  }

  /// Applies one delta to the master (grow, retire, train — in that
  /// order), republishing per OnlineUpdateConfig::publish_every. Returns
  /// the store version serving traffic after the call (unchanged when the
  /// cadence did not publish). Throws slide::Error if online updates are
  /// not enabled or the delta is malformed (e.g. retire id out of range).
  std::uint64_t update(const OnlineDelta& delta);

  /// Forces an immediate publish of the master's current state regardless
  /// of cadence (e.g. before a planned drain). Returns the new version.
  std::uint64_t publish_now();

  ServeStats stats() const;
  /// Renders stats as a markdown table (metrics/table_printer).
  void print_stats(std::ostream& out) const;

  std::size_t queue_depth() const { return queue_.depth(); }
  const ServeConfig& config() const noexcept { return config_; }
  const ModelStore& store() const noexcept { return *store_; }

 private:
  /// Shared admission path: validates features and top_k (throws
  /// slide::Error on an out-of-range index or a negative top_k) and stamps
  /// defaults + enqueue time.
  ServeRequest prepare_request(SparseVector features,
                               const ServeOptions& options);
  /// Pushes or rejects (backpressure), keeping the counters in step.
  bool enqueue(ServeRequest&& request);

  void worker_main(int worker_id);
  void serve_batch(std::vector<ServeRequest>& batch, int worker_id);
  /// Publishes the master per OnlineUpdateConfig (caller holds
  /// online_mutex_). Returns the new store version.
  std::uint64_t publish_master_locked();
  /// Routes an error into the request's future and counts it.
  void fail(ServeRequest& request, std::exception_ptr error) noexcept;
  /// Folds one batch's per-request service time into the reported EWMA.
  void update_service_ewma(double per_request_us) noexcept;

  ServeConfig config_;
  std::shared_ptr<ModelStore> store_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;

  // Per-worker snapshot + scratch, touched only by that worker's thread.
  struct WorkerState {
    std::shared_ptr<const ModelSnapshot> snapshot;
    BatchOutput out;  // predict_batch result + reused context scratch
    // Dispatch-group scratch (requests sharing top_k/exact).
    std::vector<const SparseVector*> group_features;
    std::vector<std::size_t> group_members;
    std::vector<char> served;
  };
  std::vector<WorkerState> worker_state_;

  // Online-update state, all behind online_mutex_ except the atomics
  // (read lock-free by stats()).
  std::shared_ptr<Network> online_master_;
  OnlineUpdateConfig online_config_;
  mutable std::mutex online_mutex_;
  Rng online_rng_{0x0511DEull};
  std::unique_ptr<VisitedSet> online_visited_;
  long online_iteration_ = 0;  // feeds Network::maybe_rebuild schedules
  std::atomic<bool> online_enabled_{false};
  std::atomic<std::uint64_t> online_updates_{0};
  std::atomic<std::uint64_t> online_publishes_{0};
  std::atomic<std::uint64_t> online_publish_ns_{0};
  std::atomic<std::uint64_t> labels_added_{0};
  std::atomic<std::uint64_t> labels_retired_{0};
  /// Master's appended_units() at the last online publish — published
  /// clones are built at the grown width, so they cannot report this
  /// themselves (see publish_master_locked).
  std::atomic<Index> published_appended_{0};

  LatencyHistogram latency_;
  std::atomic<double> ewma_service_us_{0.0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> swaps_observed_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace slide
