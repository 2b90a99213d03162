// Batch-parallel trainer (paper §3.1, "OpenMP Parallelization across a
// Batch"): every training instance of a mini-batch runs forward and
// backward on its own thread slot; apply_updates then sums each row's
// gradient over the slots in slot order and applies lazy Adam once per
// batch; hash tables refresh on the exponential-decay schedule. Unlike the
// paper's HOGWILD accumulation, no two threads write one row, so the
// weights and the returned loss depend only on the seeds, at every thread
// count.
//
// The refresh rebuilds each due layer's tables in place, spread over the
// trainer's pool, and stalls the whole step for its duration — that stall
// is what `rebuild_seconds` in the breakdown measures
// (bench/maintenance_overhead.cpp times it at two cadences).
#pragma once

#include <functional>
#include <memory>

#include "core/config.h"
#include "core/network.h"
#include "data/batching.h"
#include "sys/thread_pool.h"
#include "sys/timer.h"

namespace slide {

/// Wall-time decomposition of training work, used by the Figure 6 / Table 2
/// instrumentation benches.
struct TrainTimeBreakdown {
  double batch_compute_seconds = 0.0;  // forward + backward fan-out
  double update_seconds = 0.0;         // lazy Adam application
  double rebuild_seconds = 0.0;        // hash table refreshes
  double total_seconds = 0.0;

  TrainTimeBreakdown operator-(const TrainTimeBreakdown& earlier) const;
};

class Trainer {
 public:
  Trainer(Network& network, const TrainerConfig& config);

  /// Runs one mini-batch (the samples at `indices`); returns the mean loss,
  /// summed over the slots in slot order.
  float step(const Dataset& data, std::span<const std::size_t> indices);

  /// Runs `iterations` batches drawn by an internal shuffling Batcher.
  /// `callback(iteration)` fires every `callback_every` iterations (and on
  /// the last one) when provided.
  void train(const Dataset& data, long iterations,
             const std::function<void(long)>& callback = nullptr,
             long callback_every = 0);

  long iteration() const noexcept { return iteration_; }
  ThreadPool& pool() noexcept { return *pool_; }
  Network& network() noexcept { return network_; }
  const TrainerConfig& config() const noexcept { return config_; }

  const TrainTimeBreakdown& time_breakdown() const noexcept {
    return breakdown_;
  }

  /// Fraction of (threads x step() wall time) the pool spent executing
  /// loop bodies inside step(), since construction — the in-container
  /// stand-in for the paper's VTune core-utilization numbers (Table 2).
  /// Work callers run on pool() between steps counts in neither term.
  double core_utilization() const;

 private:
  Network& network_;
  TrainerConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Rng> slot_rngs_;          // one per batch slot (reproducible)
  std::vector<float> slot_losses_;      // one per batch slot
  std::vector<std::unique_ptr<VisitedSet>> visited_;  // one per thread
  long iteration_ = 0;
  TrainTimeBreakdown breakdown_;
  double step_busy_seconds_ = 0.0;  // pool busy time accrued inside step()
};

}  // namespace slide
