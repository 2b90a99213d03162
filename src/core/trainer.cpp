#include "core/trainer.h"

#include <numeric>

namespace slide {

namespace {

double total_busy_seconds(const ThreadPool& pool) {
  const std::vector<double> busy = pool.busy_seconds();
  return std::accumulate(busy.begin(), busy.end(), 0.0);
}

}  // namespace

TrainTimeBreakdown TrainTimeBreakdown::operator-(
    const TrainTimeBreakdown& earlier) const {
  TrainTimeBreakdown d;
  d.batch_compute_seconds =
      batch_compute_seconds - earlier.batch_compute_seconds;
  d.update_seconds = update_seconds - earlier.update_seconds;
  d.rebuild_seconds = rebuild_seconds - earlier.rebuild_seconds;
  d.total_seconds = total_seconds - earlier.total_seconds;
  return d;
}

Trainer::Trainer(Network& network, const TrainerConfig& config)
    : network_(network), config_(config) {
  if (config_.num_threads <= 0) config_.num_threads = hardware_threads();
  SLIDE_CHECK(config_.num_threads <= network_.max_threads(),
              "Trainer: more threads than the network's max_threads");
  SLIDE_CHECK(config_.batch_size > 0, "Trainer: batch_size must be positive");
  SLIDE_CHECK(config_.batch_size <= network_.max_batch_size(),
              "Trainer: batch_size exceeds the network's max_batch_size");
  pool_ = std::make_unique<ThreadPool>(config_.num_threads);

  Rng seeder(config_.seed);
  slot_rngs_.reserve(static_cast<std::size_t>(network_.max_batch_size()));
  for (int s = 0; s < network_.max_batch_size(); ++s)
    slot_rngs_.push_back(seeder.fork());
  slot_losses_.resize(static_cast<std::size_t>(network_.max_batch_size()));

  const Index scratch_size = std::max<Index>(network_.max_sampled_units(), 1);
  visited_.reserve(static_cast<std::size_t>(config_.num_threads));
  for (int t = 0; t < config_.num_threads; ++t)
    visited_.push_back(std::make_unique<VisitedSet>(scratch_size));
}

float Trainer::step(const Dataset& data,
                    std::span<const std::size_t> indices) {
  SLIDE_CHECK(!indices.empty(), "Trainer::step: empty batch");
  SLIDE_CHECK(static_cast<int>(indices.size()) <= network_.max_batch_size(),
              "Trainer::step: batch larger than the network's slot count");
  const float inv_batch = 1.0f / static_cast<float>(indices.size());

  const double busy_before = total_busy_seconds(*pool_);
  WallTimer total;
  // Fan the batch out: one sample per slot, slots statically partitioned
  // over threads. Each slot keeps its own loss, summed below in slot order.
  float loss_sum = 0.0f;
  {
    WallTimer compute;
    pool_->parallel_range(
        indices.size(), [&](std::size_t begin, std::size_t end, int tid) {
          VisitedSet& visited = *visited_[static_cast<std::size_t>(tid)];
          for (std::size_t s = begin; s < end; ++s) {
            slot_losses_[s] = network_.train_sample(
                static_cast<int>(s), data[indices[s]], inv_batch,
                slot_rngs_[s], visited, tid);
          }
        });
    for (std::size_t s = 0; s < indices.size(); ++s)
      loss_sum += slot_losses_[s];
    breakdown_.batch_compute_seconds += compute.seconds();
  }
  {
    WallTimer update;
    network_.apply_updates(config_.learning_rate, pool_.get());
    breakdown_.update_seconds += update.seconds();
  }
  ++iteration_;
  {
    WallTimer rebuild;
    network_.maybe_rebuild(iteration_, pool_.get());
    breakdown_.rebuild_seconds += rebuild.seconds();
  }
  breakdown_.total_seconds += total.seconds();
  step_busy_seconds_ += total_busy_seconds(*pool_) - busy_before;
  return loss_sum * inv_batch;
}

void Trainer::train(const Dataset& data, long iterations,
                    const std::function<void(long)>& callback,
                    long callback_every) {
  Batcher batcher(data, static_cast<std::size_t>(config_.batch_size),
                  config_.shuffle, config_.seed + 1);
  for (long i = 0; i < iterations; ++i) {
    step(data, batcher.next());
    if (callback && callback_every > 0 &&
        (iteration_ % callback_every == 0 || i + 1 == iterations)) {
      callback(iteration_);
    }
  }
}

double Trainer::core_utilization() const {
  const double denom =
      breakdown_.total_seconds * static_cast<double>(pool_->num_threads());
  return denom > 0.0 ? step_busy_seconds_ / denom : 0.0;
}

}  // namespace slide
