#include "core/network.h"

#include <algorithm>

#include "core/sharded_layer.h"

namespace slide {

namespace {

/// The output layer a spec describes: a SampledLayer for the dense,
/// LSH-sampled and statically sampled policies, a ShardedSampledLayer for
/// an LSH-sampled spec with shards >= 1. `precision` is the network-wide
/// inference precision (config.h).
std::unique_ptr<Layer> make_output_layer(const LayerSpec& spec, Index fan_in,
                                         const AdamConfig& adam,
                                         std::uint64_t seed, int batch_slots,
                                         int max_threads, Precision precision,
                                         ParamInit init) {
  SLIDE_CHECK(!(spec.hashed && spec.random_sampled),
              "Network: hashed and random_sampled are exclusive");
  SLIDE_CHECK(spec.shards == 0 || spec.hashed,
              "Network: shards requires an LSH-sampled (hashed) layer");
  SLIDE_CHECK(!spec.random_sampled || spec.sampling.target > 0,
              "Network: random_sampled needs a positive sampling target");
  SampledLayer::Config cfg;
  cfg.units = spec.units;
  cfg.fan_in = fan_in;
  cfg.hashed = spec.hashed;
  cfg.random_sampled = spec.random_sampled;
  cfg.family = spec.family;
  cfg.table = spec.table;
  cfg.sampling = spec.sampling;
  cfg.rebuild = spec.rebuild;
  cfg.init_stddev = spec.init_stddev;
  cfg.adam = adam;
  cfg.precision = precision;
  cfg.seed = seed;
  if (spec.shards >= 1) {
    return std::make_unique<ShardedSampledLayer>(cfg, spec.shards,
                                                 batch_slots, max_threads,
                                                 init);
  }
  return std::make_unique<SampledLayer>(cfg, batch_slots, max_threads, init);
}

}  // namespace

Network::Network(const NetworkConfig& config, int max_threads,
                 ParamInit init)
    : config_(config), max_threads_(max_threads) {
  SLIDE_CHECK(config_.input_dim > 0, "Network: input_dim must be positive");
  SLIDE_CHECK(config_.hidden_units > 0,
              "Network: hidden_units must be positive");
  SLIDE_CHECK(config_.layers.size() == 1,
              "Network: exactly one LayerSpec (the output layer) is required");
  SLIDE_CHECK(config_.max_batch_size > 0,
              "Network: max_batch_size must be positive");
  SLIDE_CHECK(max_threads > 0, "Network: max_threads must be positive");

  Rng seeder(config_.seed);
  embedding_ = std::make_unique<EmbeddingLayer>(
      config_.input_dim, config_.hidden_units, config_.hidden_init_stddev,
      config_.max_batch_size, config_.adam, seeder(), config_.precision,
      init);
  output_ = make_output_layer(config_.layers.front(), config_.hidden_units,
                              config_.adam, seeder(), config_.max_batch_size,
                              max_threads, config_.precision, init);
}

void Network::refresh_inference_mirrors() {
  WriteGuard guard(*this);
  embedding_->refresh_inference_mirror();
  output_->refresh_inference_mirror();
}

MemoryFootprint Network::memory_footprint() const noexcept {
  MemoryFootprint f;
  auto add = [&f](const LayerMemory& m, std::size_t inference_bytes) {
    f.master_weight_bytes += m.master_bytes;
    f.mirror_bytes += m.mirror_bytes;
    f.optimizer_bytes += m.optimizer_bytes;
    f.retriever_bytes += m.retriever_bytes;
    f.inference_weight_bytes += inference_bytes;
    f.mirror_hugepage_bytes += m.mirror_hugepage_bytes;
  };
  add(embedding_->memory(), embedding_->inference_weight_bytes());
  add(output_->memory(), output_->inference_weight_bytes());
  return f;
}

float Network::train_sample(int slot, const Sample& sample, float inv_batch,
                            Rng& rng, VisitedSet& visited, int tid) {
  SLIDE_ASSERT(slot >= 0 && slot < config_.max_batch_size);
  // Every train_sample leaves the embedding's slot pending, so its flag
  // stands for the output layer's too.
  SLIDE_CHECK(!embedding_->pending(slot),
              "train_sample: the slot is pending until apply_updates");
  SLIDE_CHECK(tid >= 0 && tid < max_threads_,
              "train_sample: tid must be in [0, max_threads)");
  WriteGuard guard(*this);

  // Forward: the output layer forces the true labels into its active set
  // so the softmax gradient has signal (paper §3.1).
  embedding_->forward(slot, sample.features);
  ActiveSet& hidden = embedding_->slot(slot);
  output_->forward(slot, hidden, sample.labels, rng, visited, tid);
  const float loss =
      output_->compute_softmax_ce_deltas(slot, sample.labels, inv_batch);

  // Backward (active x active only).
  output_->backward(slot, hidden, tid);
  embedding_->backward(slot, sample.features);
  return loss;
}

void Network::apply_updates(float lr, ThreadPool* pool) {
  WriteGuard guard(*this);
  embedding_->apply_updates(lr, pool);
  output_->apply_updates(lr, pool);
}

void Network::maybe_rebuild(long iteration, ThreadPool* pool) {
  WriteGuard guard(*this);
  output_->maybe_rebuild(iteration, pool);
}

void Network::rebuild_all(ThreadPool* pool) {
  WriteGuard guard(*this);
  output_->rebuild_tables(pool);
}

void Network::predict_topk(const SparseVector& x, InferenceContext& ctx,
                           int k, bool exact, std::vector<Index>& out) const {
  SLIDE_CHECK(k >= 1, "predict_topk: k must be >= 1");
#ifndef NDEBUG
  SLIDE_ASSERT(writers_active() == 0);
  const std::uint64_t epoch_at_entry = write_epoch();
#endif
  // Embed, then let the output layer rank its own candidates against the
  // dense hidden vector: the default hook partial-sorts, and the sharded
  // layer merges its per-shard candidate runs through a k-way heap (both
  // in ctx scratch, allocation-free at steady state).
  ctx.dense.resize(embedding_->units());
  embedding_->forward_inference(x, ctx.dense.data());
  output_->forward_inference_topk({}, ctx.dense, k, exact, ctx.rng,
                                  ctx.visited, ctx.topk, out);
  // A moved epoch or live writer means a writer overlapped this read — a
  // data race the thread-safety contract (see network.h) forbids.
  SLIDE_ASSERT(write_epoch() == epoch_at_entry && writers_active() == 0);
}

std::vector<Index> Network::predict_topk(const SparseVector& x,
                                         InferenceContext& ctx, int k,
                                         bool exact) const {
  std::vector<Index> out;
  predict_topk(x, ctx, k, exact, out);
  return out;
}

void Network::predict_batch(std::span<const SparseVector> inputs,
                            BatchOutput& out, ThreadPool* pool, int top_k,
                            bool exact) const {
  out.ptrs_.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) out.ptrs_[i] = &inputs[i];
  predict_batch(std::span<const SparseVector* const>(out.ptrs_), out, pool,
                top_k, exact);
}

void Network::predict_batch(std::span<const SparseVector* const> inputs,
                            BatchOutput& out, ThreadPool* pool, int top_k,
                            bool exact) const {
  SLIDE_CHECK(top_k >= 1, "predict_batch: top_k must be >= 1");
  const std::size_t n = inputs.size();
  out.labels_.clear();
  out.offsets_.assign(1, 0);
  if (n == 0) return;

  // (Re)build the per-thread contexts on first use or after an
  // architecture change (the serving engine reuses one BatchOutput across
  // hot-swapped snapshots).
  const Index scratch_units = std::max<Index>(max_sampled_units(), 1);
  const bool parallel = pool != nullptr && pool->num_threads() > 1 && n > 1;
  const std::size_t contexts_needed =
      parallel ? static_cast<std::size_t>(pool->num_threads()) : 1;
  if (out.context_units_ != scratch_units) {
    out.contexts_.clear();
    out.context_units_ = scratch_units;
  }
  while (out.contexts_.size() < contexts_needed) {
    out.contexts_.push_back(std::make_unique<InferenceContext>(
        scratch_units,
        out.seed_ + 0x9E3779B9ull * (out.contexts_.size() + 1)));
  }
  if (out.rows_.size() < n) out.rows_.resize(n);

  auto run = [&](std::size_t begin, std::size_t end, int tid) {
    InferenceContext& ctx = *out.contexts_[static_cast<std::size_t>(tid)];
    for (std::size_t i = begin; i < end; ++i)
      predict_topk(*inputs[i], ctx, top_k, exact, out.rows_[i]);
  };
  if (parallel) {
    pool->parallel_range(n, run);
  } else {
    run(0, n, 0);
  }

  // Pack the per-item rows into the flat result (deterministic order
  // regardless of which thread served which input).
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += out.rows_[i].size();
  out.labels_.reserve(total);
  out.offsets_.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.labels_.insert(out.labels_.end(), out.rows_[i].begin(),
                       out.rows_[i].end());
    out.offsets_.push_back(out.labels_.size());
  }
}

Index Network::predict_top1(const SparseVector& x, InferenceContext& ctx,
                            bool exact) const {
  predict_topk(x, ctx, 1, exact, ctx.ids_a);
  SLIDE_CHECK(!ctx.ids_a.empty(),
              "predict_top1: no live candidate (every output unit retired)");
  return ctx.ids_a.front();
}

Index Network::add_output_units(Index n) {
  WriteGuard guard(*this);
  const Index first = output_->add_units(n);
  // Keep the stored config in step: clones (publish_clone) and checkpoint
  // writers derive layer widths from it.
  config_.layers.front().units = output_->units();
  return first;
}

void Network::retire_output_units(std::span<const Index> ids) {
  WriteGuard guard(*this);
  output_->retire_units(ids);
}

std::size_t Network::num_parameters() const noexcept {
  return embedding_->num_parameters() + output_->num_parameters();
}

Index Network::max_sampled_units() const noexcept {
  return output_->units();
}

}  // namespace slide
