#include "core/network.h"

#include <algorithm>

namespace slide {

Network::Network(const NetworkConfig& config, int max_threads,
                 ParamInit init)
    : config_(config) {
  SLIDE_CHECK(config_.input_dim > 0, "Network: input_dim must be positive");
  SLIDE_CHECK(config_.hidden_units > 0,
              "Network: hidden_units must be positive");
  SLIDE_CHECK(!config_.layers.empty(),
              "Network: at least one layer (the output layer) is required");
  SLIDE_CHECK(config_.max_batch_size > 0,
              "Network: max_batch_size must be positive");
  SLIDE_CHECK(max_threads > 0, "Network: max_threads must be positive");

  Rng seeder(config_.seed);
  embedding_ = std::make_unique<EmbeddingLayer>(
      config_.input_dim, config_.hidden_units, config_.hidden_init_stddev,
      config_.max_batch_size, config_.adam, seeder(), config_.precision,
      init);

  Index fan_in = config_.hidden_units;
  for (const LayerSpec& spec : config_.layers) {
    layers_.push_back(make_layer(spec, fan_in, config_.adam, seeder(),
                                 config_.max_batch_size, max_threads,
                                 config_.precision, init));
    fan_in = spec.units;
  }
}

void Network::refresh_inference_mirrors() {
  WriteGuard guard(*this);
  embedding_->refresh_inference_mirror();
  for (auto& layer : layers_) layer->refresh_inference_mirror();
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
  for (const auto& layer : layers_)
    add(layer->memory(), layer->inference_weight_bytes());
  return f;
}

float Network::train_sample(int slot, const Sample& sample, float inv_batch,
                            Rng& rng, VisitedSet& visited, int tid) {
  SLIDE_ASSERT(slot >= 0 && slot < config_.max_batch_size);
  WriteGuard guard(*this);

  // ---- Forward ----
  embedding_->forward(slot, sample.features);
  const ActiveSet* prev = &embedding_->slot(slot);
  const int last = stack_depth() - 1;
  for (int i = 0; i < last; ++i) {
    Layer& l = *layers_[static_cast<std::size_t>(i)];
    l.forward(slot, *prev, {}, rng, visited, tid);
    prev = &l.slot(slot);
  }
  // Output layer: force the true labels into the active set so the softmax
  // gradient has signal (paper §3.1).
  layers_.back()->forward(slot, *prev, sample.labels, rng, visited, tid);

  // ---- Loss and deltas ----
  const float loss = layers_.back()->compute_softmax_ce_deltas(
      slot, sample.labels, inv_batch);

  // ---- Backward (active x active only) ----
  for (int i = last; i >= 0; --i) {
    ActiveSet& below =
        i == 0 ? embedding_->slot(slot)
               : layers_[static_cast<std::size_t>(i - 1)]->slot(slot);
    if (i != last)
      layers_[static_cast<std::size_t>(i)]->compute_relu_deltas(slot);
    layers_[static_cast<std::size_t>(i)]->backward(slot, below, tid);
  }
  embedding_->backward(slot, sample.features);
  return loss;
}

void Network::apply_updates(float lr, ThreadPool* pool) {
  WriteGuard guard(*this);
  embedding_->apply_updates(lr, pool);
  for (auto& layer : layers_) layer->apply_updates(lr, pool);
}

void Network::maybe_rebuild(long iteration, ThreadPool* pool) {
  WriteGuard guard(*this);
  for (auto& layer : layers_) layer->maybe_rebuild(iteration, pool);
}

void Network::rebuild_all(ThreadPool* pool) {
  WriteGuard guard(*this);
  for (auto& layer : layers_) layer->rebuild_tables(pool);
}

void Network::predict_topk(const SparseVector& x, InferenceContext& ctx,
                           int k, bool exact, std::vector<Index>& out) const {
  SLIDE_CHECK(k >= 1, "predict_topk: k must be >= 1");
#ifndef NDEBUG
  SLIDE_ASSERT(writers_active() == 0);
  const std::uint64_t epoch_at_entry = write_epoch();
#endif
  // Run the same inference forward as predict_top1 through the hidden
  // layers, then let the output layer rank its own candidates — the
  // default hook partial-sorts exactly as this function used to, and the
  // sharded layer overrides it with a k-way heap merge over its per-shard
  // candidate runs (both in ctx scratch, allocation-free at steady state).
  ctx.dense.resize(embedding_->units());
  embedding_->forward_inference(x, ctx.dense.data());
  std::vector<Index>* prev_ids = &ctx.ids_a;
  std::vector<float>* prev_act = &ctx.act_a;
  prev_ids->clear();
  prev_act->assign(ctx.dense.begin(), ctx.dense.end());
  std::vector<Index>* next_ids = &ctx.ids_b;
  std::vector<float>* next_act = &ctx.act_b;
  const std::size_t last = layers_.size() - 1;
  for (std::size_t i = 0; i < last; ++i) {
    layers_[i]->forward_inference(*prev_ids, *prev_act, exact, ctx.rng,
                                  ctx.visited, *next_ids, *next_act);
    std::swap(prev_ids, next_ids);
    std::swap(prev_act, next_act);
  }
  layers_[last]->forward_inference_topk(*prev_ids, *prev_act, k, exact,
                                        ctx.rng, ctx.visited, ctx.topk, out);
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
#ifndef NDEBUG
  SLIDE_ASSERT(writers_active() == 0);
  const std::uint64_t epoch_at_entry = write_epoch();
#endif
  ctx.dense.resize(embedding_->units());
  embedding_->forward_inference(x, ctx.dense.data());

  std::vector<Index>* prev_ids = &ctx.ids_a;
  std::vector<float>* prev_act = &ctx.act_a;
  prev_ids->clear();
  prev_act->assign(ctx.dense.begin(), ctx.dense.end());
  std::vector<Index>* next_ids = &ctx.ids_b;
  std::vector<float>* next_act = &ctx.act_b;

  for (const auto& layer : layers_) {
    layer->forward_inference(*prev_ids, *prev_act, exact, ctx.rng,
                             ctx.visited, *next_ids, *next_act);
    std::swap(prev_ids, next_ids);
    std::swap(prev_act, next_act);
  }
  // Top-1 = argmax of output activations (softmax is monotone, so the
  // normalization is unnecessary for prediction).
  SLIDE_ASSERT(!prev_act->empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < prev_act->size(); ++i) {
    if ((*prev_act)[i] > (*prev_act)[best]) best = i;
  }
  SLIDE_ASSERT(write_epoch() == epoch_at_entry && writers_active() == 0);
  return prev_ids->empty() ? static_cast<Index>(best) : (*prev_ids)[best];
}

Index Network::add_output_units(Index n) {
  WriteGuard guard(*this);
  Layer& out = *layers_.back();
  const Index first = out.add_units(n);
  // Keep the stored config in step: clones (publish_clone) and checkpoint
  // writers derive layer widths from it.
  config_.layers.back().units = out.units();
  return first;
}

void Network::retire_output_units(std::span<const Index> ids) {
  WriteGuard guard(*this);
  layers_.back()->retire_units(ids);
}

void Network::set_use_locks(bool locks) noexcept {
  embedding_->set_use_locks(locks);
  for (auto& layer : layers_) layer->set_use_locks(locks);
}

std::size_t Network::num_parameters() const noexcept {
  std::size_t total = embedding_->num_parameters();
  for (const auto& layer : layers_) total += layer->num_parameters();
  return total;
}

Index Network::max_sampled_units() const noexcept {
  Index max_units = 0;
  for (const auto& layer : layers_)
    max_units = std::max(max_units, layer->units());
  return max_units;
}

}  // namespace slide
