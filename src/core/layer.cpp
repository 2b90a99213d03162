#include "core/layer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/sharded_layer.h"
#include "simd/kernels.h"
#include "sys/prefetch.h"
#include "sys/timer.h"

namespace slide {

namespace {

void init_normal(float* w, std::size_t n, float stddev, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) w[i] = stddev * rng.normal();
}

/// The embedding forward through the fp32 master weights: out = ReLU(W^T x
/// + b) with W input-major [input_dim x units].
void embedding_forward(const AlignedVector<float>& bias, const float* weights,
                       Index units, const SparseVector& x, float* out,
                       [[maybe_unused]] Index input_dim) {
  std::copy(bias.begin(), bias.end(), out);
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    SLIDE_ASSERT(idx[i] < input_dim);
    if (i + kPrefetchDistance < idx.size()) {
      prefetch_read(weights + static_cast<std::size_t>(
                                  idx[i + kPrefetchDistance]) *
                                  units);
    }
    simd::axpy(val[i], weights + static_cast<std::size_t>(idx[i]) * units,
               out, units);
  }
  simd::relu(out, units);
}

/// Int8 embedding forward: each active input feature contributes one
/// s8 row; its per-row scale folds into the axpy alpha together with the
/// feature value, so accumulation stays fp32.
void embedding_forward_i8(const AlignedVector<float>& bias,
                          const simd::I8* weights, const float* row_scales,
                          Index units, const SparseVector& x, float* out,
                          [[maybe_unused]] Index input_dim) {
  std::copy(bias.begin(), bias.end(), out);
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    SLIDE_ASSERT(idx[i] < input_dim);
    if (i + kPrefetchDistance < idx.size()) {
      prefetch_read(weights + static_cast<std::size_t>(
                                  idx[i + kPrefetchDistance]) *
                                  units);
    }
    const float alpha = val[i] * row_scales[idx[i]];
    if (alpha == 0.0f) continue;  // zero row (scale 0) or zero feature
    simd::axpy_i8(alpha, weights + static_cast<std::size_t>(idx[i]) * units,
                  out, units);
  }
  simd::relu(out, units);
}

/// Bytes of the int8 mirror actually backed by THP (all-or-nothing per
/// allocation: HugeBuffer records whether the kernel accepted the madvise
/// for the whole range).
std::size_t thp_bytes(const HugeArrayT<simd::I8>& mirror) noexcept {
  return mirror.uses_thp() ? mirror.size() * sizeof(simd::I8) : 0;
}

/// One unit's pre-activation against the previous layer's active set,
/// through its fp32 weight row.
float score_unit(float bias, const float* w, std::span<const Index> prev_ids,
                 std::span<const float> prev_act) noexcept {
  if (prev_ids.empty())
    return bias + simd::dot(w, prev_act.data(), prev_act.size());
  return bias + simd::sparse_dot(prev_ids.data(), prev_act.data(),
                                 prev_ids.size(), w);
}

SampledLayer::Config dense_layer_config(Index units, Index fan_in,
                                        Activation activation,
                                        float init_stddev,
                                        const AdamConfig& adam,
                                        std::uint64_t seed,
                                        Precision precision) {
  SampledLayer::Config cfg;
  cfg.units = units;
  cfg.fan_in = fan_in;
  cfg.activation = activation;
  cfg.hashed = false;
  cfg.random_sampled = false;
  cfg.init_stddev = init_stddev;
  cfg.adam = adam;
  cfg.precision = precision;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

const char* to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDense:
      return "dense";
    case LayerKind::kSampled:
      return "sampled";
    case LayerKind::kRandomSampled:
      return "random_sampled";
    case LayerKind::kSharded:
      return "sharded";
  }
  return "?";
}

void Layer::forward_inference_topk(std::span<const Index> prev_ids,
                                   std::span<const float> prev_act, int k,
                                   bool exact, Rng& rng, VisitedSet& visited,
                                   TopKScratch& scratch,
                                   std::vector<Index>& out) const {
  forward_inference(prev_ids, prev_act, exact, rng, visited, scratch.ids,
                    scratch.act);
  std::vector<std::size_t>& order = scratch.order;
  const std::vector<float>& act = scratch.act;
  order.resize(act.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t take =
      std::min<std::size_t>(static_cast<std::size_t>(k), order.size());
  // Ties break toward the earlier candidate position (the lower unit id in
  // exact mode), matching predict_top1's first-max rule.
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(take),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return act[a] > act[b] || (act[a] == act[b] && a < b);
                    });
  out.clear();
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(scratch.ids.empty() ? static_cast<Index>(order[i])
                                      : scratch.ids[order[i]]);
  }
}

// ===========================================================================
// EmbeddingLayer
// ===========================================================================

EmbeddingLayer::EmbeddingLayer(Index input_dim, Index units,
                               float init_stddev, int batch_slots,
                               const AdamConfig& adam, std::uint64_t seed,
                               Precision precision, ParamInit init)
    : input_dim_(input_dim),
      units_(units),
      precision_(precision),
      weights_(static_cast<std::size_t>(input_dim) * units),
      bias_(units, 0.0f),
      adam_(adam, static_cast<std::size_t>(input_dim) * units + units) {
  SLIDE_CHECK(input_dim_ > 0 && units_ > 0,
              "EmbeddingLayer: dimensions must be positive");
  SLIDE_CHECK(batch_slots > 0, "EmbeddingLayer: slots must be positive");
  if (!init.deferred()) {
    Rng rng(seed);
    init_normal(weights_.data(), weights_.size(),
                init_stddev > 0.0f ? init_stddev : 0.5f, rng);
  }

  slots_.resize(static_cast<std::size_t>(batch_slots));
  for (auto& s : slots_) {
    s.dense_width = units_;
    s.act.assign(units_, 0.0f);
    s.err.assign(units_, 0.0f);
  }
  inputs_.resize(static_cast<std::size_t>(batch_slots));
  pending_.assign(static_cast<std::size_t>(batch_slots), 0);

  // Allocate the int8 mirror up front so later refreshes are noexcept
  // (re-quantize in place, no reallocation). It exists only at kInt8 and
  // is hugepage-backed (HugeArrayT).
  if (precision_ == Precision::kInt8) {
    weights_i8_.resize(weights_.size());
    i8_scales_.assign(static_cast<std::size_t>(input_dim_), 0.0f);
  }
  if (!init.deferred()) refresh_inference_mirror();
}

void EmbeddingLayer::refresh_inference_mirror() noexcept {
  if (precision_ != Precision::kInt8) return;
  // Per-input-row symmetric quantization (rows are units_-long here: the
  // layout is input-major).
  for (Index r = 0; r < input_dim_; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * units_;
    i8_scales_[r] = simd::quantize_i8(weights_.data() + off,
                                      weights_i8_.data() + off, units_);
  }
}

std::size_t EmbeddingLayer::inference_weight_bytes() const noexcept {
  const std::size_t bias_bytes = bias_.size() * sizeof(float);
  if (i8_inference())
    return weights_i8_.size() * sizeof(simd::I8) +
           i8_scales_.size() * sizeof(float) + bias_bytes;
  return weights_.size() * sizeof(float) + bias_bytes;
}

LayerMemory EmbeddingLayer::memory() const noexcept {
  LayerMemory m;
  m.master_bytes = (weights_.size() + bias_.size()) * sizeof(float);
  m.mirror_bytes = weights_i8_.size() * sizeof(simd::I8) +
                   i8_scales_.size() * sizeof(float);
  m.mirror_hugepage_bytes = thp_bytes(weights_i8_);
  m.optimizer_bytes = 2 * adam_.num_params() * sizeof(float);
  return m;
}

void EmbeddingLayer::forward(int slot, const SparseVector& x) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  forward_master(x, s.act.data());  // training always reads fp32 masters
  std::fill(s.err.begin(), s.err.end(), 0.0f);
}

void EmbeddingLayer::forward_master(const SparseVector& x,
                                    float* out) const {
  embedding_forward(bias_, weights_.data(), units_, x, out, input_dim_);
}

void EmbeddingLayer::forward_inference(const SparseVector& x,
                                       float* out) const {
  if (i8_inference()) {
    embedding_forward_i8(bias_, weights_i8_.data(), i8_scales_.data(), units_,
                         x, out, input_dim_);
  } else {
    forward_master(x, out);
  }
}

void EmbeddingLayer::backward(int slot, const SparseVector& x) {
  SLIDE_CHECK(!pending(slot),
              "EmbeddingLayer::backward: the slot is pending until "
              "apply_updates");
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  // ReLU': activations are post-ReLU, so act > 0 <=> pre-activation > 0.
  for (Index j = 0; j < units_; ++j) {
    if (s.act[j] <= 0.0f) s.err[j] = 0.0f;
  }
  inputs_[static_cast<std::size_t>(slot)] = x;
  pending_[static_cast<std::size_t>(slot)] = 1;
}

void EmbeddingLayer::sum_column(std::span<const RowIndex::Ref> refs,
                                float* g) const {
  std::fill(g, g + units_, 0.0f);
  for (const RowIndex::Ref& r : refs)
    simd::axpy(r.scale, slots_[r.slot].err.data(), g, units_);
}

void EmbeddingLayer::sum_bias(float* g) const {
  std::fill(g, g + units_, 0.0f);
  for (std::size_t s = 0; s < pending_.size(); ++s)
    if (pending_[s] != 0) simd::axpy(1.0f, slots_[s].err.data(), g, units_);
}

std::vector<float> EmbeddingLayer::gradient_column(Index input_index) const {
  std::vector<RowIndex::Ref> refs;
  for (std::size_t s = 0; s < pending_.size(); ++s) {
    if (pending_[s] == 0) continue;
    const auto idx = inputs_[s].indices();
    for (std::size_t p = 0; p < idx.size(); ++p)
      if (idx[p] == input_index)
        refs.push_back({static_cast<std::uint32_t>(s), inputs_[s].values()[p]});
  }
  std::vector<float> g(units_);
  sum_column(refs, g.data());
  return g;
}

float EmbeddingLayer::bias_gradient(Index unit) const {
  std::vector<float> g(units_);
  sum_bias(g.data());
  return g[unit];
}

void EmbeddingLayer::apply_updates(float lr, ThreadPool* pool) {
  pending_slots_.clear();
  for (std::size_t s = 0; s < pending_.size(); ++s)
    if (pending_[s] != 0) pending_slots_.push_back(static_cast<std::uint32_t>(s));
  columns_.build(
      input_dim_, pending_slots_,
      [&](std::uint32_t s) { return inputs_[s].indices(); },
      [&](std::uint32_t s) { return inputs_[s].values(); });
  adam_.step_begin();

  // The bias row is touched by every sample; update it densely.
  thread_local AlignedVector<float> bias_grad;
  bias_grad.resize(units_);
  sum_bias(bias_grad.data());
  const std::size_t bias_base = static_cast<std::size_t>(input_dim_) * units_;
  adam_.update_span(bias_.data(), bias_grad.data(), bias_base, units_, lr);

  // Columns are independent, so each thread walks one contiguous slice of
  // them in ascending order, sums each fed column into its own buffer, and
  // w and the Adam moments stream forward.
  auto apply_columns = [&](std::size_t begin, std::size_t end, int) {
    thread_local AlignedVector<float> g;
    g.resize(units_);
    for (std::size_t c = begin; c < end; ++c) {
      const auto refs = columns_.refs(static_cast<Index>(c));
      if (refs.empty()) continue;
      sum_column(refs, g.data());
      adam_.update_span(weights_.data() + c * units_, g.data(), c * units_,
                        units_, lr);
    }
  };
  if (pool != nullptr)
    pool->parallel_range(input_dim_, apply_columns);
  else
    apply_columns(0, input_dim_, 0);
  for (std::uint32_t s : pending_slots_) pending_[s] = 0;
}

// ===========================================================================
// SampledLayer
// ===========================================================================

SampledLayer::SampledLayer(const Config& config, int batch_slots,
                           int max_threads, ParamInit init)
    : config_(config),
      units_(config.units),
      fan_in_(config.fan_in),
      weights_(static_cast<std::size_t>(config.units) * config.fan_in),
      bias_(config.units, 0.0f),
      adam_(config.adam,
            static_cast<std::size_t>(config.units) * config.fan_in +
                config.units),
      seed_(config.seed) {
  SLIDE_CHECK(units_ > 0 && fan_in_ > 0,
              "SampledLayer: dimensions must be positive");
  SLIDE_CHECK(batch_slots > 0 && max_threads > 0,
              "SampledLayer: slots/threads must be positive");
  SLIDE_CHECK(!(config_.hashed && config_.random_sampled),
              "SampledLayer: hashed and random_sampled are exclusive");

  if (!init.deferred()) {
    Rng rng(config.seed);
    const float stddev = config.init_stddev > 0.0f
                             ? config.init_stddev
                             : 2.0f / std::sqrt(static_cast<float>(fan_in_));
    init_normal(weights_.data(), weights_.size(), stddev, rng);
  }

  slots_.resize(static_cast<std::size_t>(batch_slots));
  pending_prev_.assign(static_cast<std::size_t>(batch_slots), nullptr);
  sampling_time_ = std::vector<PaddedDouble>(
      static_cast<std::size_t>(max_threads));
  compute_time_ = std::vector<PaddedDouble>(
      static_cast<std::size_t>(max_threads));

  if (config_.hashed) {
    HashFamilyConfig family = config_.family;
    family.dim = fan_in_;
    retriever_ = std::make_unique<retrieval::LshRetriever>(
        make_hash_family(family), config_.table, config_.sampling,
        retrieval::RowView{weights_.data(), fan_in_, units_},
        config.seed + 1);
    tables_ = &retriever_->tables();
    next_rebuild_ = config_.rebuild.initial_period;
    // Initial build (§3.1); a deferred layer builds once it is filled.
    if (!init.deferred()) rebuild_tables(nullptr);
  }

  // Allocate the int8 mirror up front so later refreshes are noexcept
  // (re-quantize in place, no reallocation).
  if (config_.precision == Precision::kInt8) {
    weights_i8_.resize(weights_.size());
    i8_scales_.assign(static_cast<std::size_t>(units_), 0.0f);
  }
  if (!init.deferred()) refresh_inference_mirror();
}

void SampledLayer::refresh_inference_mirror() noexcept {
  if (config_.precision != Precision::kInt8) return;
  // Per-neuron-row symmetric quantization (rows are fan_in_-long;
  // neuron-major layout). Row-local and deterministic, so reloading the
  // same masters under any shard partition reproduces identical scales.
  for (Index u = 0; u < units_; ++u) {
    const std::size_t off =
        static_cast<std::size_t>(u) * static_cast<std::size_t>(fan_in_);
    i8_scales_[u] = simd::quantize_i8(weights_.data() + off,
                                      weights_i8_.data() + off,
                                      static_cast<std::size_t>(fan_in_));
  }
}

std::size_t SampledLayer::inference_weight_bytes() const noexcept {
  const std::size_t bias_bytes = bias_.size() * sizeof(float);
  if (i8_inference())
    return weights_i8_.size() * sizeof(simd::I8) +
           i8_scales_.size() * sizeof(float) + bias_bytes;
  return weights_.size() * sizeof(float) + bias_bytes;
}

LayerMemory SampledLayer::memory() const noexcept {
  LayerMemory m;
  m.master_bytes = (weights_.size() + bias_.size()) * sizeof(float);
  m.mirror_bytes = weights_i8_.size() * sizeof(simd::I8) +
                   i8_scales_.size() * sizeof(float);
  m.mirror_hugepage_bytes = thp_bytes(weights_i8_);
  m.optimizer_bytes = 2 * adam_.num_params() * sizeof(float);
  m.retriever_bytes =
      retriever_ != nullptr ? retriever_->memory_bytes() : 0;
  return m;
}

float SampledLayer::activation_of_i8(Index unit,
                                     std::span<const Index> prev_ids,
                                     std::span<const float> prev_act,
                                     const simd::U8* qx,
                                     float act_scale) const {
  const simd::I8* w =
      weights_i8_.data() + static_cast<std::size_t>(unit) * fan_in_;
  const float sw = i8_scales_[unit];
  if (sw == 0.0f) return bias_[unit];  // all-zero weight row
  if (prev_ids.empty()) {
    // Dense prev: integer dot against the caller's u8-quantized
    // activations, score recovered as sw * sx * dot (simd/int8.h).
    if (act_scale == 0.0f) return bias_[unit];  // all-zero activations
    return bias_[unit] +
           sw * act_scale *
               static_cast<float>(simd::dot_i8(w, qx, prev_act.size()));
  }
  // Sparse prev: fp32 values against widened s8 weights (a byte gather has
  // no SIMD win at SLIDE's active-set sparsity).
  return bias_[unit] + sw * simd::sparse_dot_i8(prev_ids.data(),
                                                prev_act.data(),
                                                prev_ids.size(), w);
}

float SampledLayer::activation_of(Index unit,
                                  std::span<const Index> prev_ids,
                                  std::span<const float> prev_act) const {
  return score_unit(bias_[unit], weight_row(unit), prev_ids, prev_act);
}

void SampledLayer::score_rows(std::span<const Index> ids,
                              std::span<const Index> prev_ids,
                              std::span<const float> prev_act,
                              float* out) const {
  const std::size_t n = ids.size();
  if (i8_inference()) {
    const simd::U8* qx = nullptr;
    float sx = 0.0f;
    if (prev_ids.empty()) {
      // One activation quantization per query, amortized over every
      // candidate row scored below.
      thread_local std::vector<simd::U8> qx_scratch;
      qx_scratch.resize(prev_act.size());
      sx = simd::quantize_act_u8(prev_act.data(), qx_scratch.data(),
                                 prev_act.size());
      qx = qx_scratch.data();
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n)
        prefetch_read(inference_row(ids[i + kPrefetchDistance]));
      out[i] = activation_of_i8(ids[i], prev_ids, prev_act, qx, sx);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n)
      prefetch_read(inference_row(ids[i + kPrefetchDistance]));
    out[i] = activation_of(ids[i], prev_ids, prev_act);
  }
}

void SampledLayer::select_active(int slot, const ActiveSet& prev,
                                 std::span<const Index> forced, Rng& rng,
                                 VisitedSet& visited, int tid) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  s.ids.clear();
  const Index target = std::min<Index>(config_.sampling.target, units_);

  visited.begin_epoch();
  for (Index f : forced) {
    SLIDE_ASSERT(f < units_);
    if (visited.insert(f)) s.ids.push_back(f);
  }

  // Tombstone gate: false on the no-churn path, so the loops below stay
  // bit-identical (and consume the same RNG stream) when nothing was ever
  // retired.
  const bool tombstoned =
      retriever_ != nullptr && retriever_->has_removed();

  if (target >= units_) {
    // Degenerate setting: everything (live) is active.
    for (Index u = 0; u < units_; ++u) {
      if (tombstoned && retriever_->is_removed(u)) continue;
      if (visited.insert(u)) s.ids.push_back(u);
    }
    return;
  }

  WallTimer timer;
  // Candidate generation through the retriever (fresh_epoch = false: the
  // forced labels above are pre-stamped so they are never re-retrieved).
  // For the LSH backend this is the historical key → buckets →
  // sample_neurons sequence, bit for bit.
  retriever_->retrieve(prev.ids,
                       std::span<const float>(prev.act.data(), prev.size()),
                       target, rng, visited, s.ids,
                       /*fresh_epoch=*/false);

  if (s.ids.size() < target) {
    // Uniform random top-up (the reference implementation's fill-in). The
    // attempt cap guards against the coupon-collector tail when target is
    // close to the layer width.
    long attempts = 20L * static_cast<long>(target);
    while (s.ids.size() < target && attempts-- > 0) {
      const Index id = rng.uniform(units_);
      if (tombstoned && retriever_->is_removed(id)) continue;
      if (visited.insert(id)) s.ids.push_back(id);
    }
  }
  auto& acc = sampling_time_[static_cast<std::size_t>(tid)].value;
  acc.store(acc.load(std::memory_order_relaxed) + timer.seconds(),
            std::memory_order_relaxed);
}

void SampledLayer::compute_activations(ActiveSet& s,
                                       const ActiveSet& prev) const {
  const std::span<const Index> prev_ids = prev.ids;
  const std::span<const float> prev_act(prev.act.data(), prev.size());
  if (s.dense()) {
    s.act.resize(units_);
    s.err.assign(units_, 0.0f);
    for (Index u = 0; u < units_; ++u)
      s.act[u] = activation_of(u, prev_ids, prev_act);
    if (config_.activation == Activation::kReLU)
      simd::relu(s.act.data(), units_);
    return;
  }
  const std::size_t n = s.ids.size();
  s.act.resize(n);
  s.err.assign(n, 0.0f);
  // A dense prev reads every line of a candidate row; a sparse one reads a
  // few scattered entries, and fetching the row's first line serves it.
  const std::size_t ahead = prev.dense() ? fan_in_ * sizeof(float) : 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n)
      prefetch_span</*write=*/false>(weight_row(s.ids[i + kPrefetchDistance]),
                                     ahead);
    s.act[i] = activation_of(s.ids[i], prev_ids, prev_act);
  }
  if (config_.activation == Activation::kReLU)
    simd::relu(s.act.data(), n);
}

void SampledLayer::forward(int slot, const ActiveSet& prev,
                           std::span<const Index> forced, Rng& rng,
                           VisitedSet& visited, int tid) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  if (config_.hashed) {
    select_active(slot, prev, forced, rng, visited, tid);
    active_sum_.fetch_add(s.ids.size(), std::memory_order_relaxed);
    active_events_.fetch_add(1, std::memory_order_relaxed);
  } else if (config_.random_sampled) {
    // Sampled-Softmax baseline: labels + static uniform classes. Unlike the
    // LSH path the choice is input-independent (that is the point of the
    // paper's Figure 7 comparison).
    s.ids.clear();
    visited.begin_epoch();
    for (Index f : forced) {
      if (visited.insert(f)) s.ids.push_back(f);
    }
    const Index target = std::min<Index>(config_.sampling.target, units_);
    long attempts = 20L * static_cast<long>(target);
    while (s.ids.size() < target && attempts-- > 0) {
      const Index id = rng.uniform(units_);
      if (visited.insert(id)) s.ids.push_back(id);
    }
    active_sum_.fetch_add(s.ids.size(), std::memory_order_relaxed);
    active_events_.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.ids.clear();  // dense mode
    s.dense_width = units_;
  }
  WallTimer timer;
  compute_activations(s, prev);
  auto& acc = compute_time_[static_cast<std::size_t>(tid)].value;
  acc.store(acc.load(std::memory_order_relaxed) + timer.seconds(),
            std::memory_order_relaxed);
}

float SampledLayer::compute_softmax_ce_deltas(int slot,
                                              std::span<const Index> labels,
                                              float inv_batch) {
  SLIDE_CHECK(config_.activation == Activation::kSoftmax,
              "softmax deltas on a non-softmax layer");
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = s.size();
  if (n == 0) return 0.0f;

  // Softmax over the *active* neurons only: the normalizing constant is the
  // sum over actives, not over all units (paper §3.1).
  simd::softmax_inplace(s.act.data(), n);

  const float y = labels.empty()
                      ? 0.0f
                      : 1.0f / static_cast<float>(labels.size());
  float loss = 0.0f;
  if (s.dense()) {
    for (std::size_t i = 0; i < n; ++i) s.err[i] = s.act[i] * inv_batch;
    for (Index label : labels) {
      s.err[label] -= y * inv_batch;
      loss -= y * std::log(std::max(s.act[label], 1e-30f));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) s.err[i] = s.act[i] * inv_batch;
    // Training forwards force the labels to the front of the active set.
    for (std::size_t i = 0; i < labels.size(); ++i) {
      SLIDE_ASSERT(i < s.ids.size() && s.ids[i] == labels[i]);
      s.err[i] -= y * inv_batch;
      loss -= y * std::log(std::max(s.act[i], 1e-30f));
    }
  }
  return loss;
}

void SampledLayer::compute_relu_deltas(int slot) {
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = s.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (s.act[i] <= 0.0f) s.err[i] = 0.0f;
  }
}

void SampledLayer::backward(int slot, ActiveSet& prev, int tid) {
  const ActiveSet*& record = pending_prev_[static_cast<std::size_t>(slot)];
  SLIDE_CHECK(record == nullptr,
              "SampledLayer::backward: the slot is pending until "
              "apply_updates");
  ActiveSet& s = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = s.size();
  WallTimer timer;

  const std::size_t prev_n = prev.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float delta = s.err[i];
    if (delta == 0.0f) continue;
    const float* w = weight_row(s.dense() ? static_cast<Index>(i) : s.ids[i]);
    if (prev.dense()) {
      simd::axpy(delta, w, prev.err.data(), prev_n);
    } else {
      for (std::size_t p = 0; p < prev_n; ++p)
        prev.err[p] += delta * w[prev.ids[p]];
    }
  }
  record = &prev;
  auto& acc = compute_time_[static_cast<std::size_t>(tid)].value;
  acc.store(acc.load(std::memory_order_relaxed) + timer.seconds(),
            std::memory_order_relaxed);
}

std::vector<RowIndex::Ref> SampledLayer::refs_of(Index unit) const {
  std::vector<RowIndex::Ref> refs;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (pending_prev_[s] == nullptr) continue;
    const ActiveSet& set = slots_[s];
    const auto slot = static_cast<std::uint32_t>(s);
    if (set.dense()) {
      if (unit < set.size()) refs.push_back({slot, set.err[unit]});
      continue;
    }
    for (std::size_t i = 0; i < set.ids.size(); ++i)
      if (set.ids[i] == unit) refs.push_back({slot, set.err[i]});
  }
  return refs;
}

bool SampledLayer::sum_row(Index unit, std::span<const RowIndex::Ref> refs,
                           std::span<const std::uint32_t> dense, float* g,
                           float* bias_grad) const {
  float b = 0.0f;
  bool stepped = false;
  auto add = [&](std::uint32_t slot, float delta) {
    if (delta == 0.0f) return;
    if (!stepped) std::fill(g, g + fan_in_, 0.0f);
    stepped = true;
    b += delta;
    const ActiveSet& prev = *pending_prev_[slot];
    if (prev.dense()) {
      simd::axpy(delta, prev.act.data(), g, prev.size());
    } else {
      for (std::size_t p = 0; p < prev.ids.size(); ++p)
        g[prev.ids[p]] += delta * prev.act[p];
    }
  };
  auto add_dense = [&](std::uint32_t slot) {
    const ActiveSet& set = slots_[slot];
    if (unit < set.size()) add(slot, set.err[unit]);
  };
  // Merge the two slot-ordered lists.
  std::size_t d = 0;
  for (const RowIndex::Ref& r : refs) {
    for (; d < dense.size() && dense[d] < r.slot; ++d) add_dense(dense[d]);
    add(r.slot, r.scale);
  }
  for (; d < dense.size(); ++d) add_dense(dense[d]);
  *bias_grad = b;
  return stepped;
}

std::vector<float> SampledLayer::gradient_row(Index unit) const {
  std::vector<float> g(fan_in_);
  float b = 0.0f;
  sum_row(unit, refs_of(unit), {}, g.data(), &b);
  return g;
}

float SampledLayer::bias_gradient(Index unit) const {
  std::vector<float> g(fan_in_);
  float b = 0.0f;
  sum_row(unit, refs_of(unit), {}, g.data(), &b);
  return b;
}

void SampledLayer::apply_updates(float lr, ThreadPool* pool) {
  pending_slots_.clear();
  dense_slots_.clear();
  for (std::size_t s = 0; s < pending_prev_.size(); ++s) {
    if (pending_prev_[s] == nullptr) continue;
    pending_slots_.push_back(static_cast<std::uint32_t>(s));
    if (slots_[s].dense() && slots_[s].size() > 0)
      dense_slots_.push_back(static_cast<std::uint32_t>(s));
  }
  // A dense slot has no ids, so it adds nothing here: it holds every unit
  // at the unit's own position, and every row visits dense_slots_ instead.
  rows_.build(
      units_, pending_slots_,
      [&](std::uint32_t s) { return std::span<const Index>(slots_[s].ids); },
      [&](std::uint32_t s) { return std::span<const float>(slots_[s].err); });
  adam_.step_begin();

  const std::size_t bias_base = static_cast<std::size_t>(units_) * fan_in_;

  // Ascending rows, one contiguous slice per thread, as in the embedding:
  // each row has one writer, and its gradient is summed in slot order.
  auto apply_rows = [&](std::size_t begin, std::size_t end, int) {
    thread_local AlignedVector<float> g;
    g.resize(fan_in_);
    for (std::size_t u = begin; u < end; ++u) {
      const Index unit = static_cast<Index>(u);
      float bias_grad = 0.0f;
      if (!sum_row(unit, rows_.refs(unit), dense_slots_, g.data(),
                   &bias_grad))
        continue;
      adam_.update_span(weights_.data() + u * fan_in_, g.data(), u * fan_in_,
                        fan_in_, lr);
      adam_.update_at(&bias_[u], bias_grad, bias_base + u, lr);
    }
  };
  if (pool != nullptr)
    pool->parallel_range(units_, apply_rows);
  else
    apply_rows(0, units_, 0);
  for (std::uint32_t s : pending_slots_) pending_prev_[s] = nullptr;
}

bool SampledLayer::maybe_rebuild(long iteration, ThreadPool* pool) {
  if (!config_.hashed || !config_.rebuild.enabled) return false;
  if (iteration < next_rebuild_) return false;

  // In place on the calling thread: the trainer's contract says no table
  // reader is active between batches.
  rebuild_tables(pool);
  ++rebuild_count_;
  // Exponential back-off between rebuilds (paper §4.2 heuristic 1).
  const double gap = static_cast<double>(config_.rebuild.initial_period) *
                     std::exp(config_.rebuild.decay *
                              static_cast<double>(rebuild_count_));
  next_rebuild_ =
      iteration + std::max<long>(1, static_cast<long>(std::llround(gap)));
  return true;
}

void SampledLayer::rebuild_tables(ThreadPool* pool) {
  if (config_.hashed)
    tables_->build_from_rows(weights_.data(), fan_in_, units_, pool);
}

TableHealth SampledLayer::table_health() const {
  if (tables_ == nullptr) return {};
  return tables_->health();
}

Index SampledLayer::add_units(Index n) {
  SLIDE_CHECK(config_.hashed,
              "add_units: only hashed (retriever-backed) layers grow");
  SLIDE_CHECK(n > 0, "add_units: unit count must be positive");

  const Index old_units = units_;
  const Index new_units = old_units + n;
  const std::size_t old_w = static_cast<std::size_t>(old_units) * fan_in_;
  const std::size_t new_w = static_cast<std::size_t>(new_units) * fan_in_;

  // HugeArray::resize replaces the storage zeroed — copy-grow instead.
  auto copy_grow = [&](HugeArray& arr) {
    HugeArray grown(new_w);
    std::memcpy(grown.data(), arr.data(), old_w * sizeof(float));
    arr = std::move(grown);
  };
  copy_grow(weights_);

  // New rows draw from an Rng keyed on (layer seed, growth base): the same
  // growth sequence reproduces identical rows regardless of when in the
  // serving session it runs.
  Rng rng(seed_ + 0x9E3779B97F4A7C15ull +
          static_cast<std::uint64_t>(old_units));
  const float stddev = config_.init_stddev > 0.0f
                           ? config_.init_stddev
                           : 2.0f / std::sqrt(static_cast<float>(fan_in_));
  init_normal(weights_.data() + old_w, new_w - old_w, stddev, rng);

  bias_.resize(static_cast<std::size_t>(new_units), 0.0f);
  adam_.grow(old_w, new_w, static_cast<std::size_t>(old_units),
             static_cast<std::size_t>(new_units));

  // The int8 mirror re-quantizes wholesale below, so a plain (zeroing)
  // resize is fine here.
  if (!weights_i8_.empty()) {
    weights_i8_.resize(new_w);
    i8_scales_.resize(static_cast<std::size_t>(new_units), 0.0f);
  }

  units_ = new_units;
  config_.units = new_units;
  appended_units_ += n;
  refresh_inference_mirror();

  // Re-target the retrieval index at the reallocated rows, then bring the
  // appended ids live by splicing them into the tables (no reader can
  // query them under the writer role).
  retriever_->resize_universe(
      retrieval::RowView{weights_.data(), fan_in_, new_units});
  tables_->splice_rows(old_units, weight_row(old_units), fan_in_, n, rng);
  return old_units;
}

void SampledLayer::retire_units(std::span<const Index> ids) {
  SLIDE_CHECK(config_.hashed,
              "retire_units: only hashed (retriever-backed) layers retire");
  // All or nothing: a bad id anywhere in the batch retires none of it.
  for (Index id : ids)
    SLIDE_CHECK(id < units_, "retire_units: unit id out of range");
  for (Index id : ids) retriever_->remove(id);
}

Index SampledLayer::retired_count() const noexcept {
  return retriever_ != nullptr ? retriever_->removed_count() : 0;
}

std::vector<Index> SampledLayer::retired_unit_ids() const {
  std::vector<Index> ids;
  if (retriever_ != nullptr) retriever_->append_removed_ids(ids);
  return ids;
}

void SampledLayer::forward_inference(std::span<const Index> prev_ids,
                                     std::span<const float> prev_act,
                                     bool exact, Rng& rng,
                                     VisitedSet& visited,
                                     std::vector<Index>& ids_out,
                                     std::vector<float>& act_out) const {
  ids_out.clear();
  const bool tombstoned =
      retriever_ != nullptr && retriever_->has_removed();
  if (exact || !config_.hashed) {
    if (tombstoned) {
      // Exact mode honors the tombstones too: a retired label must not
      // resurface through the oracle scan (or the softmax normalizer).
      ids_out.reserve(static_cast<std::size_t>(units_));
      for (Index u = 0; u < units_; ++u) {
        if (!retriever_->is_removed(u)) ids_out.push_back(u);
      }
    } else {
      ids_out.resize(units_);
      std::iota(ids_out.begin(), ids_out.end(), Index{0});
    }
  } else {
    Index target = std::min<Index>(config_.sampling.target, units_);
    // The inference candidate budget caps the sampling target (0 = off).
    if (config_.sampling.inference_budget > 0)
      target = std::min(target, config_.sampling.inference_budget);
    retriever_->retrieve(prev_ids, prev_act, target, rng, visited, ids_out);
    // The same uniform top-up as training's select_active.
    long attempts = 20L * static_cast<long>(target);
    while (ids_out.size() < target && attempts-- > 0) {
      const Index id = rng.uniform(units_);
      if (tombstoned && retriever_->is_removed(id)) continue;
      if (visited.insert(id)) ids_out.push_back(id);
    }
  }
  act_out.resize(ids_out.size());
  score_rows(ids_out, prev_ids, prev_act, act_out.data());
  if (config_.activation == Activation::kReLU)
    simd::relu(act_out.data(), act_out.size());
}

double SampledLayer::average_active_fraction() const {
  const std::uint64_t events = active_events_.load();
  if (events == 0 || units_ == 0) return config_.hashed ? 0.0 : 1.0;
  return static_cast<double>(active_sum_.load()) /
         (static_cast<double>(events) * static_cast<double>(units_));
}

void SampledLayer::reset_active_stats() {
  active_sum_.store(0);
  active_events_.store(0);
}

double SampledLayer::sampling_seconds() const {
  double total = 0.0;
  for (const auto& t : sampling_time_) total += t.value.load();
  return total;
}

double SampledLayer::compute_seconds() const {
  double total = 0.0;
  for (const auto& t : compute_time_) total += t.value.load();
  return total;
}

void SampledLayer::reset_phase_timers() {
  for (auto& t : sampling_time_) t.value.store(0.0);
  for (auto& t : compute_time_) t.value.store(0.0);
}

// ===========================================================================
// DenseLayer / RandomSampledLayer / make_layer
// ===========================================================================

DenseLayer::DenseLayer(Index units, Index fan_in, Activation activation,
                       float init_stddev, const AdamConfig& adam,
                       std::uint64_t seed, int batch_slots, int max_threads,
                       Precision precision, ParamInit init)
    : SampledLayer(dense_layer_config(units, fan_in, activation, init_stddev,
                                      adam, seed, precision),
                   batch_slots, max_threads, init) {}

RandomSampledLayer::RandomSampledLayer(Index units, Index fan_in,
                                       Index num_sampled,
                                       Activation activation,
                                       float init_stddev,
                                       const AdamConfig& adam,
                                       std::uint64_t seed, int batch_slots,
                                       int max_threads, Precision precision,
                                       ParamInit init)
    : SampledLayer(
          [&] {
            SampledLayer::Config cfg = dense_layer_config(
                units, fan_in, activation, init_stddev, adam, seed,
                precision);
            cfg.random_sampled = true;
            cfg.sampling.target = num_sampled;
            return cfg;
          }(),
          batch_slots, max_threads, init) {
  SLIDE_CHECK(num_sampled > 0,
              "RandomSampledLayer: num_sampled must be positive");
}

std::unique_ptr<Layer> make_layer(const LayerSpec& spec, Index fan_in,
                                  const AdamConfig& adam, std::uint64_t seed,
                                  int batch_slots, int max_threads,
                                  Precision precision, ParamInit init) {
  SLIDE_CHECK(!(spec.hashed && spec.random_sampled),
              "make_layer: hashed and random_sampled are exclusive");
  SLIDE_CHECK(spec.shards == 0 || spec.hashed,
              "make_layer: shards requires an LSH-sampled (hashed) layer");
  if (spec.hashed) {
    SampledLayer::Config cfg;
    cfg.units = spec.units;
    cfg.fan_in = fan_in;
    cfg.activation = spec.activation;
    cfg.hashed = true;
    cfg.family = spec.family;
    cfg.table = spec.table;
    cfg.sampling = spec.sampling;
    cfg.rebuild = spec.rebuild;
    cfg.init_stddev = spec.init_stddev;
    cfg.adam = adam;
    cfg.precision = precision;
    cfg.seed = seed;
    if (spec.shards >= 1) {
      return std::make_unique<ShardedSampledLayer>(
          cfg, spec.shards, batch_slots, max_threads, init);
    }
    return std::make_unique<SampledLayer>(cfg, batch_slots, max_threads,
                                          init);
  }
  if (spec.random_sampled) {
    return std::make_unique<RandomSampledLayer>(
        spec.units, fan_in, spec.sampling.target, spec.activation,
        spec.init_stddev, adam, seed, batch_slots, max_threads, precision,
        init);
  }
  return std::make_unique<DenseLayer>(spec.units, fan_in, spec.activation,
                                      spec.init_stddev, adam, seed,
                                      batch_slots, max_threads, precision,
                                      init);
}

}  // namespace slide
