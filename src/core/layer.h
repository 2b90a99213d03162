// The layer stack of the engine.
//
// The paper's core observation is that adaptive sparsity is a *per-layer
// policy*, not a fixed topology: any layer past the input-facing one can
// run dense, LSH-sampled, or statically sampled. The stack is therefore
// polymorphic:
//
//   Layer (abstract)        — forward/backward/apply_updates/rebuild/
//                             serialize hooks; what Network, Trainer and
//                             core/serialize program against.
//   ├── SampledLayer        — the workhorse: neuron-major weights
//   │   │                     ([units x fan_in]), per-slot active sets and
//   │   │                     backward records, and (when hashed) LSH
//   │   │                     tables over its neurons — the s² cost model
//   │   │                     of paper §3.1.
//   │   ├── DenseLayer      — every unit active on every input (the honest
//   │   │                     dense baseline and ReLU mid-stack layers).
//   │   └── RandomSampledLayer — labels + static uniform classes (the
//   │                         Sampled Softmax baseline of paper §5.1).
//   EmbeddingLayer          — the input adapter, NOT part of the stack: it
//                             consumes the SparseVector input with weights
//                             stored *input-major* ([input_dim x units]) so
//                             forward and the column updates touch one
//                             contiguous units-length row per input nonzero.
//
// All layers keep per-batch-slot activation/error arrays (the paper's
// per-neuron batch arrays, stored struct-of-arrays) so every training
// instance in a batch runs forward and backward on its own thread without
// synchronization. Backward writes no gradient: it propagates the error to
// the layer below and leaves the slot *pending*. A slot's record — its
// active ids, its deltas, and the active set below it (the embedding keeps
// the slot's input features instead) — lives from its backward to the next
// apply_updates, which inverts the pending records by row and sums each
// row's gradient in slot order, one writer per row, before its Adam step.
// So the weights depend only on the seeds, at every pool size. Between a
// slot's backward and the next apply_updates, a forward on it rewrites the
// record that apply_updates sums, and a second backward throws
// slide::Error.
//
// A hashed layer rebuilds its LSH tables in place, between batches, on the
// schedule of paper §4.2; like every other mutation, the rebuild holds the
// writer role (core/network.h), so no reader is in flight meanwhile.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/activation.h"
#include "core/config.h"
#include "data/sparse_vector.h"
#include "lsh/table_group.h"
#include "optim/adam.h"
#include "retrieval/lsh_retriever.h"
#include "simd/int8.h"
#include "sys/aligned.h"
#include "sys/hugepages.h"
#include "sys/rng.h"
#include "sys/thread_pool.h"

namespace slide {

/// Per-(layer, batch-slot) state: the ids of active neurons with their
/// activations and error accumulators, positionally aligned. An empty `ids`
/// means "dense": all `dense_width` units are active and act/err are
/// indexed by unit id.
struct ActiveSet {
  std::vector<Index> ids;
  AlignedVector<float> act;
  AlignedVector<float> err;
  Index dense_width = 0;

  bool dense() const noexcept { return ids.empty(); }
  std::size_t size() const noexcept {
    return dense() ? dense_width : ids.size();
  }
};

// ---------------------------------------------------------------------------

/// Concrete type of a stack layer (diagnostics, checkpoint tooling).
enum class LayerKind {
  kDense,
  kSampled,
  kRandomSampled,
  kSharded,
};

const char* to_string(LayerKind kind);

/// Reusable scratch for the top-k inference hook (owned by
/// InferenceContext). Every vector keeps its capacity across calls, so
/// steady-state top-k queries allocate nothing — this is where the sharded
/// layer's k-way heap merge lives (see Layer::forward_inference_topk).
struct TopKScratch {
  std::vector<Index> ids;    // candidate ids (per-shard run for sharded)
  std::vector<float> act;    // candidate activations
  std::vector<std::size_t> order;  // ranking permutation (default path)
  /// Bounded selection heap: (score, position<<32 | global id). Position
  /// packs above the id so ties resolve toward the earlier candidate with
  /// a single integer compare.
  std::vector<std::pair<float, std::uint64_t>> heap;

  void clear() {
    ids.clear();
    act.clear();
    order.clear();
    heap.clear();
  }
};

/// Per-layer memory accounting (drives Network::memory_footprint and the
/// serve-side footprint report).
struct LayerMemory {
  std::size_t master_bytes = 0;     ///< fp32 weights + biases
  std::size_t mirror_bytes = 0;     ///< quantized inference mirror (0 at fp32)
  std::size_t optimizer_bytes = 0;  ///< Adam moments (first and second)
  /// Candidate-retrieval index (the LSH buckets; 0 for layers without
  /// tables). Reported separately because the weight arrays above do not
  /// account for it.
  std::size_t retriever_bytes = 0;
  /// Mirror bytes whose backing pages the kernel accepted THP advice for
  /// (<= mirror_bytes; 0 when THP is unavailable or disabled). Observability
  /// for the hugepage-backed mirror adoption — Table 4 of the paper.
  std::size_t mirror_hugepage_bytes = 0;
};

/// Abstract interface of one stack layer (everything after the input-facing
/// EmbeddingLayer). Network, Trainer, and core/serialize drive the stack
/// exclusively through this interface, so dense, LSH-sampled, and
/// random-sampled layers mix freely at any depth.
class Layer {
 public:
  virtual ~Layer() = default;

  // ---- Identity ----
  virtual LayerKind kind() const noexcept = 0;
  virtual Index units() const noexcept = 0;
  virtual Index fan_in() const noexcept = 0;
  virtual Activation activation() const noexcept = 0;

  // ---- Training hooks ----
  /// Selects the slot's active set (policy-specific) and computes
  /// activations from the previous layer's active set. `forced` ids (true
  /// labels on the output layer) come first in the active set.
  virtual void forward(int slot, const ActiveSet& prev,
                       std::span<const Index> forced, Rng& rng,
                       VisitedSet& visited, int tid) = 0;
  /// Softmax + cross-entropy deltas over the slot's active neurons.
  virtual float compute_softmax_ce_deltas(int slot,
                                          std::span<const Index> labels,
                                          float inv_batch) = 0;
  /// Hidden-layer path: err *= ReLU'(act), in place.
  virtual void compute_relu_deltas(int slot) = 0;
  /// Propagates err to prev.err and leaves the slot pending, remembering
  /// `prev` (see the header comment). Throws slide::Error when the slot is
  /// already pending.
  virtual void backward(int slot, ActiveSet& prev, int tid) = 0;
  /// Sums the pending slots' gradients row by row, in slot order, and
  /// applies lazy Adam to each row with a nonzero delta; clears the pending
  /// slots. Single caller at a time.
  virtual void apply_updates(float lr, ThreadPool* pool) = 0;

  // ---- LSH lifecycle (no-ops for layers without tables) ----
  virtual bool maybe_rebuild(long iteration, ThreadPool* pool) = 0;
  virtual void rebuild_tables(ThreadPool* pool) = 0;

  // ---- Inference hooks ----
  /// Single-sample inference forward into caller buffers. `exact` scores
  /// all units regardless of the layer's sampling policy.
  virtual void forward_inference(std::span<const Index> prev_ids,
                                 std::span<const float> prev_act, bool exact,
                                 Rng& rng, VisitedSet& visited,
                                 std::vector<Index>& ids_out,
                                 std::vector<float>& act_out) const = 0;

  /// Top-k inference: selects candidates exactly as forward_inference and
  /// writes the ids of the k highest-scoring ones into `out`, descending
  /// score, ties toward the earlier candidate position (the lower unit id
  /// in exact mode). Network::predict_topk calls this on the output layer.
  /// The default implementation scores through forward_inference and
  /// partial-sorts in the scratch; the sharded layer overrides it with a
  /// k-way heap merge over its per-shard candidate runs.
  virtual void forward_inference_topk(std::span<const Index> prev_ids,
                                      std::span<const float> prev_act, int k,
                                      bool exact, Rng& rng,
                                      VisitedSet& visited,
                                      TopKScratch& scratch,
                                      std::vector<Index>& out) const;

  // ---- Per-slot state ----
  virtual ActiveSet& slot(int s) = 0;
  virtual const ActiveSet& slot(int s) const = 0;

  // ---- Serialize hooks (checkpoint format: weights block + bias block) ----
  virtual std::span<float> weights_span() noexcept = 0;
  virtual std::span<const float> weights_span() const noexcept = 0;
  virtual std::span<float> bias_span() noexcept = 0;
  virtual std::span<const float> bias_span() const noexcept = 0;
  /// Called after an external writer (checkpoint load) rewrote the spans;
  /// derived state (quantized mirrors) must be refreshed.
  virtual void on_weights_loaded() noexcept = 0;
  virtual std::size_t num_parameters() const noexcept = 0;

  // ---- Sharded serialize hooks (checkpoint format v3) ----
  // The logical parameter matrix of a layer is always the [units x fan_in]
  // neuron-major matrix plus a [units] bias vector; a sharded layer stores
  // it as contiguous row-range blocks. Monolithic layers are the
  // single-shard case: the defaults below make core/serialize's
  // per-shard-block reader/writer work for every layer, and let a
  // checkpoint written at one shard count load into a network using
  // another (resharding).
  /// Number of contiguous weight shards (1 for monolithic layers).
  virtual int num_shards() const noexcept { return 1; }
  /// First global neuron row owned by `shard`.
  virtual Index shard_row_offset(int /*shard*/) const noexcept { return 0; }
  /// Weight/bias blocks of one shard (shard 0 == the whole layer for
  /// monolithic layers).
  virtual std::span<float> shard_weights(int /*shard*/) noexcept {
    return weights_span();
  }
  virtual std::span<const float> shard_weights(int /*shard*/) const noexcept {
    return weights_span();
  }
  virtual std::span<float> shard_bias(int /*shard*/) noexcept {
    return bias_span();
  }
  virtual std::span<const float> shard_bias(int /*shard*/) const noexcept {
    return bias_span();
  }

  // ---- Quantized inference (int8 weight mirrors) ----
  /// The precision the layer's *inference* scoring path reads weights at.
  /// Training always runs on the fp32 masters regardless.
  virtual Precision inference_precision() const noexcept {
    return Precision::kFP32;
  }
  /// Re-quantizes the inference mirror from the current master weights.
  /// No-op for fp32 layers. Mutates only the mirror — callers must hold
  /// the writer role (no concurrent readers), like any weight mutation.
  virtual void refresh_inference_mirror() noexcept {}
  /// Bytes of weight + bias data the inference scoring path reads (the
  /// mirror at int8, the masters at fp32).
  virtual std::size_t inference_weight_bytes() const noexcept {
    return num_parameters() * sizeof(float);
  }
  /// Memory accounting for this layer (masters, mirror, optimizer state).
  virtual LayerMemory memory() const noexcept = 0;

  /// Average active fraction since the last reset (1.0 for dense layers).
  virtual double average_active_fraction() const = 0;

  /// Cumulative seconds spent in LSH sampling / activation math since the
  /// last timer reset (the Figure 6 / Table 2 instrumentation). Layers
  /// without phase timers report 0.
  virtual double sampling_seconds() const { return 0.0; }
  virtual double compute_seconds() const { return 0.0; }
  /// Scheduled full table rebuilds (excluding the initial build). Layers
  /// without LSH tables report 0.
  virtual long rebuild_count() const { return 0; }
  /// Bucket counts of the layer's LSH tables (summed over shards);
  /// zeroes for layers without tables.
  virtual TableHealth table_health() const { return {}; }

  // ---- Dynamic label lifecycle (online growth / retirement) ----
  // The label universe of an extreme-classification service churns while
  // the model serves: new items appear (grow) and dead items must stop
  // being predicted (retire). Only retriever-backed (hashed) layers
  // support the lifecycle; the defaults refuse so dense baselines cannot
  // silently mis-grow.
  /// Appends `n` fresh output units (weights, bias, optimizer state,
  /// quantized mirrors, retrieval index). Returns the global id of the
  /// first appended unit. Caller holds the writer role — no concurrent
  /// forwards or table readers (Network::begin_write).
  virtual Index add_units(Index n) {
    (void)n;
    SLIDE_CHECK(false, "add_units: this layer kind does not support growth");
    return 0;
  }
  /// Tombstones `ids` out of retrieval, top-k, and softmax normalization
  /// WITHOUT compacting rows: surviving unit ids are stable, and
  /// Retriever::insert can resurrect a retired id. Writer role required.
  virtual void retire_units(std::span<const Index> ids) {
    (void)ids;
    SLIDE_CHECK(false,
                "retire_units: this layer kind does not support retirement");
  }
  /// Currently tombstoned unit count / ids (checkpoint v5, diagnostics).
  virtual Index retired_count() const noexcept { return 0; }
  virtual std::vector<Index> retired_unit_ids() const { return {}; }
  /// Units appended by add_units since construction (checkpoint v5 records
  /// this so a loader can re-grow a config-sized layer to the file's size).
  virtual Index appended_units() const noexcept { return 0; }
};

// ---------------------------------------------------------------------------

/// How a layer's parameters start. The default draws them from the layer's
/// seed and builds the layer's LSH tables over them. The deferred form
/// leaves them zero and the tables unbuilt: only Network can make it, for
/// the fill functions of core/serialize, which write every parameter and
/// build every table before the network leaves them.
class ParamInit {
 public:
  ParamInit() = default;
  bool deferred() const noexcept { return deferred_; }

 private:
  friend class Network;
  explicit ParamInit(bool deferred) noexcept : deferred_(deferred) {}
  bool deferred_ = false;
};

/// The pending backward records of a batch, inverted by row: refs(r) lists
/// every pending slot whose record holds row r, with the factor the slot's
/// vector enters r's gradient with, in slot order and, within a slot, in
/// record order. apply_updates builds one per step with a counting sort,
/// then sums each row's gradient over its refs.
class RowIndex {
 public:
  struct Ref {
    std::uint32_t slot;  ///< batch slot
    float scale;         ///< the slot's delta (or feature value) for the row
  };

  /// Inverts rows_of(s) and scales_of(s), a pending slot's row ids and
  /// their factors, for every slot of `slots` (ascending). Keeps its
  /// capacity across calls.
  template <typename RowsOf, typename ScalesOf>
  void build(Index rows, std::span<const std::uint32_t> slots, RowsOf rows_of,
             ScalesOf scales_of) {
    // Counts land two ahead so that, after the prefix sum and the scatter
    // (which advances offsets_[r + 1] from the start of row r to its end),
    // row r spans [offsets_[r], offsets_[r + 1]).
    offsets_.assign(static_cast<std::size_t>(rows) + 2, 0);
    for (std::uint32_t s : slots)
      for (Index r : rows_of(s)) ++offsets_[static_cast<std::size_t>(r) + 2];
    for (std::size_t i = 2; i < offsets_.size(); ++i)
      offsets_[i] += offsets_[i - 1];
    refs_.resize(offsets_.back());
    for (std::uint32_t s : slots) {
      const std::span<const Index> ids = rows_of(s);
      const std::span<const float> scales = scales_of(s);
      for (std::size_t i = 0; i < ids.size(); ++i)
        refs_[offsets_[static_cast<std::size_t>(ids[i]) + 1]++] = {s,
                                                                  scales[i]};
    }
  }

  std::span<const Ref> refs(Index row) const noexcept {
    return {refs_.data() + offsets_[row], refs_.data() + offsets_[row + 1]};
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<Ref> refs_;
};

class EmbeddingLayer {
 public:
  EmbeddingLayer(Index input_dim, Index units, float init_stddev,
                 int batch_slots, const AdamConfig& adam, std::uint64_t seed,
                 Precision precision = Precision::kFP32,
                 ParamInit init = {});

  Index input_dim() const noexcept { return input_dim_; }
  Index units() const noexcept { return units_; }
  Precision inference_precision() const noexcept { return precision_; }

  /// Computes ReLU(W^T x + b) for the slot; zeroes the slot's error buffer.
  /// Always reads the fp32 master weights (training path).
  void forward(int slot, const SparseVector& x);

  /// Dense single-sample forward into a caller buffer (inference path).
  /// Scores through the int8 mirror when the layer is quantized.
  void forward_inference(const SparseVector& x, float* out) const;

  /// Consumes the error accumulated in the slot by upper layers: applies
  /// ReLU' and records the slot's features; the slot is pending until the
  /// next apply_updates. Throws slide::Error when it already is.
  void backward(int slot, const SparseVector& x);
  bool pending(int slot) const noexcept {
    return pending_[static_cast<std::size_t>(slot)] != 0;
  }

  /// Sums each input column's gradient over the pending slots that feed it,
  /// in slot order, and applies lazy Adam to those columns and densely to
  /// the bias row; clears the pending slots. Single caller at a time.
  void apply_updates(float lr, ThreadPool* pool);

  ActiveSet& slot(int s) { return slots_[static_cast<std::size_t>(s)]; }
  const ActiveSet& slot(int s) const {
    return slots_[static_cast<std::size_t>(s)];
  }

  float* weight_column(Index input_index) noexcept {
    return weights_.data() + static_cast<std::size_t>(input_index) * units_;
  }
  const float* weight_column(Index input_index) const noexcept {
    return weights_.data() + static_cast<std::size_t>(input_index) * units_;
  }
  /// The pending gradient of one column (units long) and of one bias
  /// entry, summed as apply_updates will sum it — diagnostics/tests.
  std::vector<float> gradient_column(Index input_index) const;
  float bias(Index unit) const noexcept { return bias_[unit]; }
  float bias_gradient(Index unit) const;

  /// Whole-parameter views (serialization / checkpointing).
  std::span<float> weights_span() noexcept {
    return {weights_.data(), weights_.size()};
  }
  std::span<const float> weights_span() const noexcept {
    return {weights_.data(), weights_.size()};
  }
  std::span<float> bias_span() noexcept { return {bias_.data(), bias_.size()}; }
  std::span<const float> bias_span() const noexcept {
    return {bias_.data(), bias_.size()};
  }

  std::size_t num_parameters() const noexcept {
    return static_cast<std::size_t>(input_dim_) * units_ + units_;
  }

  /// Re-quantizes the int8 mirror from the masters (no-op at fp32); see
  /// Layer::refresh_inference_mirror for the writer-role contract.
  void refresh_inference_mirror() noexcept;
  std::size_t inference_weight_bytes() const noexcept;
  LayerMemory memory() const noexcept;

 private:
  /// fp32 forward through the master weights (shared by training and the
  /// unquantized inference path).
  void forward_master(const SparseVector& x, float* out) const;

  bool i8_inference() const noexcept {
    return precision_ == Precision::kInt8 && !weights_i8_.empty();
  }
  /// Sum into g[0, units), in slot order, the gradient of the column the
  /// refs belong to, and of the bias row.
  void sum_column(std::span<const RowIndex::Ref> refs, float* g) const;
  void sum_bias(float* g) const;

  Index input_dim_;
  Index units_;
  Precision precision_;

  HugeArray weights_;  // [input_dim x units], input-major
  AlignedVector<float> bias_;
  // Int8 inference mirror, same input-major layout as weights_; allocated
  // only at Precision::kInt8. Hugepage-backed: the serving path streams
  // these rows, the TLB-bound pattern of paper Table 4. i8_scales_ holds
  // the per-input-row symmetric scale.
  HugeArrayT<simd::I8> weights_i8_;
  AlignedVector<float> i8_scales_;  // [input_dim]
  Adam adam_;  // layout: weights then bias

  std::vector<ActiveSet> slots_;

  // Per-slot backward records: the features of each pending slot (its err
  // holds the ReLU'-gated deltas) and the pending flags. Each slot's entries
  // are written only by the thread running that slot.
  std::vector<SparseVector> inputs_;
  std::vector<std::uint8_t> pending_;
  // apply_updates scratch: the pending slots and their records inverted by
  // column.
  std::vector<std::uint32_t> pending_slots_;
  RowIndex columns_;
};

// ---------------------------------------------------------------------------

class SampledLayer : public Layer {
 public:
  struct Config {
    Index units = 0;
    Index fan_in = 0;
    Activation activation = Activation::kSoftmax;
    bool hashed = true;
    /// Static uniform sampling (Sampled Softmax baseline); see LayerSpec.
    bool random_sampled = false;
    HashFamilyConfig family;
    HashTable::Config table;
    SamplingConfig sampling;
    RebuildSchedule rebuild;
    float init_stddev = 0.0f;  // 0 -> 2/sqrt(fan_in)
    AdamConfig adam;
    /// Inference-scoring precision (network-wide knob; see config.h).
    Precision precision = Precision::kFP32;
    std::uint64_t seed = 31;
  };

  SampledLayer(const Config& config, int batch_slots, int max_threads,
               ParamInit init = {});

  LayerKind kind() const noexcept override {
    if (config_.hashed) return LayerKind::kSampled;
    return config_.random_sampled ? LayerKind::kRandomSampled
                                  : LayerKind::kDense;
  }
  Index units() const noexcept override { return units_; }
  Index fan_in() const noexcept override { return fan_in_; }
  bool hashed() const noexcept { return config_.hashed; }
  Activation activation() const noexcept override {
    return config_.activation;
  }
  const Config& config() const noexcept { return config_; }

  /// Selects the active set for the slot (forced ids first, then LSH
  /// sampling, then random fill) and computes activations from the previous
  /// layer's active set. Softmax layers defer normalization to
  /// compute_softmax_ce_deltas / the caller. Zeroes the slot's error buffer.
  /// `tid` indexes the per-thread phase timers.
  void forward(int slot, const ActiveSet& prev, std::span<const Index> forced,
               Rng& rng, VisitedSet& visited, int tid) override;

  /// Single-sample inference forward into caller buffers. When `exact` is
  /// set, scores *all* units (ids_out is filled with 0..units-1).
  void forward_inference(std::span<const Index> prev_ids,
                         std::span<const float> prev_act, bool exact,
                         Rng& rng, VisitedSet& visited,
                         std::vector<Index>& ids_out,
                         std::vector<float>& act_out) const override;

  /// Softmax + cross-entropy over the slot's active neurons with the given
  /// true labels (which must be the first entries of the active set, i.e.
  /// the `forced` ids of forward()). Fills err with deltas scaled by
  /// inv_batch; returns the sample loss.
  float compute_softmax_ce_deltas(int slot, std::span<const Index> labels,
                                  float inv_batch) override;

  /// Hidden-layer path: err *= ReLU'(act), in place.
  void compute_relu_deltas(int slot) override;

  /// Propagates err to prev.err and leaves the slot pending with `prev` as
  /// its record's input; no gradient is written (see Layer::backward).
  void backward(int slot, ActiveSet& prev, int tid) override;

  /// Sums each row's gradient over the pending slots in slot order, then
  /// applies lazy Adam to the rows with a nonzero delta, one contiguous row
  /// slice per pool thread. Single caller at a time.
  void apply_updates(float lr, ThreadPool* pool) override;

  /// Rebuilds the tables in place, over the pool, when the schedule
  /// (paper §4.2) is due; returns true if it rebuilt. Caller holds the
  /// writer role: no concurrent table readers.
  bool maybe_rebuild(long iteration, ThreadPool* pool) override;
  /// Rebuilds the tables from every neuron's weight row, in place, off the
  /// schedule (construction, checkpoint loads, rebuild_all). Caller holds
  /// the writer role.
  void rebuild_tables(ThreadPool* pool) override;
  /// Scheduled rebuilds so far (excludes the initial build).
  long rebuild_count() const noexcept override { return rebuild_count_; }

  // ---- Dynamic label lifecycle ----
  /// Appends `n` units: copy-grows the weight array (HugeArray
  /// reallocation), zero-extends bias and optimizer moments (Adam::grow),
  /// re-quantizes the mirrors, and re-targets the retriever at the grown
  /// rows (resize_universe, then one splice of the new ids into the active
  /// LSH tables). New rows, and the splice's reservoir draws, come from an
  /// Rng seeded by (layer seed, growth base), so the same growth sequence
  /// reproduces identical rows at any shard count. Writer role required.
  Index add_units(Index n) override;
  /// Tombstones `ids` in the retriever mask (the single source of truth the
  /// forward paths and checkpointing read back). Rows are not compacted.
  void retire_units(std::span<const Index> ids) override;
  Index retired_count() const noexcept override;
  std::vector<Index> retired_unit_ids() const override;
  Index appended_units() const noexcept override { return appended_units_; }

  TableHealth table_health() const override;

  ActiveSet& slot(int s) override {
    return slots_[static_cast<std::size_t>(s)];
  }
  const ActiveSet& slot(int s) const override {
    return slots_[static_cast<std::size_t>(s)];
  }

  float* weight_row(Index unit) noexcept {
    return weights_.data() + static_cast<std::size_t>(unit) * fan_in_;
  }
  const float* weight_row(Index unit) const noexcept {
    return weights_.data() + static_cast<std::size_t>(unit) * fan_in_;
  }
  /// The pending gradient of one row (fan_in long) and of its bias, summed
  /// by the reduction apply_updates runs — diagnostics/tests.
  std::vector<float> gradient_row(Index unit) const;
  float bias(Index unit) const noexcept { return bias_[unit]; }
  float bias_gradient(Index unit) const;

  /// Whole-parameter views (serialization / checkpointing).
  std::span<float> weights_span() noexcept override {
    return {weights_.data(), weights_.size()};
  }
  std::span<const float> weights_span() const noexcept override {
    return {weights_.data(), weights_.size()};
  }
  std::span<float> bias_span() noexcept override {
    return {bias_.data(), bias_.size()};
  }
  std::span<const float> bias_span() const noexcept override {
    return {bias_.data(), bias_.size()};
  }

  void on_weights_loaded() noexcept override { refresh_inference_mirror(); }

  std::size_t num_parameters() const noexcept override {
    return static_cast<std::size_t>(units_) * fan_in_ + units_;
  }

  Precision inference_precision() const noexcept override {
    return config_.precision;
  }
  void refresh_inference_mirror() noexcept override;
  std::size_t inference_weight_bytes() const noexcept override;
  LayerMemory memory() const noexcept override;

  /// The layer's tables; null for unhashed layers.
  const LshTableGroup* tables() const noexcept { return tables_; }

  /// The layer's candidate retriever; null for unhashed layers.
  const retrieval::LshRetriever* retriever() const noexcept {
    return retriever_.get();
  }

  /// Average active fraction over forwards since the last reset (diagnostic;
  /// the paper reports ~0.5% active neurons in the output layer).
  double average_active_fraction() const override;
  void reset_active_stats();

  /// Per-thread time spent in LSH sampling vs activation math since the
  /// last reset (drives the Figure 6 / Table 2 instrumentation).
  double sampling_seconds() const override;
  double compute_seconds() const override;
  void reset_phase_timers();

 private:
  void select_active(int slot, const ActiveSet& prev,
                     std::span<const Index> forced, Rng& rng,
                     VisitedSet& visited, int tid);
  void compute_activations(ActiveSet& set, const ActiveSet& prev) const;
  float activation_of(Index unit, std::span<const Index> prev_ids,
                      std::span<const float> prev_act) const;
  /// Mirror-reading twin of activation_of (int8 inference scoring): against
  /// a dense prev the caller provides the u8-quantized activations (qx, one
  /// quantize_act_u8 per query) and their scale; against a sparse prev qx
  /// is unused (fp32 values x widened s8 weights).
  float activation_of_i8(Index unit, std::span<const Index> prev_ids,
                         std::span<const float> prev_act, const simd::U8* qx,
                         float act_scale) const;
  /// Scores `ids` against the previous active set into out[0..ids.size())
  /// through whichever precision tier is active, prefetching the candidate
  /// rows kPrefetchDistance ahead (the rows are LSH-sampled, i.e. scattered
  /// — exactly the access pattern the software prefetch pays for).
  void score_rows(std::span<const Index> ids, std::span<const Index> prev_ids,
                  std::span<const float> prev_act, float* out) const;
  bool i8_inference() const noexcept {
    return config_.precision == Precision::kInt8 && !weights_i8_.empty();
  }
  /// Row base pointer of whichever storage the inference path reads —
  /// feeds the candidate-row software prefetch in the scoring loop.
  const void* inference_row(Index unit) const noexcept {
    const std::size_t off = static_cast<std::size_t>(unit) * fan_in_;
    if (i8_inference()) return weights_i8_.data() + off;
    return weights_.data() + off;
  }
  /// The refs of `unit` found by scanning the pending slots, dense ones
  /// included (the accessors' stand-in for the RowIndex of apply_updates).
  std::vector<RowIndex::Ref> refs_of(Index unit) const;
  /// Sums row `unit`'s gradient in slot order over `refs` and over the
  /// `dense` slots, where every unit sits at its own position, into
  /// g[0, fan_in) and *bias_grad. Returns false, leaving g as it was, when
  /// every delta was zero: the row takes no step.
  bool sum_row(Index unit, std::span<const RowIndex::Ref> refs,
               std::span<const std::uint32_t> dense, float* g,
               float* bias_grad) const;

  Config config_;
  Index units_;
  Index fan_in_;

  HugeArray weights_;  // [units x fan_in], neuron-major
  AlignedVector<float> bias_;
  // Int8 inference mirror, same neuron-major layout as weights_; allocated
  // only at Precision::kInt8 (hugepage-backed — see EmbeddingLayer).
  // i8_scales_ is the per-neuron-row scale.
  HugeArrayT<simd::I8> weights_i8_;
  AlignedVector<float> i8_scales_;  // [units]
  Adam adam_;  // layout: weights then bias

  std::vector<ActiveSet> slots_;

  /// Candidate generation (src/retrieval/): owns the LSH tables; null for
  /// unhashed layers. `tables_` aliases its LshTableGroup so the
  /// rebuilds and the add_units splice below drive them directly.
  std::unique_ptr<retrieval::LshRetriever> retriever_;
  LshTableGroup* tables_ = nullptr;

  // Per-slot backward records: the active set below each pending slot
  // (null when the slot is not pending); the slot's own ids and err hold
  // the rest. Each entry is written only by the thread running its slot.
  std::vector<const ActiveSet*> pending_prev_;
  // apply_updates scratch: the pending slots, the dense ones among them,
  // which need no list, and the others' records inverted by row.
  std::vector<std::uint32_t> pending_slots_;
  std::vector<std::uint32_t> dense_slots_;
  RowIndex rows_;

  // Rebuild schedule state, written only by the maybe_rebuild caller.
  long next_rebuild_ = 0;
  long rebuild_count_ = 0;  // scheduled rebuilds (drives the decay)

  // Diagnostics.
  std::atomic<std::uint64_t> active_sum_{0};
  std::atomic<std::uint64_t> active_events_{0};
  struct alignas(kCacheLineSize) PaddedDouble {
    std::atomic<double> value{0.0};
  };
  std::vector<PaddedDouble> sampling_time_;
  std::vector<PaddedDouble> compute_time_;

  std::uint64_t seed_;
  /// Units appended by add_units since construction (checkpoint v5).
  Index appended_units_ = 0;
};

// ---------------------------------------------------------------------------

/// A fully dense stack layer: every unit computes on every input. This is
/// the honest baseline path (full softmax when it is the output layer) and
/// the shape of ReLU mid-stack layers in deep configurations.
class DenseLayer final : public SampledLayer {
 public:
  DenseLayer(Index units, Index fan_in, Activation activation,
             float init_stddev, const AdamConfig& adam, std::uint64_t seed,
             int batch_slots, int max_threads,
             Precision precision = Precision::kFP32, ParamInit init = {});
};

/// Static uniform sampling (the Sampled Softmax baseline of paper §5.1):
/// actives = forced labels + uniformly random classes up to `num_sampled`.
/// Unlike the LSH path the choice is input-independent — that is the point
/// of the paper's Figure 7 comparison.
class RandomSampledLayer final : public SampledLayer {
 public:
  RandomSampledLayer(Index units, Index fan_in, Index num_sampled,
                     Activation activation, float init_stddev,
                     const AdamConfig& adam, std::uint64_t seed,
                     int batch_slots, int max_threads,
                     Precision precision = Precision::kFP32,
                     ParamInit init = {});
};

/// Builds the concrete Layer for a LayerSpec (DenseLayer, SampledLayer, or
/// RandomSampledLayer) — the single construction point used by Network.
/// `precision` is the network-wide inference precision (config.h).
std::unique_ptr<Layer> make_layer(const LayerSpec& spec, Index fan_in,
                                  const AdamConfig& adam, std::uint64_t seed,
                                  int batch_slots, int max_threads,
                                  Precision precision = Precision::kFP32,
                                  ParamInit init = {});

}  // namespace slide
