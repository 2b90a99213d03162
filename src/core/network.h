// The SLIDE network (paper Figure 2, generalized): an input-facing
// EmbeddingLayer followed by a polymorphic stack of Layers (dense,
// LSH-sampled, random-sampled — freely mixed at any depth), the last of
// which is the softmax output layer. Owns all layer state; the Trainer
// drives batches through the per-slot forward/backward API. Construct
// networks with core/builder.h (NetworkBuilder) or a hand-built
// NetworkConfig.
#pragma once

#include <algorithm>
#include <atomic>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/layer.h"
#include "data/dataset.h"

namespace slide {

class Network;

/// Whole-network memory accounting (sums the per-layer LayerMemory plus the
/// embedding). `inference_weight_bytes` is what the serving scoring path
/// actually reads — the int8 mirrors when quantized, the fp32 masters
/// otherwise — and is the number the "int8 quarters serving weight memory"
/// contract is asserted on.
struct MemoryFootprint {
  std::size_t master_weight_bytes = 0;  ///< fp32 weights + biases
  std::size_t mirror_bytes = 0;  ///< int8 inference mirrors
  std::size_t optimizer_bytes = 0;      ///< Adam moments (first and second)
  /// Candidate-retrieval indexes (LSH buckets) across all hashed layers —
  /// a footprint report without this line under-reports the serving
  /// process by that much.
  std::size_t retriever_bytes = 0;
  std::size_t inference_weight_bytes = 0;
  /// Mirror bytes actually backed by transparent hugepages (<= mirror_bytes;
  /// 0 when THP is off or unsupported). The Table 4 observability hook.
  std::size_t mirror_hugepage_bytes = 0;
};

/// Scratch buffers for single-sample inference; create one per thread.
/// The Network-taking constructor sizes everything from the model, so
/// callers need not know max_sampled_units().
struct InferenceContext {
  explicit InferenceContext(Index max_units, std::uint64_t seed = 1)
      : visited(std::max<Index>(max_units, 1)), rng(seed) {}
  /// Sizes the scratch for `network` (see reset(network) for re-targeting).
  explicit InferenceContext(const Network& network, std::uint64_t seed = 1);

  /// Clears all scratch vectors (keeps their capacity and the RNG state).
  void reset();
  /// Re-targets the context at a (possibly different) architecture.
  void reset(Index max_units);
  void reset(const Network& network);

  VisitedSet visited;
  Rng rng;
  std::vector<float> dense;
  std::vector<Index> ids_a, ids_b;
  std::vector<float> act_a, act_b;
  /// Output-layer top-k scratch (candidate buffers, ranking permutation,
  /// and the sharded layer's k-way merge heap) — see
  /// Layer::forward_inference_topk.
  TopKScratch topk;
};

/// Results of Network::predict_batch plus the scratch it reuses across
/// calls (per-thread InferenceContexts, per-item row buffers). Keep one per
/// caller — e.g. one per serving worker — and pass it to every call; the
/// contexts are re-created automatically when the served architecture
/// changes. Not safe for concurrent use by multiple threads.
class BatchOutput {
 public:
  explicit BatchOutput(std::uint64_t seed = 1) : seed_(seed) {}

  /// Number of inputs in the last predict_batch call.
  std::size_t size() const noexcept { return offsets_.size() - 1; }
  /// Top-k labels for input `i`, descending score (fewer than k if the
  /// sampled active set was smaller).
  std::span<const Index> row(std::size_t i) const {
    SLIDE_ASSERT(i + 1 < offsets_.size());
    return {labels_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  /// All labels, concatenated row after row.
  std::span<const Index> labels() const noexcept {
    return {labels_.data(), labels_.size()};
  }
  void clear() {
    labels_.clear();
    offsets_.assign(1, 0);
  }

 private:
  friend class Network;

  std::vector<Index> labels_;
  std::vector<std::size_t> offsets_{0};  // size() + 1 entries
  // Reused scratch (not part of the result).
  std::vector<std::vector<Index>> rows_;
  std::vector<const SparseVector*> ptrs_;
  std::vector<std::unique_ptr<InferenceContext>> contexts_;
  Index context_units_ = 0;
  std::uint64_t seed_ = 1;
};

/// Thread-safety contract
/// -----------------------
/// Readers: predict_top1 / predict_topk are const and safe for any number
/// of concurrent callers, each with its own InferenceContext — they touch
/// only immutable layer state (weights, hash tables) plus per-context and
/// thread_local scratch. This is what the serving engine (serve/) relies
/// on: many workers share one const Network with zero locks.
///
/// Writers: train_sample, apply_updates, maybe_rebuild, rebuild_all and
/// checkpoint loads mutate shared state and must never overlap a reader.
/// train_sample is the one writer that may run concurrently with itself,
/// on distinct slots: it writes only its own slot's state and reads the
/// weights, so such callers share nothing but reads.
/// The supported patterns are (a) a frozen network serving concurrent
/// readers, or (b) RCU-style snapshots (serve/snapshot.h) where writers
/// build a fresh network off to the side and swap it in whole. LSH table
/// rebuilds are writes like any other: they run in place, on the writer's
/// thread and its pool, with no reader in flight.
///
/// Debug builds enforce the contract with a write-epoch counter plus an
/// active-writer count: every mutating entry point bumps the epoch and
/// holds the writer count for its duration, and predict_* asserts that no
/// writer is active at entry or exit and that the epoch did not move while
/// the read was in flight (see write_epoch()). Release compiles all of it
/// out.
class Network {
 public:
  /// max_threads sizes the per-thread structures (phase timers);
  /// pass the trainer's thread count (or more).
  Network(const NetworkConfig& config, int max_threads)
      : Network(config, max_threads, ParamInit{}) {}

  /// Movable (the write epoch carries over); not copyable. Moving while
  /// any reader or writer is active is undefined, as for any container.
  Network(Network&& other) noexcept
      : config_(std::move(other.config_)),
        embedding_(std::move(other.embedding_)),
        layers_(std::move(other.layers_)),
        write_epoch_(other.write_epoch_.load(std::memory_order_acquire)),
        writers_active_(
            other.writers_active_.load(std::memory_order_acquire)) {}

  const NetworkConfig& config() const noexcept { return config_; }
  Index input_dim() const noexcept { return config_.input_dim; }
  Index output_dim() const noexcept { return layers_.back()->units(); }
  /// Inference-scoring precision (config.precision; see core/config.h).
  Precision precision() const noexcept { return config_.precision; }
  int max_batch_size() const noexcept { return config_.max_batch_size; }
  int num_layers() const noexcept {
    return 1 + static_cast<int>(layers_.size());
  }

  EmbeddingLayer& embedding() noexcept { return *embedding_; }
  const EmbeddingLayer& embedding() const noexcept { return *embedding_; }

  /// Polymorphic stack accessors — the i-th layer after the embedding.
  Layer& stack(int i) noexcept { return *layers_[static_cast<std::size_t>(i)]; }
  const Layer& stack(int i) const noexcept {
    return *layers_[static_cast<std::size_t>(i)];
  }
  int stack_depth() const noexcept { return static_cast<int>(layers_.size()); }

  /// Concrete accessors, kept for existing callers (instrumentation, tests,
  /// benches). Valid only for stacks of SampledLayer-derived layers (dense,
  /// sampled, random-sampled); a ShardedSampledLayer — or any other Layer
  /// outside that hierarchy — must be reached through stack(), and the
  /// debug assert below fires if it is not.
  SampledLayer& layer(int i) noexcept {
    SLIDE_ASSERT(dynamic_cast<SampledLayer*>(
                     layers_[static_cast<std::size_t>(i)].get()) != nullptr);
    return static_cast<SampledLayer&>(*layers_[static_cast<std::size_t>(i)]);
  }
  const SampledLayer& layer(int i) const noexcept {
    SLIDE_ASSERT(dynamic_cast<const SampledLayer*>(
                     layers_[static_cast<std::size_t>(i)].get()) != nullptr);
    return static_cast<const SampledLayer&>(
        *layers_[static_cast<std::size_t>(i)]);
  }
  SampledLayer& output_layer() noexcept {
    return layer(stack_depth() - 1);
  }
  const SampledLayer& output_layer() const noexcept {
    return layer(stack_depth() - 1);
  }
  int num_sampled_layers() const noexcept {
    return static_cast<int>(layers_.size());
  }

  /// One training sample through forward + backward on a batch slot, which
  /// stays pending (core/layer.h): every layer keeps the slot's record, and
  /// no gradient is summed yet. Call apply_updates once per batch
  /// afterwards. Training a slot that is still pending throws slide::Error
  /// before anything is touched. Returns the sample loss.
  float train_sample(int slot, const Sample& sample, float inv_batch,
                     Rng& rng, VisitedSet& visited, int tid);

  /// Sums every layer's gradient from the pending slots, row by row in
  /// slot order, and applies lazy Adam (parallelized over rows, one writer
  /// per row); clears the pending slots. The weights depend only on the
  /// records, not on the pool size.
  void apply_updates(float lr, ThreadPool* pool);

  /// Triggers the per-layer rebuild schedules (paper §4.2): a due layer
  /// rebuilds its tables in place, over the pool, before this returns.
  void maybe_rebuild(long iteration, ThreadPool* pool);
  /// Rebuilds every hashed layer's tables now, off the schedule.
  void rebuild_all(ThreadPool* pool);

  /// Top-1 prediction. `exact` scores every output neuron (dense forward);
  /// otherwise the output layer is sampled through the hash tables exactly
  /// as in training (without label forcing). Safe for concurrent callers
  /// (one InferenceContext each) while no writer is active — see the
  /// thread-safety contract above.
  Index predict_top1(const SparseVector& x, InferenceContext& ctx,
                     bool exact = false) const;

  /// Top-k predictions ordered by descending score (k results, fewer if the
  /// sampled active set is smaller). Same thread-safety as predict_top1.
  std::vector<Index> predict_topk(const SparseVector& x, InferenceContext& ctx,
                                  int k, bool exact = false) const;

  /// Allocation-free predict_topk: fills `out` from the context's scratch
  /// (clearing previous contents). The batch path below loops over this.
  void predict_topk(const SparseVector& x, InferenceContext& ctx, int k,
                    bool exact, std::vector<Index>& out) const;

  /// Whole-batch inference: top_k labels per input into `out`, parallelized
  /// over inputs when a pool is given (per-thread contexts live inside
  /// `out` and are reused across calls). This is the path the serving
  /// engine's micro-batcher dispatches through. Same thread-safety contract
  /// as predict_top1: safe for concurrent callers (one BatchOutput each)
  /// while no writer is active.
  void predict_batch(std::span<const SparseVector> inputs, BatchOutput& out,
                     ThreadPool* pool = nullptr, int top_k = 1,
                     bool exact = false) const;
  /// Pointer flavor for callers whose inputs are not contiguous (the serve
  /// engine's request groups).
  void predict_batch(std::span<const SparseVector* const> inputs,
                     BatchOutput& out, ThreadPool* pool = nullptr,
                     int top_k = 1, bool exact = false) const;

  // ---- Dynamic label lifecycle (online growth / retirement) ----
  /// Appends `n` fresh output units to the output layer (weights, bias,
  /// optimizer state, mirrors, retrieval index — see Layer::add_units) and
  /// updates the stored config so clones and checkpoints see the grown
  /// width. Writer-role call; returns the global id of the first new unit.
  Index add_output_units(Index n);
  /// Tombstones output-layer ids out of retrieval/top-k/softmax without
  /// compacting rows (see Layer::retire_units). Writer-role call.
  void retire_output_units(std::span<const Index> ids);

  /// Re-quantizes every layer's int8 inference mirror from the current fp32
  /// master weights (no-op at fp32 precision). Writer-role call: run it at
  /// the quantize-on-publish points — after training, before handing the
  /// network to readers. Checkpoint loads do it automatically.
  void refresh_inference_mirrors();

  /// Memory accounting across all layers (see MemoryFootprint).
  MemoryFootprint memory_footprint() const noexcept;

  std::size_t num_parameters() const noexcept;

  /// Largest unit count across sampled layers (sizes VisitedSet scratch).
  Index max_sampled_units() const noexcept;

  /// Number of mutations observed so far (debug builds only; always 0 with
  /// NDEBUG so the hot training path carries no shared-counter traffic).
  /// A stable epoch across a code region with no active writer at either
  /// end proves no writer overlapped it.
  std::uint64_t write_epoch() const noexcept {
    return write_epoch_.load(std::memory_order_acquire);
  }

  /// Brackets an external mutation (e.g. core/serialize writing into the
  /// weight spans): epoch bumps at begin, and the active-writer count
  /// covers the whole bracket so overlapping reads assert even when they
  /// start mid-write. Nestable; no-ops with NDEBUG.
  void begin_write() noexcept {
#ifndef NDEBUG
    writers_active_.fetch_add(1, std::memory_order_acq_rel);
    write_epoch_.fetch_add(1, std::memory_order_release);
#endif
  }
  void end_write() noexcept {
#ifndef NDEBUG
    writers_active_.fetch_sub(1, std::memory_order_acq_rel);
#endif
  }

  /// Active writer count (debug builds only; always 0 with NDEBUG).
  int writers_active() const noexcept {
    return writers_active_.load(std::memory_order_acquire);
  }

  /// RAII form of begin_write()/end_write(): exception-safe, so a throwing
  /// writer cannot leak the active-writer count and poison later reads.
  class WriteGuard {
   public:
    explicit WriteGuard(Network& network) : network_(network) {
      network_.begin_write();
    }
    ~WriteGuard() { network_.end_write(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    Network& network_;
  };

 private:
  // The fill functions of core/serialize: the only callers of unfilled().
  friend std::unique_ptr<Network> load_network(const NetworkConfig& config,
                                               std::istream& in,
                                               int max_threads,
                                               ThreadPool* pool);
  friend std::unique_ptr<Network> copy_network(const NetworkConfig& config,
                                               const Network& source,
                                               int max_threads,
                                               ThreadPool* pool);

  Network(const NetworkConfig& config, int max_threads, ParamInit init);
  /// A network whose parameters are zero and whose tables are unbuilt
  /// (ParamInit's deferred form), for a fill function to complete.
  static std::unique_ptr<Network> unfilled(const NetworkConfig& config,
                                           int max_threads) {
    return std::unique_ptr<Network>(
        new Network(config, max_threads, ParamInit(true)));
  }

  NetworkConfig config_;
  std::unique_ptr<EmbeddingLayer> embedding_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::atomic<std::uint64_t> write_epoch_{0};
  std::atomic<int> writers_active_{0};
};

inline InferenceContext::InferenceContext(const Network& network,
                                          std::uint64_t seed)
    : InferenceContext(network.max_sampled_units(), seed) {}

inline void InferenceContext::reset() {
  dense.clear();
  ids_a.clear();
  ids_b.clear();
  act_a.clear();
  act_b.clear();
  topk.clear();
}

inline void InferenceContext::reset(Index max_units) {
  if (visited.capacity() != std::max<Index>(max_units, 1))
    visited = VisitedSet(std::max<Index>(max_units, 1));
  reset();
}

inline void InferenceContext::reset(const Network& network) {
  reset(network.max_sampled_units());
}

}  // namespace slide
