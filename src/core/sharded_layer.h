// Model-parallel sharding of a wide LSH-sampled layer within one process.
//
// SLIDE's win grows with the width of the output layer, but a monolithic
// SampledLayer owns one neuron array and one LSH table group, so its class
// count is capped by what one table group can hold comfortably.
// Distributed SLIDE (Yan et al., 2022) shards the output layer via model
// parallelism with per-shard LSH sampling; ShardedSampledLayer is that
// design on one host:
//
//   global neuron range [0, units)
//     = shard 0 rows [off_0, off_1)  — own weight block, LshTableGroup,
//     + shard 1 rows [off_1, off_2)    int8 mirror, Adam state
//     + ...
//
// Each shard is a SampledLayer over its contiguous row range. Rebuilds fan
// the shards out across the ThreadPool, one shard per pool thread.
//
// Forward queries every shard's tables and merges the per-shard candidate
// sets into one global active set (ids globalized by the shard row
// offset); softmax normalization runs over the merged set, exactly like
// the monolithic layer's active-set softmax. Backward scatters the merged
// deltas back to the owning shards, and each shard keeps its own backward
// record for its own apply_updates — a shard that produced no active
// neurons receives no gradient traffic. Top-k inference merges the
// per-shard candidate runs through a bounded heap in InferenceContext
// scratch (no allocation; see Layer::forward_inference_topk).
//
// Parity anchor: with shards = 1 the layer is bit-identical to the
// monolithic SampledLayer — same weight init stream, same sampling target,
// same RNG consumption order, same Adam trajectory
// (tests/test_sharded_layer.cpp).
#pragma once

#include <memory>
#include <vector>

#include "core/layer.h"

namespace slide {

/// Deterministic near-equal contiguous partition of `units` into `shards`
/// row ranges: returns shards + 1 offsets (offsets[0] == 0, back() ==
/// units); the first units % shards shards own one extra row. Checkpoint
/// loaders recompute any writer's partition from (units, shards) alone.
std::vector<Index> shard_partition(Index units, int shards);

/// Derives the config of one shard from the GLOBAL layer config: shard_size
/// units, proportional sampling target and inference budget (rounded up),
/// per-bucket-occupancy-preserving range_pow shrink, and the golden-ratio
/// seed stride (shard 0 keeps config.seed — the S = 1 bit-identity anchor).
/// Every shard is constructed from this config.
SampledLayer::Config derive_shard_config(const SampledLayer::Config& global,
                                         Index shard_size, int shard_index);

class ShardedSampledLayer final : public Layer {
 public:
  /// `config` describes the GLOBAL layer (total units,
  /// global sampling target, one seed); the constructor derives the
  /// per-shard configs: near-equal contiguous row ranges (the first
  /// units % shards shards get one extra row), per-shard sampling target
  /// ceil(target * shard_units / units), and per-shard seeds (shard 0
  /// keeps config.seed, so shards = 1 reproduces the monolithic layer bit
  /// for bit). Requires config.hashed. `init` reaches every shard.
  ShardedSampledLayer(const SampledLayer::Config& config, int shards,
                      int batch_slots, int max_threads, ParamInit init = {});

  // ---- Identity ----
  LayerKind kind() const noexcept override { return LayerKind::kSharded; }
  Index units() const noexcept override { return units_; }
  Index fan_in() const noexcept override { return fan_in_; }
  const SampledLayer::Config& config() const noexcept { return config_; }

  /// Shard topology accessors (tests, benches, serialization).
  int shards() const noexcept { return static_cast<int>(shards_.size()); }
  const SampledLayer& shard(int s) const noexcept {
    return *shards_[static_cast<std::size_t>(s)];
  }
  /// Global row range of shard s: [shard_offset(s), shard_offset(s + 1)).
  Index shard_offset(int s) const noexcept {
    return offsets_[static_cast<std::size_t>(s)];
  }
  /// Owning shard of a global unit id.
  int shard_of(Index unit) const noexcept;

  // ---- Training hooks ----
  void forward(int slot, const ActiveSet& prev, std::span<const Index> forced,
               Rng& rng, VisitedSet& visited, int tid) override;
  float compute_softmax_ce_deltas(int slot, std::span<const Index> labels,
                                  float inv_batch) override;
  void backward(int slot, ActiveSet& prev, int tid) override;
  void apply_updates(float lr, ThreadPool* pool) override;

  // ---- LSH lifecycle ----
  /// Fires each shard's schedule. With a multi-thread pool the shards
  /// rebuild in parallel (one pool thread per shard, each building its own
  /// table group).
  bool maybe_rebuild(long iteration, ThreadPool* pool) override;
  void rebuild_tables(ThreadPool* pool) override;

  // ---- Dynamic label lifecycle ----
  /// Appends `n` units to the LAST shard (every other shard's row offset
  /// stays put, so existing global ids are stable) and extends the global
  /// partition. Returns the global id of the first appended unit.
  Index add_units(Index n) override;
  /// Validates every id, then routes each to its owning shard's tombstone
  /// mask; an out-of-range id retires nothing.
  void retire_units(std::span<const Index> ids) override;
  Index retired_count() const noexcept override;
  /// Globalized (by shard row offset) tombstoned ids, ascending.
  std::vector<Index> retired_unit_ids() const override;
  Index appended_units() const noexcept override;

  /// Aggregated diagnostics across shards.
  long rebuild_count() const override;
  TableHealth table_health() const override;
  /// Summed per-shard phase timers (the Figure 6 / Table 2
  /// instrumentation; see SampledLayer::sampling_seconds).
  double sampling_seconds() const override;
  double compute_seconds() const override;

  // ---- Inference hooks ----
  void forward_inference(std::span<const Index> prev_ids,
                         std::span<const float> prev_act, bool exact,
                         Rng& rng, VisitedSet& visited,
                         std::vector<Index>& ids_out,
                         std::vector<float>& act_out) const override;
  /// K-way merge of the per-shard candidate runs through a bounded heap in
  /// the caller's scratch — the global top-k never materializes more than
  /// k entries beyond the per-shard candidate buffers.
  void forward_inference_topk(std::span<const Index> prev_ids,
                              std::span<const float> prev_act, int k,
                              bool exact, Rng& rng, VisitedSet& visited,
                              TopKScratch& scratch,
                              std::vector<Index>& out) const override;

  // ---- Per-slot state (the merged, globally-indexed active set) ----
  ActiveSet& slot(int s) override {
    return slots_[static_cast<std::size_t>(s)];
  }
  const ActiveSet& slot(int s) const override {
    return slots_[static_cast<std::size_t>(s)];
  }

  // ---- Serialize hooks ----
  /// A sharded layer has no contiguous whole-layer parameter block; the
  /// per-shard spans below are the serialization surface (checkpoint v3).
  /// The whole-layer spans are intentionally empty so a caller that
  /// ignores num_shards() fails loudly (zero-size block) instead of
  /// silently reading one shard.
  std::span<float> weights_span() noexcept override { return {}; }
  std::span<const float> weights_span() const noexcept override { return {}; }
  std::span<float> bias_span() noexcept override { return {}; }
  std::span<const float> bias_span() const noexcept override { return {}; }

  int num_shards() const noexcept override { return shards(); }
  Index shard_row_offset(int s) const noexcept override {
    return shard_offset(s);
  }
  std::span<float> shard_weights(int s) noexcept override {
    return shards_[static_cast<std::size_t>(s)]->weights_span();
  }
  std::span<const float> shard_weights(int s) const noexcept override {
    return shard(s).weights_span();
  }
  std::span<float> shard_bias(int s) noexcept override {
    return shards_[static_cast<std::size_t>(s)]->bias_span();
  }
  std::span<const float> shard_bias(int s) const noexcept override {
    return shard(s).bias_span();
  }

  void on_weights_loaded() noexcept override;
  std::size_t num_parameters() const noexcept override;

  // ---- Quantized inference ----
  Precision inference_precision() const noexcept override {
    return config_.precision;
  }
  void refresh_inference_mirror() noexcept override;
  std::size_t inference_weight_bytes() const noexcept override;
  LayerMemory memory() const noexcept override;

  double average_active_fraction() const override;

 private:
  /// Scatters the merged per-slot deltas back into the shard slots (the
  /// inverse of the forward merge); called by backward.
  void scatter_errors(int slot);

  SampledLayer::Config config_;  // the global (pre-partition) config
  Index units_;
  Index fan_in_;
  std::vector<Index> offsets_;  // size shards() + 1; offsets_[0] == 0
  std::vector<std::unique_ptr<SampledLayer>> shards_;
  std::vector<ActiveSet> slots_;  // merged active sets, global ids
};

}  // namespace slide
