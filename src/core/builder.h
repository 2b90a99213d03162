// Fluent model construction — the front door of the library.
//
//   Network net = NetworkBuilder(input_dim)
//                     .dense(128)                          // embedding
//                     .sampled(label_dim, family, target)  // LSH output
//                     .build(num_threads);
//
// The first .dense() call defines the input-facing EmbeddingLayer; every
// later call appends one stack layer, so arbitrary-depth mixed stacks —
// dense-only baselines, multiple hashed layers, the paper's §4.2 ablations
// — all build the same way and run through one Network, one Trainer, one
// checkpoint format, and one serving path:
//
//   dense baseline:   .dense(128).dense(labels, Activation::kSoftmax)
//   sampled softmax:  .dense(128).random_sampled(labels, num_sampled)
//   deep mixed stack: .dense(256).dense(128).sampled(4096, fam, t1,
//                       Activation::kReLU).sampled(labels, fam, t2)
//
// Per-layer knobs (.table(), .rebuild_schedule(), .sampling_config(),
// .maintenance(), ...) apply to the most recently added stack layer.
// to_config() yields the equivalent NetworkConfig (the serializable
// architecture description the serving ModelStore consumes); build() is
// to_config() + Network construction.
//
// The built width is a starting point, not a ceiling: a hashed output
// layer grows and retires labels online after construction
// (Network::add_output_units / retire_output_units — see the dynamic-label
// lifecycle section in DESIGN.md). Growth updates the network's stored
// config, so checkpoints and publish_clone track the live width; a network
// rebuilt from the ORIGINAL builder config still loads a grown checkpoint
// (the v5 loader re-applies the appended rows and tombstones).
#pragma once

#include <cstdint>
#include <memory>

#include "core/config.h"
#include "core/network.h"

namespace slide {

class NetworkBuilder {
 public:
  explicit NetworkBuilder(Index input_dim);

  // ---- Layer-appending calls (order = stack order) ----

  /// A dense layer: every unit computes on every input. The first call
  /// defines the input-facing embedding layer (always ReLU); later calls
  /// append DenseLayers. `init_stddev` 0 selects the per-layer default.
  NetworkBuilder& dense(Index units,
                        Activation activation = Activation::kReLU,
                        float init_stddev = 0.0f);

  /// An LSH-sampled layer (paper §3): hash tables over the layer's neurons,
  /// ~`sampling_target` adaptively chosen active units per input.
  NetworkBuilder& sampled(Index units, const HashFamilyConfig& family,
                          Index sampling_target,
                          Activation activation = Activation::kSoftmax);

  /// A statically sampled layer (Sampled Softmax baseline, paper §5.1):
  /// labels + `num_sampled` uniformly random units per input.
  NetworkBuilder& random_sampled(Index units, Index num_sampled,
                                 Activation activation = Activation::kSoftmax);

  /// Escape hatch: append a fully hand-built stack layer spec.
  NetworkBuilder& layer(const LayerSpec& spec);

  // ---- Knobs for the most recently added stack layer ----

  NetworkBuilder& table(const HashTable::Config& table);
  NetworkBuilder& rebuild_schedule(const RebuildSchedule& schedule);
  NetworkBuilder& sampling_config(const SamplingConfig& sampling);
  /// How the layer executes the maintenance events its rebuild schedule
  /// fires: sync (stall-the-trainers full rebuild) or async_full
  /// (background shadow rebuild + atomic publish). See MaintenancePolicy.
  NetworkBuilder& maintenance(MaintenancePolicy policy);
  /// Model-parallel sharding of the most recently added LSH-sampled layer
  /// (core/sharded_layer.h): the neuron range splits into `shards`
  /// contiguous shards, each with its own weight block, LSH tables, and
  /// maintenance thread. shards(1) builds a
  /// single-shard ShardedSampledLayer, bit-identical to the monolithic
  /// layer under sync maintenance; leave the knob unset for the monolithic
  /// implementation itself.
  NetworkBuilder& shards(int shards);

  // ---- Network-wide knobs ----

  /// Batch slots to preallocate (max trainable batch size).
  NetworkBuilder& max_batch(int max_batch_size);
  NetworkBuilder& adam(const AdamConfig& adam);
  NetworkBuilder& seed(std::uint64_t seed);
  /// Inference-scoring precision: Precision::kInt8 gives every layer an
  /// int8 weight mirror (a quarter of the serving weight bytes) scored
  /// through the dispatch's int8 kernels; training stays fp32. See
  /// core/config.h for the quantize-on-publish contract.
  NetworkBuilder& precision(Precision precision);

  // ---- Terminal calls ----

  /// The equivalent NetworkConfig. Validates the stack: an embedding layer
  /// plus at least one stack layer, softmax on the output layer (the
  /// Trainer's loss contract).
  NetworkConfig to_config() const;

  /// Constructs the Network (see Network's ctor for `max_threads`).
  Network build(int max_threads) const;
  std::shared_ptr<Network> build_shared(int max_threads) const;

 private:
  LayerSpec& last_layer(const char* call);

  NetworkConfig config_;
  bool have_embedding_ = false;
};

}  // namespace slide
