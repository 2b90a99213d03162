// Fluent model construction — the front door of the library.
//
//   Network net = NetworkBuilder(input_dim)
//                     .dense(128)                          // embedding
//                     .sampled(label_dim, family, target)  // LSH output
//                     .build(num_threads);
//
// Every network has the paper's one shape (§5): the first .dense() call
// defines the input-facing EmbeddingLayer (always ReLU), and exactly one
// more call adds the softmax output layer, choosing its policy:
//
//   dense baseline:   .dense(128).dense(labels)
//   LSH-sampled:      .dense(128).sampled(labels, family, target)
//   sharded LSH:      .dense(128).sampled(labels, family, target).shards(4)
//   sampled softmax:  .dense(128).random_sampled(labels, num_sampled)
//
// A third layer call throws slide::Error. The output-layer knobs
// (.table(), .rebuild_schedule(), .sampling_config(), .shards()) follow
// the output-layer call. to_config() yields the equivalent NetworkConfig
// (the serializable architecture description the serving ModelStore
// consumes); build() is to_config() + Network construction.
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

  // ---- Layer calls: the embedding, then the output layer ----

  /// A dense layer: every unit computes on every input. The first call
  /// defines the input-facing embedding layer (ReLU); the second adds the
  /// dense softmax output layer (the full-softmax baseline). `init_stddev`
  /// 0 selects the layer's default.
  NetworkBuilder& dense(Index units, float init_stddev = 0.0f);

  /// An LSH-sampled output layer (paper §3): hash tables over its neurons,
  /// ~`sampling_target` adaptively chosen active units per input.
  NetworkBuilder& sampled(Index units, const HashFamilyConfig& family,
                          Index sampling_target);

  /// A statically sampled output layer (Sampled Softmax baseline, paper
  /// §5.1): labels + `num_sampled` uniformly random units per input.
  NetworkBuilder& random_sampled(Index units, Index num_sampled);

  /// Escape hatch: a fully hand-built output-layer spec.
  NetworkBuilder& layer(const LayerSpec& spec);

  // ---- Knobs for the output layer (call after adding it) ----

  NetworkBuilder& table(const HashTable::Config& table);
  NetworkBuilder& rebuild_schedule(const RebuildSchedule& schedule);
  NetworkBuilder& sampling_config(const SamplingConfig& sampling);
  /// Model-parallel sharding of the LSH-sampled output layer
  /// (core/sharded_layer.h): the neuron range splits into `shards`
  /// contiguous shards, each with its own weight block and LSH tables.
  /// shards(1) builds a single-shard ShardedSampledLayer, bit-identical to
  /// the monolithic layer; leave the knob unset for the monolithic
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

  /// The equivalent NetworkConfig. Validates the shape: an embedding layer
  /// plus the output layer.
  NetworkConfig to_config() const;

  /// Constructs the Network (see Network's ctor for `max_threads`).
  Network build(int max_threads) const;
  std::shared_ptr<Network> build_shared(int max_threads) const;

 private:
  LayerSpec& output_spec(const char* call);

  NetworkConfig config_;
  bool have_embedding_ = false;
};

}  // namespace slide
