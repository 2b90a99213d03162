// Configuration structs for the SLIDE network and trainer. No field picks
// a training parallelism scheme: every thread count trains the same
// weights (core/trainer.h).
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation.h"
#include "lsh/factory.h"
#include "lsh/hash_table.h"
#include "lsh/sampling.h"
#include "optim/adam.h"
#include "sys/common.h"

namespace slide {

/// Hash-table refresh schedule (paper §4.2, heuristic 1): the first rebuild
/// happens after `initial_period` iterations (paper uses N0 = 50) and the
/// t-th gap grows exponentially, gap_t = N0 * e^(decay * t) — early training
/// moves weights a lot, late training barely at all. A due rebuild runs in
/// place on the trainer's calling thread, spread over its pool, and stalls
/// the step for its duration.
struct RebuildSchedule {
  bool enabled = true;
  long initial_period = 50;
  double decay = 0.05;
};

/// Inference-scoring precision of a network:
///
///   kFP32 — weights are read as stored; no mirror, no extra memory.
///   kInt8 — every layer keeps a signed 8-bit mirror of its weight matrix
///           with a per-row symmetric fp32 scale (a quarter of the weight
///           bytes; biases stay fp32; see simd/int8.h for the format),
///           scored via AVX-512 VNNI `vpdpbusd` / AVX2 `vpmaddubsw` /
///           scalar, picked at dispatch-bind time from cpuid. Training is
///           untouched: forward/backward/Adam run on the fp32 master
///           weights (apply_updates never touches the mirror), and the
///           mirror is re-quantized at the publish points — network
///           construction, checkpoint load, and an explicit
///           Network::refresh_inference_mirrors().
/// Enumerator values are a serialization contract (the checkpoint's
/// precision tag): append only. Tags 1 and 2 named removed 16-bit tiers;
/// readers reject them.
enum class Precision { kFP32 = 0, kInt8 = 3 };

const char* to_string(Precision precision);
/// Parses "fp32" | "int8" (slide::Error otherwise, including the names of
/// the removed 16-bit tiers).
Precision parse_precision(const char* name);
/// The Precision a checkpoint precision tag names (slide::Error for any
/// other value, including 1 and 2, the removed tiers' tags).
Precision precision_from_tag(std::uint32_t tag);

/// One layer after the first hidden layer (see EmbeddingLayer for the
/// input-facing layer). When `hashed` is set, the layer maintains LSH tables
/// over its neurons and activates only a sampled subset per input.
struct LayerSpec {
  Index units = 0;
  Activation activation = Activation::kReLU;

  bool hashed = false;
  /// Static uniform sampling instead of LSH (the Sampled Softmax baseline
  /// of paper §5.1): actives = forced labels + random classes up to
  /// sampling.target. Mutually exclusive with `hashed`.
  bool random_sampled = false;
  HashFamilyConfig family;    // family.dim is overwritten with the fan-in
  HashTable::Config table;
  SamplingConfig sampling;
  RebuildSchedule rebuild;

  /// Model-parallel sharding of a hashed layer (core/sharded_layer.h).
  /// 0 (the default) builds the monolithic SampledLayer; any value >= 1
  /// builds a ShardedSampledLayer whose neuron range is partitioned into
  /// that many contiguous shards, each with its own weight block and LSH
  /// tables. shards = 1 is the parity anchor: bit-identical to the
  /// monolithic layer. Requires `hashed`.
  int shards = 0;

  /// Weight init stddev; 0 selects 2/sqrt(fan_in).
  float init_stddev = 0.0f;
};

struct NetworkConfig {
  Index input_dim = 0;
  /// First hidden layer width (dense, ReLU, fed by the sparse input).
  Index hidden_units = 128;
  float hidden_init_stddev = 0.5f;

  /// Subsequent layers; the last one is the (softmax) output layer.
  std::vector<LayerSpec> layers;

  /// Batch slots to preallocate (max batch size the network can train on).
  int max_batch_size = 256;

  /// Inference-scoring precision (see Precision). int8 quarters the weight
  /// bytes the serving path reads; fp32 master weights remain authoritative
  /// for training and checkpoints.
  Precision precision = Precision::kFP32;

  AdamConfig adam;
  std::uint64_t seed = 123;
};

struct TrainerConfig {
  int batch_size = 128;
  int num_threads = 0;  // 0 = hardware_threads()
  float learning_rate = 1e-4f;
  bool shuffle = true;
  std::uint64_t seed = 99;
};

/// Builds the paper's benchmark architecture: input -> 128 ReLU -> softmax
/// output with LSH tables on the output layer only ("we maintain the hash
/// tables for the last layer, where we have a computational bottleneck").
/// Backed by NetworkBuilder (core/builder.h) — equivalent to
/// NetworkBuilder(input_dim).dense(hidden).sampled(label_dim, family,
/// sampling_target).to_config(); prefer the builder in new code.
NetworkConfig make_paper_network(Index input_dim, Index label_dim,
                                 const HashFamilyConfig& family,
                                 Index sampling_target,
                                 Index hidden_units = 128);

}  // namespace slide
