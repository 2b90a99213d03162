#include "core/builder.h"

#include <string>
#include <string_view>

namespace slide {

NetworkBuilder::NetworkBuilder(Index input_dim) {
  SLIDE_CHECK(input_dim > 0, "NetworkBuilder: input_dim must be positive");
  config_.input_dim = input_dim;
  config_.layers.clear();
}

NetworkBuilder& NetworkBuilder::dense(Index units, Activation activation,
                                      float init_stddev) {
  SLIDE_CHECK(units > 0, "NetworkBuilder::dense: units must be positive");
  if (!have_embedding_) {
    SLIDE_CHECK(activation == Activation::kReLU,
                "NetworkBuilder: the input-facing (first) layer is always "
                "ReLU");
    config_.hidden_units = units;
    if (init_stddev > 0.0f) config_.hidden_init_stddev = init_stddev;
    have_embedding_ = true;
    return *this;
  }
  LayerSpec spec;
  spec.units = units;
  spec.activation = activation;
  spec.hashed = false;
  spec.random_sampled = false;
  spec.init_stddev = init_stddev;
  return layer(spec);
}

NetworkBuilder& NetworkBuilder::sampled(Index units,
                                        const HashFamilyConfig& family,
                                        Index sampling_target,
                                        Activation activation) {
  SLIDE_CHECK(units > 0, "NetworkBuilder::sampled: units must be positive");
  SLIDE_CHECK(sampling_target > 0,
              "NetworkBuilder::sampled: sampling_target must be positive");
  LayerSpec spec;
  spec.units = units;
  spec.activation = activation;
  spec.hashed = true;
  spec.family = family;
  spec.sampling.strategy = SamplingStrategy::kVanilla;
  spec.sampling.target = sampling_target;
  return layer(spec);
}

NetworkBuilder& NetworkBuilder::random_sampled(Index units, Index num_sampled,
                                               Activation activation) {
  SLIDE_CHECK(units > 0,
              "NetworkBuilder::random_sampled: units must be positive");
  SLIDE_CHECK(num_sampled > 0,
              "NetworkBuilder::random_sampled: num_sampled must be positive");
  LayerSpec spec;
  spec.units = units;
  spec.activation = activation;
  spec.hashed = false;
  spec.random_sampled = true;
  spec.sampling.target = num_sampled;
  return layer(spec);
}

NetworkBuilder& NetworkBuilder::layer(const LayerSpec& spec) {
  SLIDE_CHECK(have_embedding_,
              "NetworkBuilder: the first layer must be dense (the "
              "input-facing embedding) — call .dense(units) first");
  SLIDE_CHECK(spec.units > 0, "NetworkBuilder::layer: units must be positive");
  config_.layers.push_back(spec);
  return *this;
}

LayerSpec& NetworkBuilder::last_layer(const char* call) {
  SLIDE_CHECK(!config_.layers.empty(),
              std::string("NetworkBuilder::") + call +
                  ": no stack layer to modify — add one first");
  return config_.layers.back();
}

NetworkBuilder& NetworkBuilder::table(const HashTable::Config& table) {
  last_layer("table").table = table;
  return *this;
}

NetworkBuilder& NetworkBuilder::rebuild_schedule(
    const RebuildSchedule& schedule) {
  last_layer("rebuild_schedule").rebuild = schedule;
  return *this;
}

NetworkBuilder& NetworkBuilder::sampling_config(
    const SamplingConfig& sampling) {
  last_layer("sampling_config").sampling = sampling;
  return *this;
}

NetworkBuilder& NetworkBuilder::maintenance(MaintenancePolicy policy) {
  last_layer("maintenance").maintenance = policy;
  return *this;
}

NetworkBuilder& NetworkBuilder::shards(int shards) {
  SLIDE_CHECK(shards >= 1, "NetworkBuilder::shards: must be >= 1");
  LayerSpec& spec = last_layer("shards");
  SLIDE_CHECK(spec.hashed,
              "NetworkBuilder::shards: sharding requires an LSH-sampled "
              "layer (call .sampled(...) first)");
  SLIDE_CHECK(static_cast<Index>(shards) <= spec.units,
              "NetworkBuilder::shards: more shards than units");
  spec.shards = shards;
  return *this;
}

NetworkBuilder& NetworkBuilder::max_batch(int max_batch_size) {
  SLIDE_CHECK(max_batch_size > 0,
              "NetworkBuilder::max_batch: must be positive");
  config_.max_batch_size = max_batch_size;
  return *this;
}

NetworkBuilder& NetworkBuilder::adam(const AdamConfig& adam) {
  config_.adam = adam;
  return *this;
}

NetworkBuilder& NetworkBuilder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}

NetworkBuilder& NetworkBuilder::precision(Precision precision) {
  config_.precision = precision;
  return *this;
}

NetworkConfig NetworkBuilder::to_config() const {
  SLIDE_CHECK(have_embedding_,
              "NetworkBuilder: missing the input-facing dense layer");
  SLIDE_CHECK(!config_.layers.empty(),
              "NetworkBuilder: at least one stack layer (the output layer) "
              "is required");
  SLIDE_CHECK(config_.layers.back().activation == Activation::kSoftmax,
              "NetworkBuilder: the output layer must be softmax (the "
              "Trainer's cross-entropy contract)");
  return config_;
}

Network NetworkBuilder::build(int max_threads) const {
  return Network(to_config(), max_threads);
}

std::shared_ptr<Network> NetworkBuilder::build_shared(int max_threads) const {
  return std::make_shared<Network>(to_config(), max_threads);
}

// ---------------------------------------------------------------------------

const char* to_string(MaintenancePolicy policy) {
  switch (policy) {
    case MaintenancePolicy::kSync:
      return "sync";
    case MaintenancePolicy::kAsyncFull:
      return "async_full";
  }
  return "?";
}

MaintenancePolicy parse_maintenance_policy(const char* name) {
  const std::string_view s(name == nullptr ? "" : name);
  if (s == "sync") return MaintenancePolicy::kSync;
  if (s == "async_full") return MaintenancePolicy::kAsyncFull;
  if (s == "async_delta")
    throw Error("maintenance policy async_delta was removed; use async_full");
  throw Error("unknown maintenance policy: " + std::string(s) +
              " (expected sync | async_full)");
}

const char* to_string(Precision precision) {
  switch (precision) {
    case Precision::kFP32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "?";
}

Precision parse_precision(const char* name) {
  const std::string_view s(name == nullptr ? "" : name);
  if (s == "fp32") return Precision::kFP32;
  if (s == "int8") return Precision::kInt8;
  throw Error("unknown precision: " + std::string(s) +
              " (expected fp32 | int8)");
}

Precision precision_from_tag(std::uint32_t tag) {
  for (const Precision p : {Precision::kFP32, Precision::kInt8})
    if (tag == static_cast<std::uint32_t>(p)) return p;
  throw Error("unknown precision tag " + std::to_string(tag) +
              " (expected 0 = fp32 | 3 = int8)");
}

// ---------------------------------------------------------------------------

NetworkConfig make_paper_network(Index input_dim, Index label_dim,
                                 const HashFamilyConfig& family,
                                 Index sampling_target, Index hidden_units) {
  return NetworkBuilder(input_dim)
      .dense(hidden_units)
      .sampled(label_dim, family, sampling_target)
      .to_config();
}

}  // namespace slide
