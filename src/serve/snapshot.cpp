#include "serve/snapshot.h"

#include <fstream>
#include <utility>

#include "core/serialize.h"
#include "sys/thread_pool.h"

namespace slide {

namespace {

std::shared_ptr<ModelSnapshot> make_snapshot(
    std::shared_ptr<const Network> network, std::uint64_t version,
    std::string source) {
  SLIDE_CHECK(network != nullptr, "ModelStore: network must not be null");
  auto snap = std::make_shared<ModelSnapshot>();
  snap->max_units = network->max_sampled_units();
  snap->input_dim = network->input_dim();
  snap->network = std::move(network);
  snap->version = version;
  snap->source = std::move(source);
  return snap;
}

/// Runs a core/serialize fill function with `rebuild_threads` (0 =
/// hardware) as its thread count, on a pool of that many when more than
/// one.
template <typename Fill>
std::shared_ptr<const Network> build_serving(int rebuild_threads,
                                             const Fill& fill) {
  if (rebuild_threads <= 0) rebuild_threads = hardware_threads();
  if (rebuild_threads > 1) {
    ThreadPool pool(rebuild_threads);
    return fill(rebuild_threads, &pool);
  }
  return fill(1, nullptr);
}

/// Builds a serving-ready network from a checkpoint off the serving path.
std::shared_ptr<const Network> network_from_checkpoint(
    const NetworkConfig& config, std::istream& in, int rebuild_threads) {
  return build_serving(rebuild_threads, [&](int threads, ThreadPool* pool) {
    return load_network(config, in, threads, pool);
  });
}

/// Copies `trained` into a fresh network of `config` and publishes it.
std::uint64_t publish_copy(ModelStore& store, const Network& trained,
                           const NetworkConfig& config, int rebuild_threads,
                           const std::string& source) {
  return store.publish(
      build_serving(rebuild_threads,
                    [&](int threads, ThreadPool* pool) {
                      return copy_network(config, trained, threads, pool);
                    }),
      source);
}

}  // namespace

ModelStore::ModelStore(std::shared_ptr<const Network> initial,
                       std::string source) {
  current_ = make_snapshot(std::move(initial), next_version_++,
                           std::move(source));
  input_dim_.store(current_->input_dim, std::memory_order_release);
  publish_count_ = 1;
}

std::shared_ptr<ModelStore> ModelStore::from_checkpoint_file(
    const NetworkConfig& config, const std::string& path,
    int rebuild_threads) {
  std::ifstream in(path, std::ios::binary);
  SLIDE_CHECK(in.good(), "ModelStore: cannot open checkpoint " + path);
  return std::make_shared<ModelStore>(
      network_from_checkpoint(config, in, rebuild_threads), path);
}

std::shared_ptr<const ModelSnapshot> ModelStore::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t ModelStore::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_->version;
}

std::uint64_t ModelStore::publish(std::shared_ptr<const Network> network,
                                  std::string source) {
  auto snap = make_snapshot(std::move(network), 0, std::move(source));
  std::lock_guard<std::mutex> lock(mutex_);
  snap->version = next_version_++;
  current_ = std::move(snap);
  input_dim_.store(current_->input_dim, std::memory_order_release);
  ++publish_count_;
  return current_->version;
}

std::uint64_t ModelStore::load_checkpoint(const NetworkConfig& config,
                                          std::istream& in,
                                          const std::string& source,
                                          int rebuild_threads) {
  // Build + load + table rebuild all happen here, before publication —
  // serving traffic never sees a partially-initialized network.
  return publish(network_from_checkpoint(config, in, rebuild_threads),
                 source);
}

std::uint64_t ModelStore::load_checkpoint_file(const NetworkConfig& config,
                                               const std::string& path,
                                               int rebuild_threads) {
  std::ifstream in(path, std::ios::binary);
  SLIDE_CHECK(in.good(), "ModelStore: cannot open checkpoint " + path);
  return load_checkpoint(config, in, path, rebuild_threads);
}

std::uint64_t ModelStore::publish_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publish_count_;
}

std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            int rebuild_threads, const std::string& source) {
  return publish_clone(store, trained, trained.precision(), rebuild_threads,
                       source);
}

std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            Precision precision, int rebuild_threads,
                            const std::string& source) {
  // The copy re-derives its quantized mirrors from the fp32 masters, so
  // the override needs nothing but the config.
  NetworkConfig config = trained.config();
  config.precision = precision;
  return publish_copy(store, trained, config, rebuild_threads, source);
}

std::uint64_t publish_clone_sharded(ModelStore& store, const Network& trained,
                                    int shards, int rebuild_threads,
                                    const std::string& source) {
  SLIDE_CHECK(shards >= 0, "publish_clone_sharded: shards must be >= 0");
  // Retarget every hashed layer at the requested shard count; the copy
  // scatters the trainer's shards into the new partition by global row,
  // so the served weights are exactly the trainer's regardless of either
  // side's sharding.
  NetworkConfig config = trained.config();
  for (LayerSpec& spec : config.layers) {
    if (spec.hashed) spec.shards = shards;
  }
  return publish_copy(store, trained, config, rebuild_threads, source);
}

}  // namespace slide
