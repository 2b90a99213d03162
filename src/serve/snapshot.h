// Hot-swappable model snapshots (RCU-style publish/read).
//
// A ModelSnapshot is an immutable, fully-built model: a const Network with
// its hash tables already rebuilt, plus a monotonically increasing version.
// The ModelStore holds the current snapshot behind a shared_ptr; readers
// (engine workers) grab a reference once per micro-batch and keep serving
// on it even if a newer snapshot is published mid-batch — the classic
// read-copy-update shape. Publishing swaps the pointer under a short
// mutex; in-flight requests finish on the old snapshot, which is freed
// when the last reader drops its reference. There is no pause, no
// reader-side locking beyond the pointer copy, and no torn state: a
// snapshot is either fully visible or not yet published.
//
// Checkpoint loads and clones of a live trainer build the fresh Network
// *before* the swap, off the serving path, through the fill functions of
// core/serialize: the layers are constructed without a random init, every
// parameter is written from the checkpoint stream or copied from the
// trainer by global row, and the output layer's tables are built once.
// This is the building block for train-and-serve loops where a trainer
// publishes and the server picks the weights up with zero pause (cf. the
// parameter-exchange motivation in "Distributed SLIDE", 2022, where
// trained parameters travel as raw row blocks, not re-parsed checkpoints).
#pragma once

#include <atomic>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "core/network.h"

namespace slide {

struct ModelSnapshot {
  std::shared_ptr<const Network> network;
  std::uint64_t version = 0;
  /// Provenance: checkpoint path, "initial", "published", ...
  std::string source;
  /// Cached network->max_sampled_units(); sizes per-worker scratch.
  Index max_units = 0;
  /// Cached network->input_dim(); validates requests at admission.
  Index input_dim = 0;
};

class ModelStore {
 public:
  /// Seeds the store with an already-built network (version 1). The network
  /// must have its hash tables current (e.g. rebuild_all after training).
  explicit ModelStore(std::shared_ptr<const Network> initial,
                      std::string source = "initial");

  /// Boots a store directly from a checkpoint (version 1) — the standalone
  /// server path, with no placeholder network to build and discard: the
  /// network is built by load_network (core/serialize.h), so its layers
  /// draw no random init and build their tables once.
  static std::shared_ptr<ModelStore> from_checkpoint_file(
      const NetworkConfig& config, const std::string& path,
      int rebuild_threads = 0);

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// The current snapshot; never null. Readers hold the returned pointer
  /// for as long as they need the model — publishing never invalidates it.
  std::shared_ptr<const ModelSnapshot> current() const;

  std::uint64_t version() const;

  /// Atomically publishes an already-built network; returns its version.
  std::uint64_t publish(std::shared_ptr<const Network> network,
                        std::string source = "published");

  /// Builds a network of `config` from a core/serialize checkpoint
  /// (load_network: no random init, tables built once on `rebuild_threads`,
  /// 0 = hardware), then publishes it. All heavy work happens on the
  /// calling thread before the O(1) swap. The config must match the
  /// checkpoint architecture (slide::Error otherwise, store unchanged).
  std::uint64_t load_checkpoint(const NetworkConfig& config, std::istream& in,
                                const std::string& source = "stream",
                                int rebuild_threads = 0);
  std::uint64_t load_checkpoint_file(const NetworkConfig& config,
                                     const std::string& path,
                                     int rebuild_threads = 0);

  /// Input dimension of the current snapshot (lock-free; updated at
  /// publish). Admission-time request validation reads this on every
  /// submit, so it must not take the snapshot mutex.
  Index input_dim() const noexcept {
    return input_dim_.load(std::memory_order_acquire);
  }

  /// Total successful publishes (including the seed snapshot).
  std::uint64_t publish_count() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;
  std::atomic<Index> input_dim_{0};
  std::uint64_t next_version_ = 1;
  std::uint64_t publish_count_ = 0;
};

/// Convenience for the common train-and-serve handoff: copy `trained` into
/// a fresh network with the same config (copy_network, core/serialize.h:
/// every parameter block by global row, the tombstones, then one table
/// build on `rebuild_threads`) and publish it. The snapshot equals a
/// save_weights + load_checkpoint round trip bit for bit, without the
/// stream. (A direct shared_ptr publish is cheaper when the caller can
/// relinquish ownership; this path clones, so the trainer can keep
/// mutating its own network once the call returns.) A failed copy throws
/// and leaves the store unchanged.
std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            int rebuild_threads = 0,
                            const std::string& source = "clone");

/// publish_clone with a serving-precision override: the published snapshot
/// scores inference at `precision` regardless of how the trainer's network
/// is configured. Precision::kInt8 emits a quantized snapshot whose
/// scoring path reads a quarter of the weight bytes
/// (Network::memory_footprint); the trainer keeps its fp32 masters
/// untouched. The checkpoint-loading boot paths (from_checkpoint_file /
/// load_checkpoint*) get the same knob through NetworkConfig::precision.
std::uint64_t publish_clone(ModelStore& store, const Network& trained,
                            Precision precision, int rebuild_threads = 0,
                            const std::string& source = "clone");

/// publish_clone with a shard-count override: every hashed layer of the
/// published snapshot is re-partitioned into `shards` model-parallel LSH
/// shards (core/sharded_layer.h) regardless of how the trainer's network is
/// laid out — the copy scatters the trainer's shard blocks into the new
/// partition by global row index, so the served parameters are
/// bit-identical to the trainer's.
/// `shards` = 0 publishes the monolithic layout; this is how a v2-era
/// monolithic model is re-published as a sharded serving snapshot (and how
/// a sharded trainer publishes a monolithic one).
std::uint64_t publish_clone_sharded(ModelStore& store, const Network& trained,
                                    int shards, int rebuild_threads = 0,
                                    const std::string& source = "reshard");

}  // namespace slide
