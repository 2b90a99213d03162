// One output-layer shard living in a worker process, seen as a Layer.
//
// RemoteShard is the coordinator-side half of multi-process model
// parallelism: a ShardedSampledLayer whose shards are RemoteShards
// (NetworkBuilder::distributed) runs the same partition, merge, top-k,
// softmax, lifecycle and checkpoint code as one over in-process
// SampledLayers. Each Layer hook is one dist/protocol.h RPC to the worker
// that owns the shard's SampledLayer; only the sparse active sets cross
// the wire (Distributed SLIDE, arXiv:2201.12667: the activations that
// cross are the ~0.5% active neurons, not the dense layer).
//
//   Layer hook                          RPC
//   forward                             kForwardActive
//   backward                            kBackwardScatter
//   apply_updates                       kApplyUpdates
//   maybe_rebuild / rebuild_tables      kMaybeRebuild / kRebuildTables
//   quiesce / flush_maintenance         kQuiesce / kFlushMaintenance
//   forward_inference                   kQueryTopk
//   add_units / retire_units            kAddUnits / kRetireUnits
//   weights/bias spans                  kFetchShard / kSetShardWeights
//   refresh_inference_mirror            kRefreshMirror
//   set_use_locks                       kSetUseLocks
//   stats (timers, rebuild counters)    kStats
//
// Equivalence contract (pinned by tests/test_dist.cpp): S remote shards
// are bit-identical to S in-process shards under single-threaded sync
// training —
//   * the worker builds its SampledLayer from the same derive_shard_config,
//   * the caller's Rng::State round-trips through every forward / query
//     RPC, so the worker consumes the exact stream the in-process shard
//     would,
//   * the prev active set travels sparse but the worker reconstructs its
//     original dense/sparse shape before compute,
//   * backward ships the current prev.err and replaces it with the
//     worker's result — the merged layer's fixed shard order makes that a
//     sequential fold with the in-process FP rounding order.
//
// Serialize surface: a coordinator-side cache of the shard's weights and
// bias, pulled by flush_maintenance() (and at construction) and pushed
// back to the worker by on_weights_loaded(), so checkpoint v3's per-shard
// blocks map 1:1 onto worker-owned state.
//
// Failure model: when the worker stops answering (RPC timeout exhausted,
// transport gone) the shard turns unhealthy and INFERENCE treats it as a
// shard with no candidates — the merged layer keeps answering from the
// surviving shards ("degraded mode", surfaced through engine stats).
// TRAINING RPC failures propagate: silently dropping one shard's
// gradients would corrupt the model.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/sharded_layer.h"
#include "dist/client.h"

namespace slide::dist {

class RemoteShard final : public Layer {
 public:
  /// Dials and handshakes `endpoint`, initializes the worker's shard from
  /// `init` (kInitShard; a non-empty checkpoint_path boots it from that
  /// shard file on the worker's filesystem), and pulls its weights into
  /// the checkpoint cache.
  RemoteShard(const std::string& endpoint, const InitShardMsg& init);
  /// Shuts the worker down (shutdown_worker).
  ~RemoteShard() override;
  RemoteShard(const RemoteShard&) = delete;
  RemoteShard& operator=(const RemoteShard&) = delete;

  // ---- Identity ----
  LayerKind kind() const noexcept override { return LayerKind::kSampled; }
  Index units() const noexcept override { return config_.units; }
  Index fan_in() const noexcept override { return config_.fan_in; }
  Activation activation() const noexcept override {
    return config_.activation;
  }

  // ---- Training hooks (failures propagate) ----
  void forward(int slot, const ActiveSet& prev, std::span<const Index> forced,
               Rng& rng, VisitedSet& visited, int tid) override;
  /// Loss and activation deltas are computed by the merged layer over all
  /// shards' actives; a shard on its own refuses them.
  float compute_softmax_ce_deltas(int slot, std::span<const Index> labels,
                                  float inv_batch) override;
  void compute_relu_deltas(int slot) override;
  void backward(int slot, ActiveSet& prev, int tid) override;
  void apply_updates(float lr, ThreadPool* pool) override;

  // ---- LSH lifecycle (the worker runs its own schedule) ----
  bool maybe_rebuild(long iteration, ThreadPool* pool) override;
  void rebuild_tables(ThreadPool* pool) override;
  void quiesce_maintenance() const override;
  /// Drains the worker's maintenance, then refreshes the checkpoint cache
  /// — after this the spans hold the worker's current parameters.
  void flush_maintenance() override;

  // ---- Inference (an unhealthy shard contributes no candidates) ----
  void forward_inference(std::span<const Index> prev_ids,
                         std::span<const float> prev_act, bool exact,
                         Rng& rng, VisitedSet& visited,
                         std::vector<Index>& ids_out,
                         std::vector<float>& act_out) const override;

  ActiveSet& slot(int s) override {
    return slots_[static_cast<std::size_t>(s)];
  }
  const ActiveSet& slot(int s) const override {
    return slots_[static_cast<std::size_t>(s)];
  }

  // ---- Serialize hooks: the coordinator-side cache ----
  std::span<float> weights_span() noexcept override {
    return {cache_w_.data(), cache_w_.size()};
  }
  std::span<const float> weights_span() const noexcept override {
    return {cache_w_.data(), cache_w_.size()};
  }
  std::span<float> bias_span() noexcept override {
    return {cache_b_.data(), cache_b_.size()};
  }
  std::span<const float> bias_span() const noexcept override {
    return {cache_b_.data(), cache_b_.size()};
  }
  /// Pushes the cache (just rewritten by load_weights) to the worker,
  /// which rebuilds its tables. noexcept per the Layer contract: an RPC
  /// failure marks the shard unhealthy and surfaces on its next use.
  void on_weights_loaded() noexcept override;
  std::size_t num_parameters() const noexcept override {
    return static_cast<std::size_t>(units()) * fan_in() + units();
  }

  // ---- Quantized inference ----
  Precision inference_precision() const noexcept override {
    return config_.precision;
  }
  void refresh_inference_mirror() noexcept override;
  std::size_t inference_weight_bytes() const noexcept override;
  /// Coordinator-resident bytes only (the checkpoint cache); the shard's
  /// weights, mirror, tables and Adam state live in the worker.
  LayerMemory memory() const noexcept override;

  void set_use_locks(bool locks) noexcept override;

  // ---- Diagnostics (kStats; 0 while the worker is unhealthy) ----
  double average_active_fraction() const override;
  double sampling_seconds() const override;
  double compute_seconds() const override;
  long rebuild_count() const override;

  // ---- Dynamic label lifecycle ----
  /// Grows the worker's shard by n rows (kAddUnits) and the cache with it;
  /// the new rows read as zero until the next flush_maintenance().
  Index add_units(Index n) override;
  /// Tombstones shard-local ids on the worker (kRetireUnits). The ids
  /// enter the local mirror only once the worker acked the whole batch.
  void retire_units(std::span<const Index> ids) override;
  Index retired_count() const noexcept override {
    return static_cast<Index>(retired_.size());
  }
  std::vector<Index> retired_unit_ids() const override {
    return {retired_.begin(), retired_.end()};
  }
  Index appended_units() const noexcept override { return appended_units_; }

  // ---- Remote-only operations ----
  /// False once the worker was declared unresponsive or gone.
  bool healthy() const noexcept { return client_.healthy(); }
  /// Cumulative traffic on this shard's transport.
  WireCounters wire_counters() const noexcept { return client_.counters(); }
  /// Has the worker write its shard file shard_file_path(base, s, n) on
  /// ITS filesystem (kCheckpointShard) — no weight bytes cross the wire.
  void checkpoint(const std::string& base);
  /// Sends kShutdown (best effort) and closes the connection.
  void shutdown_worker() noexcept;

 private:
  /// Re-pulls the worker's weights into the cache (kFetchShard).
  void fetch_weights();
  /// The worker's diagnostics (kStats), or all zeroes when it cannot
  /// answer.
  StatsResp stats() const noexcept;

  SampledLayer::Config config_;  // the shard's (derived) config
  std::int32_t shard_index_;
  std::int32_t num_shards_;
  Index row_offset_;
  /// Mutable: const hooks (quiesce, stats, inference) still do RPC.
  mutable ShardClient client_;
  std::vector<ActiveSet> slots_;  // shard-local active sets of the last forward
  std::vector<float> cache_w_;
  std::vector<float> cache_b_;
  std::set<Index> retired_;  // acked shard-local tombstones
  Index appended_units_ = 0;
};

/// The ShardedSampledLayer::ShardFactory that dials one worker per
/// endpoint (shard s -> endpoints[s]). A non-empty `checkpoint_base`
/// boots every worker from its own shard file "<base>.shard<s>of<n>".
ShardedSampledLayer::ShardFactory remote_shard_factory(
    std::vector<std::string> endpoints, Index global_units, int batch_slots,
    std::string checkpoint_base);

/// The RemoteShards of `layer` — the shards of a ShardedSampledLayer built
/// by NetworkBuilder::distributed — in shard order; empty for any other
/// layer.
std::vector<RemoteShard*> remote_shards(Layer& layer);
std::vector<const RemoteShard*> remote_shards(const Layer& layer);

/// Cluster-wide operations over remote_shards(layer).
/// Summed wire traffic.
WireCounters wire_counters(const Layer& layer);
/// Shards currently unhealthy (the degraded-mode count).
int unhealthy_shards(const Layer& layer);
/// Every worker writes its own shard file (see RemoteShard::checkpoint);
/// ModelStore::from_shard_checkpoints reboots a serving store from them.
void checkpoint_shards(Layer& layer, const std::string& base);
/// Shuts every worker down. The shards' destructors do the same; explicit
/// for callers that stop the workers before the network goes away.
void shutdown_workers(Layer& layer);

}  // namespace slide::dist
