#include "dist/remote_shard.h"

#include <algorithm>

#include "core/serialize.h"

namespace slide::dist {

namespace {

/// WireActiveSet from the inference-path spans (empty prev_ids = dense set
/// indexed by unit, the Layer::forward_inference convention).
WireActiveSet capture_spans(std::span<const Index> prev_ids,
                            std::span<const float> prev_act) {
  WireActiveSet w;
  if (prev_ids.empty()) {
    w.dense_width = static_cast<Index>(prev_act.size());
    for (std::size_t i = 0; i < prev_act.size(); ++i) {
      if (prev_act[i] != 0.0f) {
        w.ids.push_back(static_cast<Index>(i));
        w.act.push_back(prev_act[i]);
      }
    }
  } else {
    w.ids.assign(prev_ids.begin(), prev_ids.end());
    w.act.assign(prev_act.begin(), prev_act.begin() + prev_ids.size());
  }
  return w;
}

}  // namespace

RemoteShard::RemoteShard(const std::string& endpoint, const InitShardMsg& init)
    : config_(init.config),
      shard_index_(init.shard_index),
      num_shards_(init.num_shards),
      row_offset_(init.row_offset),
      client_(endpoint, ClientConfig{}) {
  client_.connect();
  client_.call(init.to_frame(), MsgType::kAck);
  slots_.resize(static_cast<std::size_t>(init.batch_slots));
  fetch_weights();
}

RemoteShard::~RemoteShard() { shutdown_worker(); }

// ---------------------------------------------------------------------------
// Training path
// ---------------------------------------------------------------------------

void RemoteShard::forward(int slot, const ActiveSet& prev,
                          std::span<const Index> forced, Rng& rng,
                          VisitedSet& /*visited*/, int /*tid*/) {
  // The worker keeps its own VisitedSet (forward begins a fresh epoch
  // either way); the RNG state goes out and comes back.
  ForwardMsg msg;
  msg.slot = slot;
  msg.rng = rng.state();
  msg.forced_local.assign(forced.begin(), forced.end());
  msg.prev = WireActiveSet::capture(prev);
  ForwardResp resp = ForwardResp::from_frame(
      client_.call(msg.to_frame(), MsgType::kForwardResp));
  SLIDE_CHECK(resp.ids.size() == resp.act.size(),
              "remote forward: mismatched id/act runs from shard");
  rng.set_state(resp.rng);
  ActiveSet& set = slots_[static_cast<std::size_t>(slot)];
  set.ids = std::move(resp.ids);
  set.act.assign(resp.act.begin(), resp.act.end());
  set.err.assign(set.ids.size(), 0.0f);
}

float RemoteShard::compute_softmax_ce_deltas(int /*slot*/,
                                             std::span<const Index> /*labels*/,
                                             float /*inv_batch*/) {
  SLIDE_CHECK(false, "RemoteShard: the loss runs on the merged sharded layer");
  return 0.0f;
}

void RemoteShard::compute_relu_deltas(int /*slot*/) {
  SLIDE_CHECK(false,
              "RemoteShard: deltas run on the merged sharded layer");
}

void RemoteShard::backward(int slot, ActiveSet& prev, int /*tid*/) {
  // One step of the sequential fold: ship this shard's err segment and the
  // CURRENT prev.err, take back prev.err with this shard's contributions
  // accumulated in the in-process loop order. A shard with no actives
  // contributes nothing, like its in-process twin.
  const ActiveSet& set = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = set.size();
  if (n == 0) return;
  const std::size_t pn = prev.size();
  BackwardMsg msg;
  msg.slot = slot;
  msg.err.assign(set.err.begin(),
                 set.err.begin() + static_cast<std::ptrdiff_t>(n));
  msg.prev_err.assign(prev.err.begin(),
                      prev.err.begin() + static_cast<std::ptrdiff_t>(pn));
  const BackwardResp resp = BackwardResp::from_frame(
      client_.call(msg.to_frame(), MsgType::kBackwardResp));
  SLIDE_CHECK(resp.prev_err.size() == pn,
              "remote backward: prev_err size changed in flight");
  std::copy(resp.prev_err.begin(), resp.prev_err.end(), prev.err.begin());
}

void RemoteShard::apply_updates(float lr, ThreadPool* /*pool*/) {
  ApplyUpdatesMsg msg;
  msg.lr = lr;
  client_.call(msg.to_frame(), MsgType::kAck);
}

// ---------------------------------------------------------------------------
// LSH lifecycle
// ---------------------------------------------------------------------------

bool RemoteShard::maybe_rebuild(long iteration, ThreadPool* /*pool*/) {
  MaybeRebuildMsg msg;
  msg.iteration = iteration;
  return MaybeRebuildResp::from_frame(
             client_.call(msg.to_frame(), MsgType::kMaybeRebuildResp))
      .fired;
}

void RemoteShard::rebuild_tables(ThreadPool* /*pool*/) {
  client_.call(make_frame(MsgType::kRebuildTables), MsgType::kAck);
}

void RemoteShard::quiesce_maintenance() const {
  client_.call(make_frame(MsgType::kQuiesce), MsgType::kAck);
}

void RemoteShard::flush_maintenance() {
  client_.call(make_frame(MsgType::kFlushMaintenance), MsgType::kAck);
  // The Layer contract says the model is "settled" after this: make the
  // serialization surface reflect the worker's current parameters.
  fetch_weights();
}

// ---------------------------------------------------------------------------
// Inference path
// ---------------------------------------------------------------------------

void RemoteShard::forward_inference(std::span<const Index> prev_ids,
                                    std::span<const float> prev_act,
                                    bool exact, Rng& rng,
                                    VisitedSet& /*visited*/,
                                    std::vector<Index>& ids_out,
                                    std::vector<float>& act_out) const {
  ids_out.clear();
  act_out.clear();
  if (!client_.healthy()) return;  // degraded mode: no candidates
  QueryTopkMsg msg;
  msg.rng = rng.state();
  msg.exact = exact;
  // budget 0 = the shard's own config, which already carries its
  // proportional split of the global inference budget.
  msg.budget = 0;
  msg.prev = capture_spans(prev_ids, prev_act);
  Frame frame;
  try {
    frame = client_.call(msg.to_frame(), MsgType::kQueryTopkResp);
  } catch (const TransportError&) {
    return;  // the client is now unhealthy; answer from the survivors
  }
  QueryTopkResp resp = QueryTopkResp::from_frame(frame);
  rng.set_state(resp.rng);
  ids_out = std::move(resp.ids);
  act_out = std::move(resp.act);
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

void RemoteShard::fetch_weights() {
  FetchShardResp resp = FetchShardResp::from_frame(
      client_.call(make_frame(MsgType::kFetchShard), MsgType::kFetchShardResp));
  SLIDE_CHECK(resp.row_offset == row_offset_ && resp.rows == units() &&
                  resp.fan_in == fan_in(),
              "fetch_shard: worker topology does not match coordinator");
  cache_w_ = std::move(resp.weights);
  cache_b_ = std::move(resp.bias);
}

void RemoteShard::on_weights_loaded() noexcept {
  SetShardWeightsMsg msg;
  msg.weights = cache_w_;
  msg.bias = cache_b_;
  try {
    client_.call(msg.to_frame(), MsgType::kAck);
  } catch (const Error&) {
    // noexcept contract: the client marked itself unhealthy; the failure
    // surfaces on the shard's next use.
  }
}

void RemoteShard::checkpoint(const std::string& base) {
  CheckpointShardMsg msg;
  msg.path = shard_file_path(base, shard_index_, num_shards_);
  client_.call(msg.to_frame(), MsgType::kAck);
}

// ---------------------------------------------------------------------------
// Dynamic label lifecycle
// ---------------------------------------------------------------------------

Index RemoteShard::add_units(Index n) {
  SLIDE_CHECK(n > 0, "add_units: unit count must be positive");
  client_.call(AddUnitsMsg{n}.to_frame(), MsgType::kAck);
  const Index first = config_.units;
  config_.units += n;
  appended_units_ += n;
  cache_w_.resize(static_cast<std::size_t>(config_.units) * fan_in());
  cache_b_.resize(static_cast<std::size_t>(config_.units));
  return first;
}

void RemoteShard::retire_units(std::span<const Index> ids) {
  for (Index id : ids)
    SLIDE_CHECK(id < units(), "retire_units: unit id out of range");
  RetireUnitsMsg msg;
  msg.local_ids.assign(ids.begin(), ids.end());
  client_.call(msg.to_frame(), MsgType::kAck);
  retired_.insert(ids.begin(), ids.end());
}

// ---------------------------------------------------------------------------
// Misc hooks
// ---------------------------------------------------------------------------

void RemoteShard::refresh_inference_mirror() noexcept {
  try {
    client_.call(make_frame(MsgType::kRefreshMirror), MsgType::kAck);
  } catch (const Error&) {
  }
}

std::size_t RemoteShard::inference_weight_bytes() const noexcept {
  const std::size_t weight_count = static_cast<std::size_t>(units()) * fan_in();
  const std::size_t bias_bytes = static_cast<std::size_t>(units()) *
                                 sizeof(float);
  switch (config_.precision) {
    case Precision::kBF16:
      return weight_count * sizeof(simd::Bf16) + bias_bytes;
    case Precision::kInt8:
      // s8 weights + one fp32 scale per neuron row (simd/int8.h).
      return weight_count + static_cast<std::size_t>(units()) * sizeof(float) +
             bias_bytes;
    case Precision::kFP32:
      break;
  }
  return weight_count * sizeof(float) + bias_bytes;
}

LayerMemory RemoteShard::memory() const noexcept {
  LayerMemory m;
  m.master_bytes = (cache_w_.size() + cache_b_.size()) * sizeof(float);
  return m;
}

void RemoteShard::set_use_locks(bool locks) noexcept {
  SetUseLocksMsg msg;
  msg.locks = locks;
  try {
    client_.call(msg.to_frame(), MsgType::kAck);
  } catch (const Error&) {
  }
}

StatsResp RemoteShard::stats() const noexcept {
  if (!client_.healthy()) return {};
  try {
    return StatsResp::from_frame(
        client_.call(make_frame(MsgType::kStats), MsgType::kStatsResp));
  } catch (const Error&) {
    return {};
  }
}

double RemoteShard::average_active_fraction() const {
  return stats().active_fraction;
}

double RemoteShard::sampling_seconds() const {
  return stats().sampling_seconds;
}

double RemoteShard::compute_seconds() const {
  return stats().compute_seconds;
}

long RemoteShard::rebuild_count() const {
  return static_cast<long>(stats().rebuild_count);
}

void RemoteShard::shutdown_worker() noexcept {
  if (client_.healthy()) client_.shutdown_worker();
  client_.close();
}

// ---------------------------------------------------------------------------
// Construction and cluster-wide operations
// ---------------------------------------------------------------------------

ShardedSampledLayer::ShardFactory remote_shard_factory(
    std::vector<std::string> endpoints, Index global_units, int batch_slots,
    std::string checkpoint_base) {
  return [endpoints = std::move(endpoints), global_units, batch_slots,
          base = std::move(checkpoint_base)](
             int s, const SampledLayer::Config& config,
             Index row_offset) -> std::unique_ptr<Layer> {
    InitShardMsg init;
    init.shard_index = s;
    init.num_shards = static_cast<std::int32_t>(endpoints.size());
    init.row_offset = row_offset;
    init.global_units = global_units;
    init.batch_slots = batch_slots;
    init.config = config;
    if (!base.empty())
      init.checkpoint_path = shard_file_path(base, s, init.num_shards);
    return std::make_unique<RemoteShard>(
        endpoints[static_cast<std::size_t>(s)], init);
  };
}

std::vector<RemoteShard*> remote_shards(Layer& layer) {
  std::vector<RemoteShard*> out;
  if (auto* sharded = dynamic_cast<ShardedSampledLayer*>(&layer)) {
    for (int s = 0; s < sharded->shards(); ++s) {
      if (auto* remote = dynamic_cast<RemoteShard*>(&sharded->shard_layer(s)))
        out.push_back(remote);
    }
  }
  return out;
}

std::vector<const RemoteShard*> remote_shards(const Layer& layer) {
  const std::vector<RemoteShard*> shards =
      remote_shards(const_cast<Layer&>(layer));
  return {shards.begin(), shards.end()};
}

WireCounters wire_counters(const Layer& layer) {
  WireCounters total{};
  for (const RemoteShard* shard : remote_shards(layer)) {
    const WireCounters wc = shard->wire_counters();
    total.bytes_sent += wc.bytes_sent;
    total.bytes_received += wc.bytes_received;
    total.frames_sent += wc.frames_sent;
    total.frames_received += wc.frames_received;
  }
  return total;
}

int unhealthy_shards(const Layer& layer) {
  const std::vector<const RemoteShard*> shards = remote_shards(layer);
  return static_cast<int>(std::count_if(
      shards.begin(), shards.end(),
      [](const RemoteShard* shard) { return !shard->healthy(); }));
}

void checkpoint_shards(Layer& layer, const std::string& base) {
  for (RemoteShard* shard : remote_shards(layer)) shard->checkpoint(base);
}

void shutdown_workers(Layer& layer) {
  for (RemoteShard* shard : remote_shards(layer)) shard->shutdown_worker();
}

}  // namespace slide::dist
