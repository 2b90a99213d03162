#include "dist/protocol.h"

namespace slide::dist {

namespace {

Frame begin_frame(MsgType type) {
  Frame f;
  f.type = static_cast<std::uint8_t>(type);
  return f;
}

PayloadReader open_payload(const Frame& f, MsgType expected) {
  if (msg_type_of(f) != expected)
    throw FrameError(FrameErrorKind::kBadFormat,
                     std::string("expected ") + to_string(expected) +
                         ", got " + to_string(msg_type_of(f)));
  return PayloadReader({f.payload.data(), f.payload.size()});
}

template <typename Enum>
Enum read_enum(PayloadReader& r, std::uint8_t max_value, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > max_value)
    throw FrameError(FrameErrorKind::kBadFormat,
                     std::string("bad ") + what + " value");
  return static_cast<Enum>(v);
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloOk: return "HelloOk";
    case MsgType::kInitShard: return "InitShard";
    case MsgType::kForwardActive: return "ForwardActive";
    case MsgType::kForwardResp: return "ForwardResp";
    case MsgType::kBackwardScatter: return "BackwardScatter";
    case MsgType::kBackwardResp: return "BackwardResp";
    case MsgType::kApplyUpdates: return "ApplyUpdates";
    case MsgType::kMaybeRebuild: return "MaybeRebuild";
    case MsgType::kMaybeRebuildResp: return "MaybeRebuildResp";
    case MsgType::kRebuildTables: return "RebuildTables";
    case MsgType::kQuiesce: return "Quiesce";
    case MsgType::kFlushMaintenance: return "FlushMaintenance";
    case MsgType::kRefreshMirror: return "RefreshMirror";
    case MsgType::kSetUseLocks: return "SetUseLocks";
    case MsgType::kQueryTopk: return "QueryTopk";
    case MsgType::kQueryTopkResp: return "QueryTopkResp";
    case MsgType::kCheckpointShard: return "CheckpointShard";
    case MsgType::kFetchShard: return "FetchShard";
    case MsgType::kFetchShardResp: return "FetchShardResp";
    case MsgType::kStats: return "Stats";
    case MsgType::kStatsResp: return "StatsResp";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kAck: return "Ack";
    case MsgType::kErrorResp: return "ErrorResp";
    case MsgType::kSetShardWeights: return "SetShardWeights";
    case MsgType::kAddUnits: return "AddUnits";
    case MsgType::kRetireUnits: return "RetireUnits";
  }
  return "?";
}

MsgType msg_type_of(const Frame& frame) {
  if (frame.type < static_cast<std::uint8_t>(MsgType::kHello) ||
      frame.type > static_cast<std::uint8_t>(MsgType::kRetireUnits))
    throw FrameError(FrameErrorKind::kBadFormat,
                     "unknown message type " + std::to_string(frame.type));
  return static_cast<MsgType>(frame.type);
}

Frame make_frame(MsgType type) { return begin_frame(type); }

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

void write_rng_state(PayloadWriter& w, const Rng::State& st) {
  for (std::uint64_t word : st.s) w.u64(word);
  w.f32(st.cached);
  w.u8(st.has_cached ? 1 : 0);
}

Rng::State read_rng_state(PayloadReader& r) {
  Rng::State st{};
  for (std::uint64_t& word : st.s) word = r.u64();
  st.cached = r.f32();
  st.has_cached = r.u8() != 0;
  return st;
}

void write_layer_config(PayloadWriter& w, const SampledLayer::Config& c) {
  w.u32(c.units);
  w.u32(c.fan_in);
  w.u8(static_cast<std::uint8_t>(c.activation));
  w.u8(c.hashed ? 1 : 0);
  w.u8(c.random_sampled ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(c.family.kind));
  w.u32(static_cast<std::uint32_t>(c.family.k));
  w.u32(static_cast<std::uint32_t>(c.family.l));
  w.u32(c.family.dim);
  w.f64(c.family.simhash_density);
  w.u32(static_cast<std::uint32_t>(c.family.bin_size));
  w.u64(c.family.seed);
  w.u32(static_cast<std::uint32_t>(c.table.range_pow));
  w.u32(static_cast<std::uint32_t>(c.table.bucket_size));
  w.u8(static_cast<std::uint8_t>(c.table.policy));
  w.u8(static_cast<std::uint8_t>(c.sampling.strategy));
  w.u32(c.sampling.target);
  w.u32(static_cast<std::uint32_t>(c.sampling.hard_threshold_m));
  w.u32(c.sampling.inference_budget);
  w.u8(c.rebuild.enabled ? 1 : 0);
  w.i64(c.rebuild.initial_period);
  w.f64(c.rebuild.decay);
  w.u8(static_cast<std::uint8_t>(c.maintenance));
  w.u8(c.fill_random_to_target ? 1 : 0);
  w.f32(c.init_stddev);
  w.f32(c.adam.beta1);
  w.f32(c.adam.beta2);
  w.f32(c.adam.epsilon);
  w.u8(static_cast<std::uint8_t>(c.precision));
  w.u64(c.seed);
  w.u32(c.sampling.escalation_floor);
}

SampledLayer::Config read_layer_config(PayloadReader& r) {
  SampledLayer::Config c;
  c.units = r.u32();
  c.fan_in = r.u32();
  c.activation = read_enum<Activation>(
      r, static_cast<std::uint8_t>(Activation::kLinear), "activation");
  c.hashed = r.u8() != 0;
  c.random_sampled = r.u8() != 0;
  c.family.kind = read_enum<HashFamilyKind>(
      r, static_cast<std::uint8_t>(HashFamilyKind::kDwta), "hash family");
  c.family.k = static_cast<int>(r.u32());
  c.family.l = static_cast<int>(r.u32());
  c.family.dim = r.u32();
  c.family.simhash_density = r.f64();
  c.family.bin_size = static_cast<int>(r.u32());
  c.family.seed = r.u64();
  c.table.range_pow = static_cast<int>(r.u32());
  c.table.bucket_size = static_cast<int>(r.u32());
  c.table.policy = read_enum<InsertionPolicy>(
      r, static_cast<std::uint8_t>(InsertionPolicy::kFifo), "insert policy");
  c.sampling.strategy = read_enum<SamplingStrategy>(
      r, static_cast<std::uint8_t>(SamplingStrategy::kHardThreshold),
      "sampling strategy");
  c.sampling.target = r.u32();
  c.sampling.hard_threshold_m = static_cast<int>(r.u32());
  c.sampling.inference_budget = r.u32();
  c.rebuild.enabled = r.u8() != 0;
  c.rebuild.initial_period = r.i64();
  c.rebuild.decay = r.f64();
  c.maintenance = read_enum<MaintenancePolicy>(
      r, static_cast<std::uint8_t>(MaintenancePolicy::kAsyncFull),
      "maintenance policy");
  c.fill_random_to_target = r.u8() != 0;
  c.init_stddev = r.f32();
  c.adam.beta1 = r.f32();
  c.adam.beta2 = r.f32();
  c.adam.epsilon = r.f32();
  c.precision = precision_from_tag(r.u8());
  c.seed = r.u64();
  c.sampling.escalation_floor = r.u32();
  return c;
}

// ---------------------------------------------------------------------------
// WireActiveSet
// ---------------------------------------------------------------------------

WireActiveSet WireActiveSet::capture(const ActiveSet& prev) {
  WireActiveSet ws;
  if (prev.dense()) {
    // Dense set: ship only the nonzeros (post-ReLU activations are mostly
    // zero); reconstruct() restores the exact dense vector.
    ws.dense_width = prev.dense_width;
    for (Index i = 0; i < prev.dense_width; ++i) {
      const float v = prev.act[i];
      if (v != 0.0f) {
        ws.ids.push_back(i);
        ws.act.push_back(v);
      }
    }
  } else {
    ws.dense_width = 0;
    ws.ids = prev.ids;
    ws.act.assign(prev.act.begin(),
                  prev.act.begin() +
                      static_cast<std::ptrdiff_t>(prev.ids.size()));
  }
  return ws;
}

void WireActiveSet::reconstruct(ActiveSet& out) const {
  if (dense_width > 0) {
    out.ids.clear();
    out.dense_width = dense_width;
    out.act.assign(dense_width, 0.0f);
    out.err.assign(dense_width, 0.0f);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= dense_width)
        throw FrameError(FrameErrorKind::kBadFormat,
                         "active-set index exceeds dense width");
      out.act[ids[i]] = act[i];
    }
  } else {
    out.dense_width = 0;
    out.ids.assign(ids.begin(), ids.end());
    out.act.assign(act.begin(), act.end());
    out.err.assign(ids.size(), 0.0f);
  }
}

void WireActiveSet::write(PayloadWriter& w) const {
  w.u32(dense_width);
  w.indices({ids.data(), ids.size()});
  w.floats({act.data(), act.size()});
}

void WireActiveSet::read(PayloadReader& r) {
  dense_width = r.u32();
  r.indices(ids);
  r.floats(act);
  if (ids.size() != act.size())
    throw FrameError(FrameErrorKind::kBadFormat,
                     "active-set id/value run length mismatch");
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

Frame HelloMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kHello);
  PayloadWriter w(f.payload);
  w.u32(version);
  return f;
}

HelloMsg HelloMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kHello);
  HelloMsg m;
  m.version = r.u32();
  return m;
}

Frame InitShardMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kInitShard);
  PayloadWriter w(f.payload);
  w.u32(static_cast<std::uint32_t>(shard_index));
  w.u32(static_cast<std::uint32_t>(num_shards));
  w.u32(row_offset);
  w.u32(global_units);
  w.u32(static_cast<std::uint32_t>(batch_slots));
  write_layer_config(w, config);
  w.str(checkpoint_path);
  return f;
}

InitShardMsg InitShardMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kInitShard);
  InitShardMsg m;
  m.shard_index = static_cast<std::int32_t>(r.u32());
  m.num_shards = static_cast<std::int32_t>(r.u32());
  m.row_offset = r.u32();
  m.global_units = r.u32();
  m.batch_slots = static_cast<std::int32_t>(r.u32());
  m.config = read_layer_config(r);
  m.checkpoint_path = r.str();
  return m;
}

Frame ForwardMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kForwardActive);
  PayloadWriter w(f.payload);
  w.u32(static_cast<std::uint32_t>(slot));
  write_rng_state(w, rng);
  w.indices({forced_local.data(), forced_local.size()});
  prev.write(w);
  return f;
}

ForwardMsg ForwardMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kForwardActive);
  ForwardMsg m;
  m.slot = static_cast<std::int32_t>(r.u32());
  m.rng = read_rng_state(r);
  r.indices(m.forced_local);
  m.prev.read(r);
  return m;
}

Frame ForwardResp::to_frame() const {
  Frame f = begin_frame(MsgType::kForwardResp);
  PayloadWriter w(f.payload);
  write_rng_state(w, rng);
  w.indices({ids.data(), ids.size()});
  w.floats({act.data(), act.size()});
  return f;
}

ForwardResp ForwardResp::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kForwardResp);
  ForwardResp m;
  m.rng = read_rng_state(r);
  r.indices(m.ids);
  r.floats(m.act);
  if (m.ids.size() != m.act.size())
    throw FrameError(FrameErrorKind::kBadFormat,
                     "forward response id/act length mismatch");
  return m;
}

Frame BackwardMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kBackwardScatter);
  PayloadWriter w(f.payload);
  w.u32(static_cast<std::uint32_t>(slot));
  w.floats({err.data(), err.size()});
  w.floats({prev_err.data(), prev_err.size()});
  return f;
}

BackwardMsg BackwardMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kBackwardScatter);
  BackwardMsg m;
  m.slot = static_cast<std::int32_t>(r.u32());
  r.floats(m.err);
  r.floats(m.prev_err);
  return m;
}

Frame BackwardResp::to_frame() const {
  Frame f = begin_frame(MsgType::kBackwardResp);
  PayloadWriter w(f.payload);
  w.floats({prev_err.data(), prev_err.size()});
  return f;
}

BackwardResp BackwardResp::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kBackwardResp);
  BackwardResp m;
  r.floats(m.prev_err);
  return m;
}

Frame ApplyUpdatesMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kApplyUpdates);
  PayloadWriter w(f.payload);
  w.f32(lr);
  return f;
}

ApplyUpdatesMsg ApplyUpdatesMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kApplyUpdates);
  ApplyUpdatesMsg m;
  m.lr = r.f32();
  return m;
}

Frame MaybeRebuildMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kMaybeRebuild);
  PayloadWriter w(f.payload);
  w.i64(iteration);
  return f;
}

MaybeRebuildMsg MaybeRebuildMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kMaybeRebuild);
  MaybeRebuildMsg m;
  m.iteration = r.i64();
  return m;
}

Frame MaybeRebuildResp::to_frame() const {
  Frame f = begin_frame(MsgType::kMaybeRebuildResp);
  PayloadWriter w(f.payload);
  w.u8(fired ? 1 : 0);
  return f;
}

MaybeRebuildResp MaybeRebuildResp::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kMaybeRebuildResp);
  MaybeRebuildResp m;
  m.fired = r.u8() != 0;
  return m;
}

Frame SetUseLocksMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kSetUseLocks);
  PayloadWriter w(f.payload);
  w.u8(locks ? 1 : 0);
  return f;
}

SetUseLocksMsg SetUseLocksMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kSetUseLocks);
  SetUseLocksMsg m;
  m.locks = r.u8() != 0;
  return m;
}

Frame QueryTopkMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kQueryTopk);
  PayloadWriter w(f.payload);
  write_rng_state(w, rng);
  w.u8(exact ? 1 : 0);
  w.u32(budget);
  prev.write(w);
  return f;
}

QueryTopkMsg QueryTopkMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kQueryTopk);
  QueryTopkMsg m;
  m.rng = read_rng_state(r);
  m.exact = r.u8() != 0;
  m.budget = r.u32();
  m.prev.read(r);
  return m;
}

Frame QueryTopkResp::to_frame() const {
  Frame f = begin_frame(MsgType::kQueryTopkResp);
  PayloadWriter w(f.payload);
  write_rng_state(w, rng);
  w.indices({ids.data(), ids.size()});
  w.floats({act.data(), act.size()});
  return f;
}

QueryTopkResp QueryTopkResp::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kQueryTopkResp);
  QueryTopkResp m;
  m.rng = read_rng_state(r);
  r.indices(m.ids);
  r.floats(m.act);
  if (m.ids.size() != m.act.size())
    throw FrameError(FrameErrorKind::kBadFormat,
                     "topk response id/act length mismatch");
  return m;
}

Frame CheckpointShardMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kCheckpointShard);
  PayloadWriter w(f.payload);
  w.str(path);
  return f;
}

CheckpointShardMsg CheckpointShardMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kCheckpointShard);
  CheckpointShardMsg m;
  m.path = r.str();
  return m;
}

Frame FetchShardResp::to_frame() const {
  Frame f = begin_frame(MsgType::kFetchShardResp);
  PayloadWriter w(f.payload);
  w.u32(row_offset);
  w.u32(rows);
  w.u32(fan_in);
  w.floats({weights.data(), weights.size()});
  w.floats({bias.data(), bias.size()});
  return f;
}

FetchShardResp FetchShardResp::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kFetchShardResp);
  FetchShardResp m;
  m.row_offset = r.u32();
  m.rows = r.u32();
  m.fan_in = r.u32();
  r.floats(m.weights);
  r.floats(m.bias);
  if (m.weights.size() !=
          static_cast<std::size_t>(m.rows) * m.fan_in ||
      m.bias.size() != m.rows)
    throw FrameError(FrameErrorKind::kBadFormat,
                     "shard block sizes do not match its shape");
  return m;
}

Frame StatsResp::to_frame() const {
  Frame f = begin_frame(MsgType::kStatsResp);
  PayloadWriter w(f.payload);
  w.f64(active_fraction);
  w.f64(sampling_seconds);
  w.f64(compute_seconds);
  w.i64(rebuild_count);
  return f;
}

StatsResp StatsResp::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kStatsResp);
  StatsResp m;
  m.active_fraction = r.f64();
  m.sampling_seconds = r.f64();
  m.compute_seconds = r.f64();
  m.rebuild_count = r.i64();
  return m;
}

Frame SetShardWeightsMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kSetShardWeights);
  PayloadWriter w(f.payload);
  w.floats({weights.data(), weights.size()});
  w.floats({bias.data(), bias.size()});
  return f;
}

SetShardWeightsMsg SetShardWeightsMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kSetShardWeights);
  SetShardWeightsMsg m;
  r.floats(m.weights);
  r.floats(m.bias);
  return m;
}

Frame AddUnitsMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kAddUnits);
  PayloadWriter w(f.payload);
  w.u32(count);
  return f;
}

AddUnitsMsg AddUnitsMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kAddUnits);
  AddUnitsMsg m;
  m.count = r.u32();
  return m;
}

Frame RetireUnitsMsg::to_frame() const {
  Frame f = begin_frame(MsgType::kRetireUnits);
  PayloadWriter w(f.payload);
  w.indices({local_ids.data(), local_ids.size()});
  return f;
}

RetireUnitsMsg RetireUnitsMsg::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kRetireUnits);
  RetireUnitsMsg m;
  r.indices(m.local_ids);
  return m;
}

Frame ErrorResp::to_frame() const {
  Frame f = begin_frame(MsgType::kErrorResp);
  PayloadWriter w(f.payload);
  w.str(message);
  return f;
}

ErrorResp ErrorResp::from_frame(const Frame& f) {
  PayloadReader r = open_payload(f, MsgType::kErrorResp);
  ErrorResp m;
  m.message = r.str();
  return m;
}

}  // namespace slide::dist
