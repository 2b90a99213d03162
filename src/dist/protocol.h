// RPC protocol between the coordinator (one dist::RemoteShard per worker)
// and shard workers (ShardWorker), layered on dist/frame.h frames.
//
// One request frame -> one response frame, strictly in order per transport
// (the client serializes whole exchanges). The coordinator drives; workers
// only answer. Message catalog:
//
//   request            response            carries
//   kHello             kHelloOk            protocol version handshake
//   kInitShard         kAck                per-shard SampledLayer::Config +
//                                          topology (+ checkpoint to load)
//   kForwardActive     kForwardResp        RNG state + forced labels + prev
//                                          active set (sparse pairs) ->
//                                          shard-local actives + RNG state
//   kBackwardScatter   kBackwardResp       merged err segment + current
//                                          prev.err -> updated prev.err
//   kApplyUpdates      kAck                learning rate
//   kMaybeRebuild      kMaybeRebuildResp   iteration -> fired?
//   kRebuildTables     kAck
//   kQuiesce           kAck
//   kFlushMaintenance  kAck
//   kRefreshMirror     kAck
//   kSetUseLocks       kAck
//   kQueryTopk         kQueryTopkResp      inference candidates (budgeted)
//   kCheckpointShard   kAck                worker writes its shard file
//   kFetchShard        kFetchShardResp     weights + bias (tests, rescatter)
//   kSetShardWeights   kAck                coordinator pushes weights + bias
//                                          (checkpoint-v3 load path)
//   kStats             kStatsResp          shard diagnostics
//   kShutdown          kAck                worker exits its serve loop
//   any                kErrorResp          worker-side slide::Error text
//
// Bit-exactness contract (what makes 2 remote shards reproduce 2
// in-process shards bit for bit, pinned by tests/test_dist.cpp):
//   * kForwardActive / kQueryTopk round-trip the coordinator's Rng::State,
//     so the remote shard consumes the exact RNG stream the in-process
//     shard would have.
//   * The prev active set travels as sparse {index, value} pairs but is
//     reconstructed into its original dense/sparse shape before compute —
//     sparse on the wire, identical math in the shard.
//   * kBackwardScatter is a sequential fold: the request carries the
//     current prev.err, the worker accumulates its contributions in the
//     same loop order as the in-process shard, the response replaces
//     prev.err. Shard order is fixed, so FP rounding order is identical.
#pragma once

#include <string>
#include <vector>

#include "core/layer.h"
#include "dist/frame.h"
#include "sys/rng.h"

namespace slide::dist {

// Version history:
//   1 — initial release (PR 6).
//   2 — layer config gains retriever kind + HNSW knobs + escalation floor
//       (appended at the end of the config block).
//   3 — dynamic label lifecycle: kAddUnits grows a shard's unit rows in
//       place, kRetireUnits tombstones shard-local ids out of retrieval
//       (both answer kAck). Workers speaking v2 reject them as unknown.
//   4 — the async_delta maintenance policy is gone: the layer config's
//       policy byte admits sync | async_full only, and kStatsResp drops
//       its delta_reinserted count. Either side refuses a v3 peer at the
//       handshake with VersionMismatch.
//       Later v4 readers also refuse precision byte 2 (the removed fp16
//       tier) and a frame with a non-zero header byte 5 (the removed bf16
//       values flag, which RemoteShard never set), both as typed errors.
//   5 — the HNSW retriever and the per-layer retriever choice are gone:
//       the layer config drops the retriever byte and the three HNSW
//       words, so escalation_floor follows the seed directly. Either side
//       refuses a v4 peer at the handshake with VersionMismatch.
//   6 — the WTA and DOPH families and the incremental-rehash memo are
//       gone: the layer config drops the doph_top_k word and the
//       incremental_rehash byte, and its family byte admits simhash (0) |
//       dwta (1) only (any other value is FrameError kBadFormat). DWTA's
//       byte was 2 in v5. Either side refuses a v5 peer at the handshake
//       with VersionMismatch.
inline constexpr std::uint32_t kProtocolVersion = 6;

/// The peer speaks another protocol version. Thrown by the handshake on
/// either side: by ShardClient::connect, and by the worker (which answers
/// the refused kHello with kErrorResp).
class VersionMismatch : public Error {
 public:
  using Error::Error;
};

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kInitShard = 3,
  kForwardActive = 4,
  kForwardResp = 5,
  kBackwardScatter = 6,
  kBackwardResp = 7,
  kApplyUpdates = 8,
  kMaybeRebuild = 9,
  kMaybeRebuildResp = 10,
  kRebuildTables = 11,
  kQuiesce = 12,
  kFlushMaintenance = 13,
  kRefreshMirror = 14,
  kSetUseLocks = 15,
  kQueryTopk = 16,
  kQueryTopkResp = 17,
  kCheckpointShard = 18,
  kFetchShard = 19,
  kFetchShardResp = 20,
  kStats = 21,
  kStatsResp = 22,
  kShutdown = 23,
  kAck = 24,
  kErrorResp = 25,
  kSetShardWeights = 26,
  kAddUnits = 27,
  kRetireUnits = 28,
};

const char* to_string(MsgType type);

/// Frame type byte -> MsgType with validation (kBadFormat on unknown).
MsgType msg_type_of(const Frame& frame);

/// An empty-payload frame of the given type (kAck, kQuiesce, ...).
Frame make_frame(MsgType type);

// ---------------------------------------------------------------------------
// Field codecs shared by the message structs
// ---------------------------------------------------------------------------

void write_rng_state(PayloadWriter& w, const Rng::State& st);
Rng::State read_rng_state(PayloadReader& r);

void write_layer_config(PayloadWriter& w, const SampledLayer::Config& c);
SampledLayer::Config read_layer_config(PayloadReader& r);

/// The previous layer's active set as it crosses the wire: sparse
/// {index, value} pairs plus the dense width needed to reconstruct the
/// original shape (dense_width > 0 means "dense set of that width; the
/// pairs are its nonzeros").
struct WireActiveSet {
  Index dense_width = 0;
  std::vector<Index> ids;
  std::vector<float> act;

  /// Captures `prev` for the wire, dropping zeros of a dense set.
  static WireActiveSet capture(const ActiveSet& prev);
  /// Rebuilds the original dense/sparse shape into `out` (err zeroed).
  void reconstruct(ActiveSet& out) const;

  void write(PayloadWriter& w) const;
  void read(PayloadReader& r);
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;

  Frame to_frame() const;
  static HelloMsg from_frame(const Frame& f);
};

struct InitShardMsg {
  std::int32_t shard_index = 0;
  std::int32_t num_shards = 1;
  Index row_offset = 0;
  Index global_units = 0;
  std::int32_t batch_slots = 1;
  SampledLayer::Config config;  // the per-shard (already derived) config
  std::string checkpoint_path;  // non-empty: load weights from this file

  Frame to_frame() const;
  static InitShardMsg from_frame(const Frame& f);
};

struct ForwardMsg {
  std::int32_t slot = 0;
  Rng::State rng{};
  std::vector<Index> forced_local;
  WireActiveSet prev;

  Frame to_frame() const;
  static ForwardMsg from_frame(const Frame& f);
};

struct ForwardResp {
  Rng::State rng{};
  std::vector<Index> ids;  // shard-local active ids
  std::vector<float> act;

  Frame to_frame() const;
  static ForwardResp from_frame(const Frame& f);
};

struct BackwardMsg {
  std::int32_t slot = 0;
  std::vector<float> err;       // this shard's segment of the merged err
  std::vector<float> prev_err;  // current prev.err (dense over prev.size())

  Frame to_frame() const;
  static BackwardMsg from_frame(const Frame& f);
};

struct BackwardResp {
  std::vector<float> prev_err;  // updated prev.err, replaces the caller's

  Frame to_frame() const;
  static BackwardResp from_frame(const Frame& f);
};

struct ApplyUpdatesMsg {
  float lr = 0.0f;

  Frame to_frame() const;
  static ApplyUpdatesMsg from_frame(const Frame& f);
};

struct MaybeRebuildMsg {
  std::int64_t iteration = 0;

  Frame to_frame() const;
  static MaybeRebuildMsg from_frame(const Frame& f);
};

struct MaybeRebuildResp {
  bool fired = false;

  Frame to_frame() const;
  static MaybeRebuildResp from_frame(const Frame& f);
};

struct SetUseLocksMsg {
  bool locks = false;

  Frame to_frame() const;
  static SetUseLocksMsg from_frame(const Frame& f);
};

struct QueryTopkMsg {
  Rng::State rng{};
  bool exact = false;
  /// Candidate budget override for this query (satellite: global budget
  /// split across shards); 0 keeps the shard's configured target.
  Index budget = 0;
  WireActiveSet prev;

  Frame to_frame() const;
  static QueryTopkMsg from_frame(const Frame& f);
};

struct QueryTopkResp {
  Rng::State rng{};
  std::vector<Index> ids;  // shard-local candidates
  std::vector<float> act;

  Frame to_frame() const;
  static QueryTopkResp from_frame(const Frame& f);
};

struct CheckpointShardMsg {
  std::string path;

  Frame to_frame() const;
  static CheckpointShardMsg from_frame(const Frame& f);
};

struct FetchShardResp {
  Index row_offset = 0;
  Index rows = 0;
  Index fan_in = 0;
  std::vector<float> weights;  // [rows x fan_in]
  std::vector<float> bias;     // [rows]

  Frame to_frame() const;
  static FetchShardResp from_frame(const Frame& f);
};

/// Pushes full fp32 master weights into a worker's shard (the inverse of
/// kFetchShard): the coordinator's checkpoint-v3 load path rewrites worker
/// state with this. Masters round-trip exactly.
struct SetShardWeightsMsg {
  std::vector<float> weights;  // [rows x fan_in]
  std::vector<float> bias;     // [rows]

  Frame to_frame() const;
  static SetShardWeightsMsg from_frame(const Frame& f);
};

struct StatsResp {
  double active_fraction = 0.0;
  double sampling_seconds = 0.0;
  double compute_seconds = 0.0;
  std::int64_t rebuild_count = 0;

  Frame to_frame() const;
  static StatsResp from_frame(const Frame& f);
};

/// Grows the worker's shard by `count` unit rows (protocol v3; the
/// coordinator appends to the LAST shard so earlier row offsets stay
/// stable). The worker re-sizes its VisitedSet scratch for the wider
/// sampled universe before acking.
struct AddUnitsMsg {
  Index count = 0;

  Frame to_frame() const;
  static AddUnitsMsg from_frame(const Frame& f);
};

/// Tombstones shard-LOCAL unit ids out of the worker's retrieval and top-k
/// paths (protocol v3). Rows are masked, never compacted — global ids of
/// every other unit are unchanged.
struct RetireUnitsMsg {
  std::vector<Index> local_ids;

  Frame to_frame() const;
  static RetireUnitsMsg from_frame(const Frame& f);
};

struct ErrorResp {
  std::string message;

  Frame to_frame() const;
  static ErrorResp from_frame(const Frame& f);
};

}  // namespace slide::dist
