// Shard worker: the process-side owner of one output-layer shard.
//
// A ShardWorker answers the dist/protocol.h RPCs over one connected
// Transport. After kInitShard it owns a full SampledLayer — its own weight
// block, MaintainedTables, Adam state, bf16 mirror —
// constructed from the per-shard config the coordinator derived (see
// derive_shard_config), optionally booted from a per-shard checkpoint file
// (core/serialize.h shard files).
//
// The worker is single-threaded by design: requests arrive strictly in
// order on one transport and are answered in order, which is exactly what
// the bit-exactness contract of the protocol requires (sequential RNG
// stream, sequential backward fold). The layer's own background
// maintenance thread (async policies) still runs concurrently, same as
// in-process.
//
// Errors: any slide::Error thrown while handling a request is returned to
// the coordinator as kErrorResp and the worker keeps serving; transport
// errors end the serve loop.
//
// Deployment shapes:
//   * tools/slide_worker — standalone process (`slide_worker --listen
//     tcp::0`), one worker per shard, used by the CI multi-process smoke
//     job and real clusters.
//   * InProcessWorker — a worker on a background thread of the coordinator
//     process, used by tests, examples, and single-host serving
//     (`serve_cli --dist N`).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/layer.h"
#include "dist/protocol.h"
#include "dist/transport.h"

namespace slide::dist {

class ShardWorker {
 public:
  /// Takes ownership of a connected transport (the coordinator's side of
  /// the RPC pair is dist/client.h).
  explicit ShardWorker(std::unique_ptr<Transport> transport);
  ~ShardWorker();

  /// Why the serve loop ended.
  enum class ExitReason { kShutdown, kPeerClosed };

  /// Answers RPCs until kShutdown (acked first) or the peer disappears.
  /// Frame/payload corruption is answered with kErrorResp; transport
  /// errors end the loop.
  ExitReason serve();

  /// The shard layer (null before kInitShard). Test/diagnostic access.
  const SampledLayer* layer() const noexcept { return layer_.get(); }

 private:
  Frame dispatch(const Frame& request);

  Frame handle_init(const Frame& f);
  Frame handle_forward(const Frame& f);
  Frame handle_backward(const Frame& f);
  Frame handle_query_topk(const Frame& f);
  Frame handle_checkpoint(const Frame& f);
  Frame handle_fetch() const;
  Frame handle_stats() const;

  SampledLayer& layer_checked();
  const SampledLayer& layer_checked() const;

  std::unique_ptr<Transport> transport_;
  std::unique_ptr<SampledLayer> layer_;
  std::unique_ptr<VisitedSet> visited_;
  Rng rng_{1};  // state injected per request (coordinator round-trip)

  // Topology from kInitShard (identity for checkpoint_shard files).
  std::int32_t shard_index_ = 0;
  std::int32_t num_shards_ = 1;
  Index row_offset_ = 0;
  Index global_units_ = 0;

  /// Per-slot previous-layer active sets reconstructed by kForwardActive
  /// and reused by kBackwardScatter (the wire never resends prev.act).
  std::vector<ActiveSet> prev_slots_;
  /// Scratch prev set + candidate buffers for kQueryTopk.
  ActiveSet query_prev_;
  std::vector<Index> query_ids_;
  std::vector<float> query_act_;
};

/// A shard worker running on a background thread of this process: owns the
/// listener, accepts exactly one coordinator connection, serves it to
/// completion. Tests, examples, and `serve_cli --dist` use this to get
/// worker processes' semantics without process management.
class InProcessWorker {
 public:
  /// Binds `endpoint` ("tcp:127.0.0.1:0" for an ephemeral port, or
  /// "shm:<path>") and starts serving on a background thread.
  explicit InProcessWorker(const std::string& endpoint);
  ~InProcessWorker();

  /// The dialable endpoint (with the kernel-assigned port resolved).
  const std::string& endpoint() const noexcept { return endpoint_; }

  /// Closes the listener/transport and joins the thread. Idempotent.
  void stop();

 private:
  std::unique_ptr<Listener> listener_;
  std::string endpoint_;
  std::thread thread_;
  /// The transport being served, for stop() to close; guarded by mutex_
  /// (set/cleared by the serve thread, read by stop()).
  std::mutex mutex_;
  Transport* active_ = nullptr;
};

}  // namespace slide::dist
