// Coordinator-side RPC client for one shard worker.
//
// A ShardClient owns the transport to one worker and serializes whole
// request/response exchanges behind a mutex (the transports are one
// in-flight frame per direction by design — see dist/transport.h).
//
// Failure model (the "degrade, don't hang" satellite):
//   * Every recv carries a timeout. On expiry the client RE-WAITS up to
//     `recv_retries` more slices — the request was sent exactly once, so a
//     late response is still matched to it and the stream never desyncs
//     (re-SENDING after a timeout would double-execute non-idempotent
//     RPCs).
//   * When the retries are exhausted, or the transport errors, the client
//     marks itself unhealthy and closes: every later call fails fast with
//     TransportClosed. Its RemoteShard then contributes no inference
//     candidates (degraded mode, surfaced through engine stats) and
//     propagates the error for training (silently dropping a shard's
//     gradients would corrupt the model).
//   * A worker-side slide::Error arrives as kErrorResp and is rethrown
//     as slide::Error with the remote message; the client stays healthy —
//     the worker answered, the request was just bad.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "dist/protocol.h"
#include "dist/transport.h"

namespace slide::dist {

struct ClientConfig {
  /// Dial budget: how long connect() keeps retrying (workers may come up
  /// after the coordinator).
  int connect_timeout_ms = 10000;
  /// Per-wait receive budget of one RPC.
  int rpc_timeout_ms = 30000;
  /// Extra recv waits after the first timeout before declaring the worker
  /// unresponsive.
  int recv_retries = 1;
};

class ShardClient {
 public:
  ShardClient(std::string endpoint, const ClientConfig& config);
  ~ShardClient();

  /// Dials and handshakes (kHello / kHelloOk). Throws VersionMismatch if
  /// the worker speaks another protocol version.
  void connect();

  /// One RPC exchange: send `request`, receive and validate a frame of type
  /// `expect`. kErrorResp becomes slide::Error. Transport failures mark the
  /// client unhealthy and rethrow.
  Frame call(const Frame& request, MsgType expect);

  /// Fails fast when the worker was declared unresponsive/gone.
  bool healthy() const noexcept {
    return healthy_.load(std::memory_order_acquire);
  }

  /// Sends kShutdown (best effort — a dead worker is already shut down).
  void shutdown_worker() noexcept;

  /// Closes the transport and marks unhealthy (no reconnect: the worker's
  /// shard state lives in its process).
  void close() noexcept;

  const std::string& endpoint() const noexcept { return endpoint_; }

  /// Cumulative wire traffic of this client's transport.
  WireCounters counters() const noexcept;

 private:
  void mark_unhealthy() noexcept;

  std::string endpoint_;
  ClientConfig config_;
  mutable std::mutex mutex_;
  std::unique_ptr<Transport> transport_;
  std::atomic<bool> healthy_{false};
  /// Counters survive transport teardown so stats stay monotonic.
  WireCounters retired_{};
};

}  // namespace slide::dist
