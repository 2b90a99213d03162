// Byte transports carrying dist/frame.h frames between the coordinator and
// shard workers.
//
// Two implementations, one contract:
//
//   TcpTransport      — POSIX stream sockets (loopback or cross-node),
//                       TCP_NODELAY, poll()-based receive timeouts.
//   ShmRingTransport  — same-host pair of SPSC shared-memory byte rings
//                       (dist/shm_ring.h); no syscalls on the data path.
//
// Endpoints are strings so configs and CLIs can name them uniformly:
//
//   "tcp:<host>:<port>"   connect_endpoint dials; listen_endpoint binds
//                         (host may be omitted on listen: "tcp::0" binds
//                         an ephemeral port on all interfaces).
//   "shm:<path>"          a file-backed shared-memory ring pair at <path>;
//                         listen_endpoint creates it, connect_endpoint
//                         attaches.
//
// Error taxonomy: TransportTimeout (peer slow — retryable), TransportClosed
// (peer gone — reconnect or degrade), TransportError (everything else).
// FrameError from the decode layer passes through untouched, so callers can
// distinguish a corrupt peer from a dead one.
//
// Thread-safety: one sender thread + one receiver thread per transport (the
// RPC clients serialize whole call/response exchanges behind a mutex). The
// byte counters are relaxed atomics so stats readers on other threads see
// sane values.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "dist/frame.h"

namespace slide::dist {

class TransportError : public Error {
 public:
  using Error::Error;
};

class TransportTimeout : public TransportError {
 public:
  using TransportError::TransportError;
};

class TransportClosed : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Monotonic wire counters of one transport (and, summed, of a client).
struct WireCounters {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocking send of one whole frame. Throws TransportClosed/-Error.
  virtual void send(const Frame& frame) = 0;

  /// Blocking receive of one whole frame. `timeout_ms` < 0 waits forever;
  /// expiry throws TransportTimeout, peer shutdown throws TransportClosed,
  /// corruption throws FrameError.
  virtual Frame recv(int timeout_ms) = 0;

  /// Makes concurrent and future recv/send calls fail fast with
  /// TransportClosed. Idempotent.
  virtual void close() = 0;

  virtual const char* kind() const noexcept = 0;

  WireCounters counters() const noexcept {
    return {bytes_sent_.load(std::memory_order_relaxed),
            bytes_received_.load(std::memory_order_relaxed),
            frames_sent_.load(std::memory_order_relaxed),
            frames_received_.load(std::memory_order_relaxed)};
  }

 protected:
  void count_sent(std::size_t bytes) noexcept {
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_received(std::size_t bytes) noexcept {
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
    frames_received_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
};

/// Server side of an endpoint: owns the listening resource, hands out one
/// connected Transport per accept.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Waits up to `timeout_ms` (< 0 = forever) for a peer; TransportTimeout
  /// on expiry, TransportClosed after close().
  virtual std::unique_ptr<Transport> accept(int timeout_ms) = 0;

  /// Unblocks a concurrent accept() with TransportClosed. Idempotent.
  virtual void close() = 0;

  /// The endpoint peers should dial — for "tcp::0" this carries the
  /// kernel-assigned port ("tcp:127.0.0.1:<port>").
  virtual std::string endpoint() const = 0;
};

// ---------------------------------------------------------------------------

class TcpTransport final : public Transport {
 public:
  /// Takes ownership of a connected socket fd.
  explicit TcpTransport(int fd);
  ~TcpTransport() override;

  void send(const Frame& frame) override;
  Frame recv(int timeout_ms) override;
  void close() override;
  const char* kind() const noexcept override { return "tcp"; }

  /// Raw-byte side door for non-frame protocols on a TCP socket (the
  /// metrics HTTP listener). Receives whatever is available, up to `cap`
  /// bytes; always returns >= 1 or throws (TransportTimeout on expiry,
  /// TransportClosed on peer shutdown). Raw bytes are not added to the
  /// frame wire counters — those meter the dist RPC protocol only.
  std::size_t recv_raw(void* dst, std::size_t cap, int timeout_ms);
  /// Blocking raw send of exactly `n` bytes. Throws TransportClosed/-Error.
  void send_raw(const void* data, std::size_t n);

 private:
  /// Reads exactly n bytes honoring the deadline accumulated so far.
  void read_exact(std::uint8_t* dst, std::size_t n, int timeout_ms);

  const int fd_;  // shut down by close(), closed by the destructor only
  std::atomic<bool> closed_{false};
  std::vector<std::uint8_t> send_buf_;
};

class TcpListener final : public Listener {
 public:
  /// Binds and listens; port 0 selects an ephemeral port.
  TcpListener(const std::string& host, int port);
  ~TcpListener() override;

  std::unique_ptr<Transport> accept(int timeout_ms) override;
  void close() override;
  std::string endpoint() const override;
  int port() const noexcept { return port_; }

 private:
  int fd_ = -1;  // shut down by close(), closed by the destructor only
  std::atomic<bool> closed_{false};
  int port_ = 0;
};

// ---------------------------------------------------------------------------

/// Dials an endpoint string ("tcp:host:port" or "shm:path"), retrying until
/// `timeout_ms` elapses (workers may come up after the coordinator).
std::unique_ptr<Transport> connect_endpoint(const std::string& endpoint,
                                            int timeout_ms = 5000);

/// Binds/creates the server side of an endpoint string.
std::unique_ptr<Listener> listen_endpoint(const std::string& endpoint);

}  // namespace slide::dist
