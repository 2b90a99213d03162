#include "dist/client.h"

namespace slide::dist {

ShardClient::ShardClient(std::string endpoint, const ClientConfig& config)
    : endpoint_(std::move(endpoint)), config_(config) {}

ShardClient::~ShardClient() { close(); }

void ShardClient::connect() {
  std::lock_guard lock(mutex_);
  SLIDE_CHECK(transport_ == nullptr, "ShardClient: already connected");
  transport_ = connect_endpoint(endpoint_, config_.connect_timeout_ms);
  Frame hello = HelloMsg{}.to_frame();
  transport_->send(hello);
  const Frame resp = transport_->recv(config_.rpc_timeout_ms);
  // A worker refuses a well-formed kHello only over its version.
  if (msg_type_of(resp) == MsgType::kErrorResp)
    throw VersionMismatch("worker " + endpoint_ + " rejected handshake: " +
                          ErrorResp::from_frame(resp).message);
  SLIDE_CHECK(msg_type_of(resp) == MsgType::kHelloOk,
              "ShardClient: unexpected handshake response");
  PayloadReader r({resp.payload.data(), resp.payload.size()});
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion)
    throw VersionMismatch("ShardClient: worker speaks protocol version " +
                          std::to_string(version) + ", expected " +
                          std::to_string(kProtocolVersion));
  healthy_.store(true, std::memory_order_release);
}

Frame ShardClient::call(const Frame& request, MsgType expect) {
  std::lock_guard lock(mutex_);
  if (!healthy_.load(std::memory_order_acquire) || transport_ == nullptr)
    throw TransportClosed("shard " + endpoint_ + " is unhealthy");
  try {
    transport_->send(request);
    // The request went out exactly once. A timeout below only means "no
    // response yet" — re-wait up to recv_retries more slices so a slow
    // worker (long rebuild, GC of the box it runs on) degrades into
    // latency, not into a desynced stream or a double-executed RPC.
    Frame response;
    for (int attempt = 0;; ++attempt) {
      try {
        response = transport_->recv(config_.rpc_timeout_ms);
        break;
      } catch (const TransportTimeout&) {
        if (attempt >= config_.recv_retries) throw;
      }
    }
    if (msg_type_of(response) == MsgType::kErrorResp)
      throw Error("worker " + endpoint_ + ": " +
                  ErrorResp::from_frame(response).message);
    if (msg_type_of(response) != expect)
      throw FrameError(FrameErrorKind::kBadFormat,
                       std::string("expected ") + to_string(expect) +
                           " from " + endpoint_ + ", got " +
                           to_string(msg_type_of(response)));
    return response;
  } catch (const TransportError&) {
    mark_unhealthy();
    throw;
  } catch (const FrameError&) {
    mark_unhealthy();  // corrupt peer: stream can no longer be trusted
    throw;
  }
}

void ShardClient::shutdown_worker() noexcept {
  try {
    call(make_frame(MsgType::kShutdown), MsgType::kAck);
  } catch (const Error&) {
    // Best effort: a dead worker is already shut down.
  }
  close();
}

void ShardClient::close() noexcept {
  std::lock_guard lock(mutex_);
  healthy_.store(false, std::memory_order_release);
  if (transport_ != nullptr) {
    const WireCounters c = transport_->counters();
    retired_.bytes_sent += c.bytes_sent;
    retired_.bytes_received += c.bytes_received;
    retired_.frames_sent += c.frames_sent;
    retired_.frames_received += c.frames_received;
    transport_->close();
    transport_.reset();
  }
}

void ShardClient::mark_unhealthy() noexcept {
  healthy_.store(false, std::memory_order_release);
  if (transport_ != nullptr) transport_->close();
}

WireCounters ShardClient::counters() const noexcept {
  std::lock_guard lock(mutex_);
  WireCounters total = retired_;
  if (transport_ != nullptr) {
    const WireCounters c = transport_->counters();
    total.bytes_sent += c.bytes_sent;
    total.bytes_received += c.bytes_received;
    total.frames_sent += c.frames_sent;
    total.frames_received += c.frames_received;
  }
  return total;
}

}  // namespace slide::dist
