#include "dist/transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "dist/shm_ring.h"

namespace slide::dist {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const char* what) {
  throw TransportError(std::string(what) + ": " + std::strerror(errno));
}

/// Remaining milliseconds of a deadline started `start` ago with budget
/// `timeout_ms` (< 0 = infinite). Returns -1 for infinite, throws on expiry.
int remaining_ms(Clock::time_point start, int timeout_ms, const char* what) {
  if (timeout_ms < 0) return -1;
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count();
  const long left = timeout_ms - static_cast<long>(elapsed);
  if (left <= 0) throw TransportTimeout(std::string(what) + ": timed out");
  return static_cast<int>(left);
}

struct ParsedEndpoint {
  std::string scheme;  // "tcp" | "shm"
  std::string host;    // tcp only
  int port = 0;        // tcp only
  std::string path;    // shm only
};

ParsedEndpoint parse_endpoint(const std::string& endpoint) {
  ParsedEndpoint p;
  const std::size_t colon = endpoint.find(':');
  SLIDE_CHECK(colon != std::string::npos,
              "endpoint must be tcp:<host>:<port> or shm:<path>");
  p.scheme = endpoint.substr(0, colon);
  const std::string rest = endpoint.substr(colon + 1);
  if (p.scheme == "tcp") {
    const std::size_t sep = rest.rfind(':');
    SLIDE_CHECK(sep != std::string::npos,
                "tcp endpoint must be tcp:<host>:<port>");
    p.host = rest.substr(0, sep);
    if (p.host.empty()) p.host = "0.0.0.0";
    try {
      p.port = std::stoi(rest.substr(sep + 1));
    } catch (const std::exception&) {
      throw Error("tcp endpoint has a non-numeric port: " + endpoint);
    }
    SLIDE_CHECK(p.port >= 0 && p.port <= 65535,
                "tcp endpoint port out of range");
  } else if (p.scheme == "shm") {
    SLIDE_CHECK(!rest.empty(), "shm endpoint must be shm:<path>");
    p.path = rest;
  } else {
    throw Error("unknown endpoint scheme '" + p.scheme +
                "' (expected tcp: or shm:)");
  }
  return p;
}

sockaddr_in resolve_ipv4(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr)
    throw TransportError("cannot resolve host '" + host +
                         "': " + gai_strerror(rc));
  addr.sin_addr =
      reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  freeaddrinfo(result);
  return addr;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(int fd) : fd_(fd) {
  SLIDE_CHECK(fd >= 0, "TcpTransport: invalid socket");
  set_nodelay(fd);
}

TcpTransport::~TcpTransport() {
  close();
  ::close(fd_);
}

void TcpTransport::close() {
  // Shut down, never close, here: a thread still in poll/recv on fd_ wakes
  // to end-of-stream, and the fd number cannot be handed to another socket
  // while it may still use it. The destructor closes it, once.
  if (!closed_.exchange(true, std::memory_order_acq_rel))
    ::shutdown(fd_, SHUT_RDWR);
}

void TcpTransport::send(const Frame& frame) {
  encode_frame(frame, send_buf_);
  const std::uint8_t* p = send_buf_.data();
  std::size_t left = send_buf_.size();
  while (left > 0) {
    if (closed_.load(std::memory_order_acquire))
      throw TransportClosed("tcp send: transport closed");
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET || errno == EBADF)
        throw TransportClosed("tcp send: peer closed");
      throw_errno("tcp send");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  count_sent(send_buf_.size());
}

void TcpTransport::read_exact(std::uint8_t* dst, std::size_t n,
                              int timeout_ms) {
  const auto start = Clock::now();
  std::size_t got = 0;
  while (got < n) {
    if (closed_.load(std::memory_order_acquire))
      throw TransportClosed("tcp recv: transport closed");
    pollfd pfd{fd_, POLLIN, 0};
    const int wait = remaining_ms(start, timeout_ms, "tcp recv");
    const int pr = ::poll(&pfd, 1, wait);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("tcp poll");
    }
    if (pr == 0) continue;  // loop re-checks the deadline
    const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
    if (r == 0) throw TransportClosed("tcp recv: peer closed");
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == ECONNRESET || errno == EBADF)
        throw TransportClosed("tcp recv: peer reset");
      throw_errno("tcp recv");
    }
    got += static_cast<std::size_t>(r);
  }
}

std::size_t TcpTransport::recv_raw(void* dst, std::size_t cap,
                                   int timeout_ms) {
  SLIDE_CHECK(cap > 0, "tcp recv_raw: zero-capacity buffer");
  const auto start = Clock::now();
  while (true) {
    if (closed_.load(std::memory_order_acquire))
      throw TransportClosed("tcp recv_raw: transport closed");
    pollfd pfd{fd_, POLLIN, 0};
    const int wait = remaining_ms(start, timeout_ms, "tcp recv_raw");
    const int pr = ::poll(&pfd, 1, wait);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("tcp poll");
    }
    if (pr == 0) continue;  // loop re-checks the deadline
    const ssize_t r = ::recv(fd_, dst, cap, 0);
    if (r == 0) throw TransportClosed("tcp recv_raw: peer closed");
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == ECONNRESET || errno == EBADF)
        throw TransportClosed("tcp recv_raw: peer reset");
      throw_errno("tcp recv_raw");
    }
    return static_cast<std::size_t>(r);
  }
}

void TcpTransport::send_raw(const void* data, std::size_t n) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t left = n;
  while (left > 0) {
    if (closed_.load(std::memory_order_acquire))
      throw TransportClosed("tcp send_raw: transport closed");
    const ssize_t w = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET || errno == EBADF)
        throw TransportClosed("tcp send_raw: peer closed");
      throw_errno("tcp send_raw");
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
}

Frame TcpTransport::recv(int timeout_ms) {
  std::uint8_t header[kFrameHeaderBytes];
  read_exact(header, kFrameHeaderBytes, timeout_ms);
  const FrameHeader h = decode_frame_header(header);
  std::vector<std::uint8_t> payload(h.length);
  if (h.length > 0) read_exact(payload.data(), h.length, timeout_ms);
  count_received(kFrameHeaderBytes + h.length);
  return assemble_frame(h, std::move(payload));
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("tcp listen socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve_ipv4(host.empty() ? "0.0.0.0" : host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("tcp bind");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    throw_errno("tcp listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  fd_ = fd;
}

TcpListener::~TcpListener() {
  close();
  ::close(fd_);
}

void TcpListener::close() {
  // Same contract as TcpTransport::close: shutting a listening socket down
  // wakes a concurrent poll/accept, and the fd stays ours until the
  // destructor.
  if (!closed_.exchange(true, std::memory_order_acq_rel))
    ::shutdown(fd_, SHUT_RDWR);
}

std::string TcpListener::endpoint() const {
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

std::unique_ptr<Transport> TcpListener::accept(int timeout_ms) {
  const auto start = Clock::now();
  while (true) {
    if (closed_.load(std::memory_order_acquire))
      throw TransportClosed("tcp accept: listener closed");
    pollfd pfd{fd_, POLLIN, 0};
    const int wait = remaining_ms(start, timeout_ms, "tcp accept");
    const int pr = ::poll(&pfd, 1, wait);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("tcp accept poll");
    }
    if (pr == 0) continue;
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == EBADF || errno == EINVAL)
        throw TransportClosed("tcp accept: listener closed");
      throw_errno("tcp accept");
    }
    return std::make_unique<TcpTransport>(conn);
  }
}

// ---------------------------------------------------------------------------
// Endpoint factory
// ---------------------------------------------------------------------------

std::unique_ptr<Transport> connect_endpoint(const std::string& endpoint,
                                            int timeout_ms) {
  const ParsedEndpoint p = parse_endpoint(endpoint);
  if (p.scheme == "shm") return shm_attach(p.path, /*server=*/false,
                                           timeout_ms);
  const auto start = Clock::now();
  const sockaddr_in addr =
      resolve_ipv4(p.host == "0.0.0.0" ? "127.0.0.1" : p.host, p.port);
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("tcp connect socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return std::make_unique<TcpTransport>(fd);
    ::close(fd);
    // Workers may come up after the coordinator: retry until the deadline.
    remaining_ms(start, timeout_ms, ("connect " + endpoint).c_str());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::unique_ptr<Listener> listen_endpoint(const std::string& endpoint) {
  const ParsedEndpoint p = parse_endpoint(endpoint);
  if (p.scheme == "shm") return std::make_unique<ShmListener>(p.path);
  return std::make_unique<TcpListener>(p.host, p.port);
}

}  // namespace slide::dist
