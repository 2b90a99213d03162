// Raw-socket HTTP client for the tests that scrape a MetricsServer.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>

namespace slide::test_http {

/// A socket connected to 127.0.0.1:`port`, or -1. The caller closes it.
inline int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One GET of /metrics on 127.0.0.1:`port`: everything the server sends
/// until it closes the connection (Connection: close ends the response),
/// or what arrived before `timeout_ms` ran out.
inline std::string scrape(int port, int timeout_ms = 5000) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const int fd = connect_local(port);
  if (fd < 0) return {};
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  std::string response;
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(request.size())) {
    char buf[4096];
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      pollfd pfd{fd, POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

}  // namespace slide::test_http
