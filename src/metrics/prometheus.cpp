#include "metrics/prometheus.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "serve/engine.h"

namespace slide {

// ---------------------------------------------------------------------------
// PromWriter
// ---------------------------------------------------------------------------

std::string PromWriter::escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromWriter::escape_help(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromWriter::format_value(double value) {
  // Counters and gauges are overwhelmingly integral: render those without
  // scientific notation so the text stays greppable and lint-friendly.
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void PromWriter::family(const std::string& name, const std::string& help,
                        const std::string& type) {
  out_ += "# HELP " + name + " " + escape_help(help) + "\n";
  out_ += "# TYPE " + name + " " + type + "\n";
}

void PromWriter::sample(const std::string& name, const Labels& labels,
                        double value) {
  out_ += name;
  if (!labels.empty()) {
    out_ += '{';
    bool first = true;
    for (const auto& [key, val] : labels) {
      if (!first) out_ += ',';
      first = false;
      out_ += key + "=\"" + escape_label_value(val) + "\"";
    }
    out_ += '}';
  }
  out_ += ' ';
  out_ += format_value(value);
  out_ += '\n';
}

void PromWriter::histogram_us(const std::string& name, const Labels& labels,
                              const LatencyHistogram::Snapshot& snapshot) {
  // Collapse the 4-per-octave internal buckets to octave boundaries: the
  // upper bound of internal bucket 4o+3 is exactly 2^(o+1) microseconds.
  std::uint64_t cumulative = 0;
  Labels bucket_labels = labels;
  bucket_labels.emplace_back("le", "");
  for (int octave = 0; octave < LatencyHistogram::kOctaves; ++octave) {
    for (int sub = 0; sub < LatencyHistogram::kSubBuckets; ++sub) {
      cumulative += snapshot.counts[static_cast<std::size_t>(
          octave * LatencyHistogram::kSubBuckets + sub)];
    }
    const double upper_s =
        LatencyHistogram::bucket_upper_bound_us(
            octave * LatencyHistogram::kSubBuckets +
            LatencyHistogram::kSubBuckets - 1) *
        1e-6;
    bucket_labels.back().second = format_value(upper_s);
    sample(name + "_bucket", bucket_labels,
           static_cast<double>(cumulative));
  }
  bucket_labels.back().second = "+Inf";
  sample(name + "_bucket", bucket_labels, static_cast<double>(cumulative));
  // _count must equal the +Inf bucket for the scrape to be internally
  // consistent, so it is the summed bucket count — not the histogram's
  // separate total counter, which may be mid-update under concurrent
  // record() calls.
  sample(name + "_sum", labels, snapshot.sum_us * 1e-6);
  sample(name + "_count", labels, static_cast<double>(cumulative));
}

// ---------------------------------------------------------------------------
// render_prometheus
// ---------------------------------------------------------------------------

std::string render_prometheus(const ServeStats& stats) {
  PromWriter w;

  w.family("slide_serve_submitted_total", "Requests admitted to the queue",
           "counter");
  w.sample("slide_serve_submitted_total", {},
           static_cast<double>(stats.submitted));

  w.family("slide_serve_rejected_total",
           "Requests rejected by backpressure at admission", "counter");
  w.sample("slide_serve_rejected_total", {},
           static_cast<double>(stats.rejected));

  w.family("slide_serve_completed_total", "Requests served to completion",
           "counter");
  w.sample("slide_serve_completed_total", {},
           static_cast<double>(stats.completed));

  w.family("slide_serve_errors_total",
           "Requests failed with an exception routed into the future",
           "counter");
  w.sample("slide_serve_errors_total", {},
           static_cast<double>(stats.errors));

  w.family("slide_serve_queue_depth", "Requests currently queued", "gauge");
  w.sample("slide_serve_queue_depth", {},
           static_cast<double>(stats.queue_depth));

  w.family("slide_serve_batches_total", "Micro-batches dispatched",
           "counter");
  w.sample("slide_serve_batches_total", {},
           static_cast<double>(stats.batches));

  w.family("slide_serve_mean_batch_size",
           "Mean requests per dispatched micro-batch", "gauge");
  w.sample("slide_serve_mean_batch_size", {}, stats.mean_batch_size);

  w.family("slide_serve_snapshot_version",
           "Version of the currently published model snapshot", "gauge");
  w.sample("slide_serve_snapshot_version", {},
           static_cast<double>(stats.snapshot_version));

  w.family("slide_serve_swaps_observed_total",
           "Model hot-swaps observed by serving workers", "counter");
  w.sample("slide_serve_swaps_observed_total", {},
           static_cast<double>(stats.swaps_observed));

  w.family("slide_serve_ewma_service_seconds",
           "EWMA of per-request service time, updated once per micro-batch",
           "gauge");
  w.sample("slide_serve_ewma_service_seconds", {},
           stats.ewma_service_us * 1e-6);

  w.family("slide_serve_latency_seconds",
           "End-to-end request latency (submit to completion)", "histogram");
  w.histogram_us("slide_serve_latency_seconds", {}, stats.latency_buckets);

  // Memory accounting of the served snapshot. Always exported: the
  // retriever component in particular (the LSH buckets) was the historic
  // blind spot of footprint reports.
  w.family("slide_memory_bytes",
           "Resident bytes of the served model, by component", "gauge");
  w.sample("slide_memory_bytes", {{"component", "master_weights"}},
           static_cast<double>(stats.memory.master_weight_bytes));
  w.sample("slide_memory_bytes", {{"component", "mirrors"}},
           static_cast<double>(stats.memory.mirror_bytes));
  w.sample("slide_memory_bytes", {{"component", "optimizer"}},
           static_cast<double>(stats.memory.optimizer_bytes));
  w.sample("slide_memory_bytes", {{"component", "retriever"}},
           static_cast<double>(stats.memory.retriever_bytes));
  w.sample("slide_memory_bytes", {{"component", "inference_weights"}},
           static_cast<double>(stats.memory.inference_weight_bytes));
  w.family("slide_memory_mirror_hugepage_bytes",
           "Quantized-mirror bytes backed by transparent hugepages",
           "gauge");
  w.sample("slide_memory_mirror_hugepage_bytes", {},
           static_cast<double>(stats.memory.mirror_hugepage_bytes));

  if (stats.online_updates) {
    w.family("slide_online_updates_total",
             "Online update() calls absorbed by the fp32 master", "counter");
    w.sample("slide_online_updates_total", {},
             static_cast<double>(stats.online_update_calls));
    w.family("slide_online_publishes_total",
             "Snapshots republished by the online-update cadence",
             "counter");
    w.sample("slide_online_publishes_total", {},
             static_cast<double>(stats.online_publishes));
    w.family("slide_online_publish_seconds_total",
             "Wall seconds spent copying the master into published "
             "snapshots and building their tables",
             "counter");
    w.sample("slide_online_publish_seconds_total", {},
             stats.online_publish_seconds);
    w.family("slide_online_labels_total",
             "Output labels changed online, by kind", "counter");
    w.sample("slide_online_labels_total", {{"kind", "added"}},
             static_cast<double>(stats.labels_added));
    w.sample("slide_online_labels_total", {{"kind", "retired"}},
             static_cast<double>(stats.labels_retired));
  }

  if (stats.snapshot_appended_labels > 0 ||
      stats.snapshot_retired_labels > 0) {
    w.family("slide_snapshot_appended_labels",
             "Output units appended since construction in the served "
             "snapshot",
             "gauge");
    w.sample("slide_snapshot_appended_labels", {},
             static_cast<double>(stats.snapshot_appended_labels));
    w.family("slide_snapshot_retired_labels",
             "Output units currently tombstoned in the served snapshot",
             "gauge");
    w.sample("slide_snapshot_retired_labels", {},
             static_cast<double>(stats.snapshot_retired_labels));
  }

  if (!stats.lsh_tables.empty()) {
    w.family("slide_lsh_bucket_occupancy",
             "Fraction of LSH buckets holding at least one id, by layer",
             "gauge");
    for (const ServeStats::LshTables& t : stats.lsh_tables)
      w.sample("slide_lsh_bucket_occupancy",
               {{"layer", std::to_string(t.layer)}}, t.occupancy);
    w.family("slide_lsh_bucket_saturation",
             "Fraction of LSH buckets at capacity, where the insertion "
             "policy drops ids, by layer",
             "gauge");
    for (const ServeStats::LshTables& t : stats.lsh_tables)
      w.sample("slide_lsh_bucket_saturation",
               {{"layer", std::to_string(t.layer)}}, t.saturation);
  }

  return w.str();
}

// ---------------------------------------------------------------------------
// MetricsServer
// ---------------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// Time one client gets to send its request head and read the reply.
constexpr auto kClientDeadline = std::chrono::seconds(2);
/// The serving thread re-checks stop() at least this often.
constexpr int kStopCheckMs = 100;
/// Request heads are read up to this size; the rest is ignored.
constexpr std::size_t kMaxHeadBytes = 16 * 1024;

/// Waits until `fd` is ready for `events`. False once `deadline` passes,
/// `stopping` is set, or poll fails.
bool wait_ready(int fd, short events, Clock::time_point deadline,
                const std::atomic<bool>& stopping) {
  while (!stopping.load(std::memory_order_acquire)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::min<long long>(left, kStopCheckMs)));
    if (ready > 0) return true;
    if (ready < 0 && errno != EINTR) return false;
  }
  return false;
}

}  // namespace

MetricsServer::MetricsServer(int port, std::function<std::string()> renderer)
    : renderer_(std::move(renderer)) {
  SLIDE_CHECK(renderer_ != nullptr, "MetricsServer: renderer must be set");
  SLIDE_CHECK(port >= 0 && port <= 65535,
              "MetricsServer: port must be in [0, 65535]");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SLIDE_CHECK(listen_fd_ >= 0, std::string("MetricsServer: socket: ") +
                                   std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    throw Error("MetricsServer: cannot listen on port " +
                std::to_string(port) + ": " + why);
  }
  port_ = ntohs(addr.sin_port);
  try {
    thread_ = std::thread([this] { serve_loop(); });
  } catch (...) {
    ::close(listen_fd_);
    throw;
  }
}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::stop() {
  if (stopping_.exchange(true)) return;
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
}

void MetricsServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!wait_ready(listen_fd_, POLLIN, Clock::time_point::max(), stopping_))
      continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;  // the client left first, or a transient error
    serve_client(fd);
    ::close(fd);
  }
}

void MetricsServer::serve_client(int fd) {
  // One deadline covers the whole exchange: a client that trickles its
  // request, or reads the reply slowly, is dropped when it passes.
  const Clock::time_point deadline = Clock::now() + kClientDeadline;
  // Read until the end of the request head. The request line and headers
  // are ignored — every path serves the same scrape body.
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < kMaxHeadBytes) {
    if (!wait_ready(fd, POLLIN, deadline, stopping_)) return;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno != EINTR)) return;  // closed or reset
    if (n > 0) head.append(buf, static_cast<std::size_t>(n));
  }
  std::string response;
  try {
    const std::string body = renderer_();
    response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n"
        "\r\n";
    response += body;
  } catch (const Error&) {
    return;  // a renderer failure must not kill the serving thread
  }
  std::size_t sent = 0;
  while (sent < response.size()) {
    if (!wait_ready(fd, POLLOUT, deadline, stopping_)) return;
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno != EINTR) return;  // the client went away
    if (n > 0) sent += static_cast<std::size_t>(n);
  }
}

}  // namespace slide
