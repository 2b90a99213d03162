// Prometheus text exposition (format 0.0.4) for the serving tier.
//
// Three pieces:
//
//   PromWriter           — low-level escaping/formatting writer producing
//                          well-formed families, samples, and histograms.
//   render_prometheus()  — the serve engine's metric surface: one call
//                          renders a ServeStats reading (request counters,
//                          queue depth, the latency histogram, memory and
//                          LSH table health) as a complete scrape body.
//                          Pure function of its input, so tests can assert
//                          on the text without a socket.
//   MetricsServer        — a minimal HTTP/1.0 listener on a POSIX socket
//                          that answers every GET with the renderer's
//                          current output. One connection at a time,
//                          Connection: close — a scrape endpoint, not a
//                          web server.
//
// Histogram mapping: LatencyHistogram's 4-per-octave geometric buckets
// collapse to octave boundaries on export (le = 2us, 4us, ... in seconds,
// then +Inf) — 31 export buckets instead of 121 keeps scrape size and
// Prometheus cardinality sane while preserving the <~2x relative error an
// octave bound implies. `_count` is derived from the summed bucket counts
// (not the histogram's separate total counter) so a scrape is always
// internally consistent under concurrent record() traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/latency.h"

namespace slide {

struct ServeStats;

class PromWriter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// Starts a metric family: emits the # HELP and # TYPE header lines.
  /// `type` is one of "counter", "gauge", "histogram", "untyped".
  void family(const std::string& name, const std::string& help,
              const std::string& type);

  /// Emits one sample line `name{labels} value`.
  void sample(const std::string& name, const Labels& labels, double value);

  /// Emits a full histogram (cumulative `le` bucket series + `_sum` +
  /// `_count`) from a LatencyHistogram snapshot, converting microseconds
  /// to base-unit seconds and collapsing to octave bucket boundaries.
  void histogram_us(const std::string& name, const Labels& labels,
                    const LatencyHistogram::Snapshot& snapshot);

  const std::string& str() const noexcept { return out_; }

  /// Escapes a label value per the exposition format: backslash, double
  /// quote, and newline.
  static std::string escape_label_value(const std::string& value);
  /// Escapes HELP text: backslash and newline (quotes are legal there).
  static std::string escape_help(const std::string& text);
  /// Shortest round-trip decimal for a sample value; integral values
  /// render without an exponent or trailing zeros.
  static std::string format_value(double value);

 private:
  std::string out_;
};

/// Renders one ServeStats reading as a complete Prometheus scrape body.
std::string render_prometheus(const ServeStats& stats);

/// Minimal HTTP listener for `serve_cli --metrics-port`: answers every GET
/// on the port with `renderer()` as text/plain; version=0.0.4. Runs a
/// single background thread that serves one client at a time; a client
/// gets 2 s in all to send its request head and read the reply, so a slow
/// one cannot hold the thread. stop() (or destruction) joins the thread
/// within ~100 ms, even mid-request, and closes the listener.
class MetricsServer {
 public:
  /// Binds all interfaces immediately (port 0 = ephemeral; see port()).
  /// Throws slide::Error when the port is taken.
  MetricsServer(int port, std::function<std::string()> renderer);
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// The bound port (kernel-assigned when constructed with 0).
  int port() const noexcept { return port_; }

  /// Joins the serving thread and closes the listener. Idempotent.
  void stop();

 private:
  void serve_loop();
  /// Answers one connection: reads the request head, sends the scrape.
  void serve_client(int fd);

  std::function<std::string()> renderer_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
  int port_ = 0;
};

}  // namespace slide
