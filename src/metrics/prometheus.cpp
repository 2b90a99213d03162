#include "metrics/prometheus.h"

#include <atomic>
#include <cmath>
#include <cstdio>

#include "dist/transport.h"
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

  w.family("slide_serve_completed_total",
           "Requests served to completion, by priority lane", "counter");
  for (int lane = 0; lane < kNumLanes; ++lane) {
    w.sample("slide_serve_completed_total",
             {{"lane", to_string(static_cast<Priority>(lane))}},
             static_cast<double>(stats.lanes[lane].completed));
  }

  w.family("slide_serve_errors_total",
           "Requests failed with an exception routed into the future",
           "counter");
  w.sample("slide_serve_errors_total", {},
           static_cast<double>(stats.errors));

  w.family("slide_serve_shed_total",
           "Requests shed by deadline/overload policy, by lane and reason",
           "counter");
  for (int lane = 0; lane < kNumLanes; ++lane) {
    const char* lane_name = to_string(static_cast<Priority>(lane));
    const ServeStats::LaneStats& ls = stats.lanes[lane];
    // All lane x reason combinations are always exported (zeros included)
    // so rate() never sees a series appear mid-query.
    w.sample("slide_serve_shed_total",
             {{"lane", lane_name}, {"reason", "admission"}},
             static_cast<double>(ls.shed_admission));
    w.sample("slide_serve_shed_total",
             {{"lane", lane_name}, {"reason", "evicted"}},
             static_cast<double>(ls.shed_evicted));
    w.sample("slide_serve_shed_total",
             {{"lane", lane_name}, {"reason", "expired"}},
             static_cast<double>(ls.shed_expired));
  }

  w.family("slide_serve_deadline_miss_total",
           "Requests served to completion but past their deadline, by lane",
           "counter");
  for (int lane = 0; lane < kNumLanes; ++lane) {
    w.sample("slide_serve_deadline_miss_total",
             {{"lane", to_string(static_cast<Priority>(lane))}},
             static_cast<double>(stats.lanes[lane].deadline_misses));
  }

  w.family("slide_serve_queue_depth",
           "Requests currently queued, by priority lane", "gauge");
  for (int lane = 0; lane < kNumLanes; ++lane) {
    w.sample("slide_serve_queue_depth",
             {{"lane", to_string(static_cast<Priority>(lane))}},
             static_cast<double>(stats.lanes[lane].queue_depth));
  }

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
           "EWMA of per-request service time feeding deadline admission "
           "control",
           "gauge");
  w.sample("slide_serve_ewma_service_seconds", {},
           stats.ewma_service_us * 1e-6);

  w.family("slide_serve_latency_seconds",
           "End-to-end request latency (submit to completion), by lane",
           "histogram");
  for (int lane = 0; lane < kNumLanes; ++lane) {
    w.histogram_us("slide_serve_latency_seconds",
                   {{"lane", to_string(static_cast<Priority>(lane))}},
                   stats.lanes[lane].buckets);
  }

  if (stats.distributed) {
    w.family("slide_dist_wire_bytes_total",
             "Bytes moved on the distributed shard wire, by direction",
             "counter");
    w.sample("slide_dist_wire_bytes_total", {{"direction", "sent"}},
             static_cast<double>(stats.wire_bytes_sent));
    w.sample("slide_dist_wire_bytes_total", {{"direction", "received"}},
             static_cast<double>(stats.wire_bytes_received));
    w.family("slide_dist_unhealthy_shards",
             "Shards currently skipped in degraded mode", "gauge");
    w.sample("slide_dist_unhealthy_shards", {},
             static_cast<double>(stats.unhealthy_shards));
  }

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

  if (stats.adaptive_retrieval) {
    w.family("slide_retrieval_escalations_total",
             "Queries escalated to exact scoring below the recall floor",
             "counter");
    w.sample("slide_retrieval_escalations_total", {},
             static_cast<double>(stats.retrieval_escalations));
    w.family("slide_retrieval_recall",
             "Measured recall@10 of sampled retrieval on escalated queries",
             "gauge");
    w.sample("slide_retrieval_recall", {}, stats.retrieval_recall);
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

class MetricsServerImpl {
 public:
  explicit MetricsServerImpl(int port) : listener_("", port) {}

  dist::TcpListener listener_;
  std::atomic<bool> stopping_{false};
};

MetricsServer::MetricsServer(int port, std::function<std::string()> renderer)
    : renderer_(std::move(renderer)),
      impl_(std::make_unique<MetricsServerImpl>(port)) {
  SLIDE_CHECK(renderer_ != nullptr, "MetricsServer: renderer must be set");
  port_ = impl_->listener_.port();
  thread_ = std::thread([this] { serve_loop(); });
}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::stop() {
  if (impl_->stopping_.exchange(true)) return;
  impl_->listener_.close();  // unblocks a concurrent accept
  if (thread_.joinable()) thread_.join();
}

void MetricsServer::serve_loop() {
  while (!impl_->stopping_.load(std::memory_order_relaxed)) {
    std::unique_ptr<dist::Transport> conn;
    try {
      conn = impl_->listener_.accept(/*timeout_ms=*/250);
    } catch (const dist::TransportTimeout&) {
      continue;  // periodic stop check
    } catch (const dist::TransportClosed&) {
      return;  // stop() closed the listener
    } catch (const dist::TransportError&) {
      continue;  // transient accept failure; keep serving
    }
    auto* tcp = dynamic_cast<dist::TcpTransport*>(conn.get());
    if (tcp == nullptr) continue;
    try {
      // Read until the end of the request head. The request line and
      // headers are ignored — every path serves the same scrape body.
      std::string head;
      char buf[1024];
      while (head.find("\r\n\r\n") == std::string::npos &&
             head.size() < 16 * 1024) {
        const std::size_t n = tcp->recv_raw(buf, sizeof(buf), 2000);
        head.append(buf, n);
      }
      const std::string body = renderer_();
      std::string response =
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " + std::to_string(body.size()) + "\r\n"
          "Connection: close\r\n"
          "\r\n";
      response += body;
      tcp->send_raw(response.data(), response.size());
    } catch (const dist::TransportError&) {
      // Slow, closed, or misbehaving client: drop the connection and keep
      // the scrape endpoint alive.
    } catch (const Error&) {
      // Renderer failure must not kill the listener thread.
    }
  }
}

}  // namespace slide
