// Metrics tests: P@1 evaluation semantics, the convergence recorder, the
// markdown table printer and the CPU-efficiency probe plumbing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/builder.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "http_client.h"
#include "metrics/convergence.h"
#include "metrics/instrumentation.h"
#include "metrics/metrics.h"
#include "metrics/prometheus.h"
#include "metrics/table_printer.h"
#include "serve/engine.h"

namespace slide {
namespace {

TEST(ConvergenceRecorder, ThresholdQueries) {
  ConvergenceRecorder rec("slide");
  rec.add({.iteration = 10, .seconds = 1.0, .accuracy = 0.1});
  rec.add({.iteration = 20, .seconds = 2.0, .accuracy = 0.3});
  rec.add({.iteration = 30, .seconds = 3.0, .accuracy = 0.5});
  EXPECT_DOUBLE_EQ(rec.seconds_to_accuracy(0.25), 2.0);
  EXPECT_EQ(rec.iterations_to_accuracy(0.25), 20);
  EXPECT_DOUBLE_EQ(rec.seconds_to_accuracy(0.9), -1.0);
  EXPECT_EQ(rec.iterations_to_accuracy(0.9), -1);
  EXPECT_DOUBLE_EQ(rec.best_accuracy(), 0.5);
}

TEST(ConvergenceRecorder, MarkdownAndCsvContainData) {
  ConvergenceRecorder rec("run");
  rec.add({.iteration = 5, .seconds = 0.5, .accuracy = 0.25,
           .active_fraction = 0.01});
  const std::string md = rec.to_markdown();
  EXPECT_NE(md.find("0.2500"), std::string::npos);
  const std::string csv = rec.to_csv();
  EXPECT_NE(csv.find("run,5,"), std::string::npos);
}

TEST(ConvergenceRecorder, MergePrintsAllSeries) {
  ConvergenceRecorder a("slide"), b("dense");
  a.add({.iteration = 1, .seconds = 0.1, .accuracy = 0.2});
  a.add({.iteration = 2, .seconds = 0.2, .accuracy = 0.4});
  b.add({.iteration = 1, .seconds = 0.3, .accuracy = 0.1});
  const std::string md = merge_to_markdown({&a, &b});
  EXPECT_NE(md.find("slide"), std::string::npos);
  EXPECT_NE(md.find("dense"), std::string::npos);
  EXPECT_NE(md.find("0.4000"), std::string::npos);
}

TEST(MarkdownTable, RendersAlignedTable) {
  MarkdownTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "23456"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("23456"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(MarkdownTable, FormattersBehave) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
  EXPECT_EQ(fmt_int(42), "42");
}

TEST(Evaluate, ExactP1IsCorrectOnHandmadeModel) {
  // Train nothing: accuracy of an untrained model on 60 labels should be
  // near chance; after planting a strong association it should be high.
  SyntheticConfig dcfg;
  dcfg.feature_dim = 200;
  dcfg.label_dim = 40;
  dcfg.num_train = 300;
  dcfg.num_test = 100;
  dcfg.features_per_label = 8;
  dcfg.active_per_label = 5;
  dcfg.noise_features = 1;
  const auto data = make_synthetic_xc(dcfg);

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 8;
  NetworkConfig cfg = make_paper_network(200, 40, family, 12, 8);
  cfg.max_batch_size = 16;
  cfg.layers[0].table.range_pow = 8;
  Network net(cfg, 2);
  ThreadPool pool(2);

  // Untrained accuracy is not ~1/40: labels are Zipf-skewed and samples are
  // multi-label, so a constant head-label prediction already scores ~0.25.
  const double untrained =
      evaluate_p_at_1(net, data.test, pool, {.exact = true});
  EXPECT_LT(untrained, 0.45);

  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 150);
  const double trained =
      evaluate_p_at_1(net, data.test, pool, {.exact = true});
  EXPECT_GT(trained, untrained + 0.2);

  // max_samples caps work.
  const double capped = evaluate_p_at_1(
      net, data.test, pool, {.exact = true, .max_samples = 10});
  EXPECT_GE(capped, 0.0);
  EXPECT_LE(capped, 1.0);
}

TEST(Evaluate, PAtKIsMonotoneAndBounded) {
  SyntheticConfig dcfg;
  dcfg.feature_dim = 200;
  dcfg.label_dim = 40;
  dcfg.num_train = 300;
  dcfg.num_test = 100;
  dcfg.min_labels_per_sample = 3;
  dcfg.max_labels_per_sample = 5;
  const auto data = make_synthetic_xc(dcfg);
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 8;
  NetworkConfig cfg = make_paper_network(200, 40, family, 12, 8);
  cfg.max_batch_size = 16;
  cfg.layers[0].table.range_pow = 8;
  Network net(cfg, 2);
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 120);

  const double p1 = evaluate_p_at_k(net, data.test, trainer.pool(), 1,
                                    {.exact = true});
  const double p1_ref =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_NEAR(p1, p1_ref, 1e-9);  // P@1 definitions agree

  const double p5 = evaluate_p_at_k(net, data.test, trainer.pool(), 5,
                                    {.exact = true});
  EXPECT_GE(p5, 0.0);
  EXPECT_LE(p5, 1.0);
  // With >=3 labels per sample a trained model fills several top-5 slots.
  EXPECT_GT(p5, 0.2);
}

TEST(Evaluate, DensePAtKMatchesNetworkShape) {
  SyntheticConfig dcfg;
  dcfg.feature_dim = 150;
  dcfg.label_dim = 30;
  dcfg.num_train = 200;
  dcfg.num_test = 60;
  const auto data = make_synthetic_xc(dcfg);
  const Network net = NetworkBuilder(150)
                          .dense(8)
                          .dense(30, Activation::kSoftmax)
                          .max_batch(16)
                          .build(2);
  ThreadPool pool(2);
  const double p1 = evaluate_p_at_k(net, data.test, pool, 1);
  const double p1_ref = evaluate_p_at_1(net, data.test, pool);
  EXPECT_NEAR(p1, p1_ref, 1e-9);
  EXPECT_THROW(evaluate_p_at_k(net, data.test, pool, 0), Error);
}

TEST(EfficiencyProbe, ProducesConsistentReport) {
  SyntheticConfig dcfg;
  dcfg.feature_dim = 200;
  dcfg.label_dim = 40;
  dcfg.num_train = 200;
  dcfg.num_test = 10;
  const auto data = make_synthetic_xc(dcfg);
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 8;
  NetworkConfig cfg = make_paper_network(200, 40, family, 12, 8);
  cfg.max_batch_size = 16;
  cfg.layers[0].table.range_pow = 8;
  Network net(cfg, 2);
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 2;
  Trainer trainer(net, tc);

  EfficiencyProbe probe(trainer);
  trainer.train(data.train, 15);
  const CpuEfficiencyReport report = probe.finish();
  EXPECT_EQ(report.threads, 2);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.core_utilization, 0.0);
  EXPECT_LE(report.core_utilization, 1.1);
  EXPECT_GT(report.compute_fraction, 0.0);
  EXPECT_LE(report.compute_fraction + report.update_fraction +
                report.rebuild_fraction,
            1.05);
  EXPECT_GT(report.lsh_sampling_seconds, 0.0);
  EXPECT_GT(report.layer_compute_seconds, 0.0);
  const std::string row = report.to_markdown_row("slide");
  EXPECT_NE(row.find("slide"), std::string::npos);
  EXPECT_FALSE(CpuEfficiencyReport::markdown_header().empty());
}


// ---- Prometheus exposition ------------------------------------------------

TEST(PromWriter, EscapesLabelValuesAndHelpText) {
  EXPECT_EQ(PromWriter::escape_label_value("plain"), "plain");
  EXPECT_EQ(PromWriter::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(PromWriter::escape_label_value("say \"hi\""),
            "say \\\"hi\\\"");
  EXPECT_EQ(PromWriter::escape_label_value("line\nbreak"),
            "line\\nbreak");
  // HELP escapes backslash and newline but leaves quotes alone.
  EXPECT_EQ(PromWriter::escape_help("a\nb\\c \"q\""),
            "a\\nb\\\\c \"q\"");
}

TEST(PromWriter, FormatsIntegersPlainAndDoublesCompact) {
  EXPECT_EQ(PromWriter::format_value(0.0), "0");
  EXPECT_EQ(PromWriter::format_value(42.0), "42");
  EXPECT_EQ(PromWriter::format_value(-3.0), "-3");
  EXPECT_EQ(PromWriter::format_value(0.5), "0.5");
  const std::string big = PromWriter::format_value(1e18);
  EXPECT_NE(big.find('e'), std::string::npos);  // large: scientific is fine
}

TEST(PromWriter, SampleRendersLabelsInOrder) {
  PromWriter w;
  w.family("x_total", "help text", "counter");
  w.sample("x_total", {{"lane", "batch"}, {"reason", "expired"}}, 7);
  EXPECT_EQ(w.str(),
            "# HELP x_total help text\n"
            "# TYPE x_total counter\n"
            "x_total{lane=\"batch\",reason=\"expired\"} 7\n");
}

TEST(PromWriter, HistogramBucketsAreCumulativeAndCountMatchesInf) {
  LatencyHistogram hist;
  // Spread observations across several octaves, incl. the sub-1us clamp.
  for (int i = 0; i < 10; ++i) hist.record(0.5);
  for (int i = 0; i < 20; ++i) hist.record(3.0);
  for (int i = 0; i < 30; ++i) hist.record(100.0);
  for (int i = 0; i < 5; ++i) hist.record(1e7);  // 10s
  PromWriter w;
  w.family("lat_seconds", "latency", "histogram");
  w.histogram_us("lat_seconds", {{"lane", "default"}}, hist.snapshot());
  const std::string text = w.str();

  // Parse the bucket series back out and check cumulativity.
  std::istringstream lines(text);
  std::string line;
  double prev = -1.0;
  double inf_value = -1.0, count_value = -1.0, sum_value = -1.0;
  int buckets_seen = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("lat_seconds_bucket", 0) == 0) {
      const double v = std::stod(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(v, prev) << line;  // cumulative: never decreases
      prev = v;
      ++buckets_seen;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = v;
    } else if (line.rfind("lat_seconds_count", 0) == 0) {
      count_value = std::stod(line.substr(line.rfind(' ') + 1));
    } else if (line.rfind("lat_seconds_sum", 0) == 0) {
      sum_value = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_EQ(buckets_seen, LatencyHistogram::kOctaves + 1);
  EXPECT_EQ(inf_value, 65.0);
  EXPECT_EQ(count_value, inf_value);  // internal consistency
  EXPECT_NEAR(sum_value, (10 * 0.5 + 20 * 3.0 + 30 * 100.0 + 5 * 1e7) * 1e-6,
              1e-6);
}

TEST(RenderPrometheus, ExposesServeFamiliesWithoutLanes) {
  ServeStats stats;
  stats.submitted = 100;
  stats.rejected = 3;
  stats.completed = 60;
  stats.errors = 1;
  stats.queue_depth = 4;
  LatencyHistogram hist;
  hist.record(150.0);
  hist.record(900.0);
  stats.latency_buckets = hist.snapshot();
  const std::string text = render_prometheus(stats);

  EXPECT_NE(text.find("# TYPE slide_serve_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("slide_serve_submitted_total 100"), std::string::npos);
  EXPECT_NE(text.find("\nslide_serve_completed_total 60\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nslide_serve_queue_depth 4\n"), std::string::npos);
  // The one latency histogram is the engine's latency_buckets.
  EXPECT_NE(text.find("# TYPE slide_serve_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("\nslide_serve_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("\nslide_serve_latency_seconds_count 2\n"),
            std::string::npos);
  EXPECT_EQ(text.find("lane="), std::string::npos);
  EXPECT_EQ(text.find("slide_serve_shed_total"), std::string::npos);
  EXPECT_EQ(text.find("slide_serve_deadline_miss_total"), std::string::npos);
}

TEST(RenderPrometheus, CountersAreMonotonicAcrossReadings) {
  // Two successive stats readings render values that never go backwards —
  // the renderer is a pure function, so monotonicity reduces to the
  // counters themselves, but this pins the end-to-end property a scraper
  // relies on.
  ServeStats before;
  before.submitted = 10;
  before.completed = 5;
  ServeStats after = before;
  after.submitted = 25;
  after.completed = 11;
  const std::string t0 = render_prometheus(before);
  const std::string t1 = render_prometheus(after);
  auto value_of = [](const std::string& text, const std::string& series) {
    // Anchor on a sample line ("\nseries value"), not the HELP/TYPE text.
    const auto pos = text.find("\n" + series + " ");
    EXPECT_NE(pos, std::string::npos) << series;
    return std::stod(text.substr(pos + 1 + series.size() + 1));
  };
  EXPECT_LE(value_of(t0, "slide_serve_submitted_total"),
            value_of(t1, "slide_serve_submitted_total"));
  EXPECT_LE(value_of(t0, "slide_serve_completed_total"),
            value_of(t1, "slide_serve_completed_total"));
}

TEST(MetricsServer, ServesScrapeOverHttp) {
  MetricsServer server(0, [] {
    ServeStats stats;
    stats.submitted = 5;
    return render_prometheus(stats);
  });
  ASSERT_GT(server.port(), 0);
  const std::string response = test_http::scrape(server.port());
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("slide_serve_submitted_total 5"),
            std::string::npos);
  server.stop();  // idempotent with the destructor
}


TEST(MetricsServer, StopAndScrapesDoNotWaitForATricklingClient) {
  using Clock = std::chrono::steady_clock;
  MetricsServer server(0, [] {
    ServeStats stats;
    stats.submitted = 5;
    return render_prometheus(stats);
  });
  // A client that sends its request head one byte every 100 ms and never
  // finishes it, for up to 10 s.
  auto trickle = [&server](std::atomic<bool>& quit) {
    const int fd = test_http::connect_local(server.port());
    return std::thread([fd, &quit] {
      const std::string head = "GET /metrics HTTP/1.0\r\nX-Slow: ";
      for (std::size_t i = 0; i < 100 && !quit.load(); ++i) {
        const char c = i < head.size() ? head[i] : 'x';
        if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (fd >= 0) ::close(fd);
    });
  };
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // The server takes the trickling client first; a second scrape is still
  // answered once the trickler's deadline passes.
  std::atomic<bool> quit{false};
  std::thread first = trickle(quit);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto t0 = Clock::now();
  const std::string response = test_http::scrape(server.port());
  EXPECT_LT(seconds_since(t0), 3.0);
  EXPECT_NE(response.find("slide_serve_submitted_total 5"),
            std::string::npos);

  // stop() leaves a trickling client at once.
  std::thread second = trickle(quit);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  t0 = Clock::now();
  server.stop();
  EXPECT_LT(seconds_since(t0), 3.0);
  quit.store(true);
  first.join();
  second.join();
}

}  // namespace
}  // namespace slide
