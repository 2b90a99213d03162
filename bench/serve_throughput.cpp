// Serving throughput/latency: queries/sec and p50/p95/p99 end-to-end
// latency as a function of engine worker count and micro-batch window,
// plus a hot-swap-under-sustained-load run that must complete with zero
// failed requests.
//
// Not a paper artifact — this measures the serving subsystem the repo
// grows on top of the paper's training engine, in the spirit of
// "Accelerating SLIDE Deep Learning on Modern CPUs" (2021): on CPUs,
// batching policy is a first-order term for inference throughput.
#include <atomic>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"

using namespace slide;

namespace {

struct LoadStats {
  std::uint64_t completed = 0;
  std::uint64_t retried = 0;
  std::uint64_t failed = 0;  // invalid result or broken future
  double wall_seconds = 0.0;
};

LoadStats closed_loop(InferenceEngine& engine, const Dataset& queries,
                      int clients, double seconds, Index output_dim) {
  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> completed{0}, retried{0}, failed{0};
  std::vector<std::thread> threads;
  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c) * 31;
      while (running.load(std::memory_order_relaxed)) {
        auto f = engine.submit(queries[i % queries.size()].features, {.top_k = 5});
        ++i;
        if (!f.has_value()) {
          // Full queue: give the CPU to the workers before resubmitting.
          retried.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
          continue;
        }
        try {
          const Prediction p = f->get();
          const bool ok = !p.labels.empty() && p.labels[0] < output_dim;
          (ok ? completed : failed).fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (timer.seconds() < seconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  running.store(false);
  for (auto& t : threads) t.join();
  return {completed.load(), retried.load(), failed.load(), timer.seconds()};
}

}  // namespace

int main() {
  const Scale scale = bench::env_scale(Scale::kTiny);
  const int max_threads = bench::env_threads();
  bench::print_header(
      "serve_throughput: qps and latency percentiles vs workers/batch window",
      "serving subsystem (beyond the paper); CPU batching per Daghaghi et "
      "al. 2021");
  bench::print_env(scale, max_threads);

  const SyntheticDataset data = make_synthetic_xc(delicious_like(scale));
  NetworkConfig net_cfg =
      bench::slide_config_for(data.train, HashFamilyKind::kSimhash,
                              /*hidden=*/64, /*max_batch=*/128);
  auto network = std::make_shared<Network>(net_cfg, max_threads);
  TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.num_threads = max_threads;
  tcfg.learning_rate = 1e-3f;
  {
    Trainer trainer(*network, tcfg);
    trainer.train(data.train, 100);
    network->rebuild_all(&trainer.pool());
  }
  std::shared_ptr<const Network> model = network;

  const double phase_seconds =
      scale == Scale::kTiny ? 1.0 : (scale == Scale::kSmall ? 2.0 : 4.0);
  const int clients = 4;

  // ---- Sweep: workers x micro-batch window -------------------------------
  // Human-readable table on stdout; machine-readable BENCH_serve.json on
  // disk so the perf trajectory is tracked across PRs.
  bench::Json json;
  json.begin_object();
  json.key("bench").string("serve_throughput");
  json.key("scale").string(bench::scale_name(scale));
  json.key("threads").number(static_cast<long long>(max_threads));
  json.key("clients").number(static_cast<long long>(clients));
  json.key("phase_seconds").number(phase_seconds);
  json.key("sweep").begin_array();

  MarkdownTable table({"workers", "max_batch", "max_wait_us", "qps",
                       "mean batch", "p50", "p95", "p99", "retried"});
  const int worker_counts[] = {1, 2, std::max(4, max_threads)};
  const long wait_windows[] = {50, 500};
  for (int workers : worker_counts) {
    for (long wait_us : wait_windows) {
      auto store = std::make_shared<ModelStore>(model);
      ServeConfig cfg;
      cfg.num_workers = workers;
      cfg.max_batch = 16;
      cfg.max_wait_us = wait_us;
      cfg.queue_capacity = 1 << 14;
      InferenceEngine engine(store, cfg);
      const LoadStats load = closed_loop(engine, data.test, clients,
                                         phase_seconds, model->output_dim());
      const ServeStats stats = engine.stats();
      const double qps =
          static_cast<double>(load.completed) / load.wall_seconds;
      table.add_row({fmt_int(workers), fmt_int(cfg.max_batch),
                     fmt_int(wait_us), fmt(qps, 0),
                     fmt(stats.mean_batch_size, 2),
                     fmt_latency_us(stats.latency.p50_us),
                     fmt_latency_us(stats.latency.p95_us),
                     fmt_latency_us(stats.latency.p99_us),
                     fmt_int(static_cast<long long>(load.retried))});
      json.begin_object();
      json.key("workers").number(static_cast<long long>(workers));
      json.key("max_batch").number(static_cast<long long>(cfg.max_batch));
      json.key("max_wait_us").number(static_cast<long long>(wait_us));
      json.key("qps").number(qps);
      json.key("mean_batch").number(stats.mean_batch_size);
      json.key("p50_us").number(stats.latency.p50_us);
      json.key("p95_us").number(stats.latency.p95_us);
      json.key("p99_us").number(stats.latency.p99_us);
      json.key("completed").number(
          static_cast<long long>(load.completed));
      json.key("retried").number(static_cast<long long>(load.retried));
      json.end_object();
      engine.stop();
      if (load.failed != 0) {
        std::printf("FAILED: %llu failed requests in sweep\n",
                    static_cast<unsigned long long>(load.failed));
        return 1;
      }
    }
  }
  json.end_array();
  table.print(std::cout);

  // ---- Hot-swap under sustained load -------------------------------------
  std::printf("\nhot-swap under sustained load (%d clients, %.1fs, swap "
              "every ~%.0fms):\n",
              clients, 2 * phase_seconds, 1000 * phase_seconds / 3);
  auto store = std::make_shared<ModelStore>(model);
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 16;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 1 << 14;
  InferenceEngine engine(store, cfg);
  std::atomic<bool> swapping{true};
  std::thread swapper([&] {
    int swaps = 0;
    while (swapping.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<long>(1000 * phase_seconds / 3)));
      if (!swapping.load()) break;
      publish_clone(*store, *model, /*rebuild_threads=*/1);
      ++swaps;
    }
    std::printf("  swaps published: %d\n", swaps);
  });
  const LoadStats load = closed_loop(engine, data.test, clients,
                                     2 * phase_seconds, model->output_dim());
  swapping.store(false);
  swapper.join();
  const ServeStats stats = engine.stats();
  std::printf("  qps %.0f | completed %llu | failed %llu | swaps observed "
              "by workers %llu | final snapshot v%llu\n",
              static_cast<double>(load.completed) / load.wall_seconds,
              static_cast<unsigned long long>(load.completed),
              static_cast<unsigned long long>(load.failed),
              static_cast<unsigned long long>(stats.swaps_observed),
              static_cast<unsigned long long>(stats.snapshot_version));
  std::printf("  latency p50 %s | p95 %s | p99 %s\n",
              fmt_latency_us(stats.latency.p50_us).c_str(),
              fmt_latency_us(stats.latency.p95_us).c_str(),
              fmt_latency_us(stats.latency.p99_us).c_str());
  engine.stop();
  json.key("hot_swap").begin_object();
  json.key("workers").number(static_cast<long long>(cfg.num_workers));
  json.key("max_batch").number(static_cast<long long>(cfg.max_batch));
  json.key("max_wait_us").number(static_cast<long long>(cfg.max_wait_us));
  json.key("qps").number(static_cast<double>(load.completed) /
                         load.wall_seconds);
  json.key("mean_batch").number(stats.mean_batch_size);
  json.key("p50_us").number(stats.latency.p50_us);
  json.key("p95_us").number(stats.latency.p95_us);
  json.key("p99_us").number(stats.latency.p99_us);
  json.key("completed").number(static_cast<long long>(load.completed));
  json.key("failed").number(static_cast<long long>(load.failed));
  json.key("swaps_observed").number(
      static_cast<long long>(stats.swaps_observed));
  json.end_object();
  json.end_object();
  json.write_file(bench::json_path("BENCH_serve.json"));
  if (load.failed != 0) {
    std::printf("FAILED: hot swap dropped %llu requests\n",
                static_cast<unsigned long long>(load.failed));
    return 1;
  }
  std::printf("  zero failed requests across swaps: OK\n");
  return 0;
}
