// Closed-loop load driver for the inference serving engine.
//
//   ./build/examples/serve_cli [options]
//     --workers N     engine worker threads            (default 2)
//     --clients N     closed-loop client threads       (default 4)
//     --batch N       micro-batch size cap             (default 16)
//     --wait US       micro-batch deadline, usec       (default 200)
//     --queue N       admission queue capacity         (default 4096)
//     --topk N        labels returned per request      (default 5)
//     --seconds S     seconds of load per phase        (default 3)
//     --iters N       pre-serve training iterations    (default 300)
//     --exact         exact (all-class) scoring instead of LSH sampling
//     --precision P   serving precision: fp32 | int8
//                     (default fp32). int8 boots the snapshot with weight
//                     mirrors that read roughly a quarter of the weight
//                     bytes (the footprint report below shows the exact
//                     numbers) while training/checkpoints stay fp32. It
//                     scores through AVX-512 VNNI when the CPU has it (the
//                     banner shows the active kernel path) and downgrades
//                     gracefully to vpmaddubsw / scalar otherwise.
//     --churn         phase 2 churns the label space through the engine's
//                     online-update API instead of the train-and-swap:
//                     every ~200ms a delta appends fresh output labels,
//                     tombstones the ones appended two ticks earlier,
//                     trains a few live samples against the fp32 master,
//                     and republishes — all while the closed-loop load
//                     keeps running
//     --metrics-port P  serve Prometheus text-format metrics on
//                     http://127.0.0.1:P/metrics while load runs (P = 0
//                     picks an ephemeral port; the bound port is printed)
//     --metrics-dump  print the Prometheus scrape body to stdout at exit
//
// The driver trains a SLIDE model on a synthetic Delicious-like XC
// dataset (SLIDE_BENCH_SCALE widens it), checkpoints it, boots a
// ModelStore + InferenceEngine from the checkpoint, then runs two load
// phases: steady-state, and a phase with a concurrent train-and-serve
// hot-swap (the trainer keeps improving the model, the store publishes a
// fresh snapshot mid-traffic — zero pause, zero failed requests).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "slide/slide.h"
#include "sys/cpu_features.h"

using namespace slide;

namespace {

struct Options {
  int workers = 2;
  int clients = 4;
  int batch = 16;
  long wait_us = 200;
  std::size_t queue = 4096;
  int topk = 5;
  double seconds = 3.0;
  long iters = 300;
  bool exact = false;
  Precision precision = Precision::kFP32;
  bool churn = false;
  int metrics_port = -1;  // -1 = no metrics listener
  bool metrics_dump = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workers") opt.workers = std::stoi(next());
    else if (arg == "--clients") opt.clients = std::stoi(next());
    else if (arg == "--batch") opt.batch = std::stoi(next());
    else if (arg == "--wait") opt.wait_us = std::stol(next());
    else if (arg == "--queue") opt.queue = std::stoul(next());
    else if (arg == "--topk") opt.topk = std::stoi(next());
    else if (arg == "--seconds") opt.seconds = std::stod(next());
    else if (arg == "--iters") opt.iters = std::stol(next());
    else if (arg == "--exact") opt.exact = true;
    else if (arg == "--precision") opt.precision = parse_precision(next().c_str());
    else if (arg == "--churn") opt.churn = true;
    else if (arg == "--metrics-port") opt.metrics_port = std::stoi(next());
    else if (arg == "--metrics-dump") opt.metrics_dump = true;
    else throw Error("unknown option: " + arg);
  }
  SLIDE_CHECK(opt.workers > 0, "--workers must be positive");
  SLIDE_CHECK(opt.clients > 0, "--clients must be positive");
  SLIDE_CHECK(opt.batch > 0, "--batch must be positive");
  SLIDE_CHECK(opt.wait_us >= 0, "--wait must be non-negative");
  SLIDE_CHECK(opt.queue > 0, "--queue must be positive");
  SLIDE_CHECK(opt.topk > 0, "--topk must be positive");
  SLIDE_CHECK(opt.seconds > 0, "--seconds must be positive");
  SLIDE_CHECK(opt.iters >= 0, "--iters must be non-negative");
  SLIDE_CHECK(opt.metrics_port >= -1 && opt.metrics_port <= 65535,
              "--metrics-port must be a port number (0 = ephemeral)");
  return opt;
}

/// Runs `clients` closed-loop threads against the engine for `seconds`.
/// Each client waits for its previous request before issuing the next —
/// the classic closed-loop driver, so offered load tracks service rate.
struct LoadResult {
  std::uint64_t completed = 0;
  std::uint64_t retried = 0;  // backpressure rejections (resubmitted)
  std::uint64_t invalid = 0;  // empty/out-of-range results (must stay 0)
  double wall_seconds = 0.0;
};

// `output_dim` is atomic so the --churn phase can widen the validity bound
// as online updates append labels mid-load.
LoadResult run_load(InferenceEngine& engine, const Dataset& queries,
                    int clients, double seconds, int topk,
                    const std::atomic<Index>& output_dim) {
  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> completed{0}, retried{0}, invalid{0};
  std::vector<std::thread> threads;
  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (running.load(std::memory_order_relaxed)) {
        auto f = engine.submit(queries[i % queries.size()].features,
                               {.top_k = topk});
        ++i;
        if (!f.has_value()) {
          // Full queue: give the CPU to the workers before resubmitting.
          retried.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
          continue;
        }
        const Prediction p = f->get();
        const bool ok =
            !p.labels.empty() &&
            p.labels[0] < output_dim.load(std::memory_order_relaxed);
        (ok ? completed : invalid).fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (timer.seconds() < seconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  running.store(false);
  for (auto& t : threads) t.join();
  return {completed.load(), retried.load(), invalid.load(), timer.seconds()};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Scale scale = Scale::kTiny;
  try {
    opt = parse(argc, argv);
    const char* scale_env = std::getenv("SLIDE_BENCH_SCALE");
    if (scale_env != nullptr) scale = parse_scale(scale_env);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("== serve_cli: SLIDE inference serving demo ==\n");

  // 1. Train a model to serve.
  const SyntheticDataset data = make_synthetic_xc(delicious_like(scale));
  std::printf("%s\n", describe(data.train.stats(), "train").c_str());
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 9;
  family.l = 50;
  family.bin_size = 8;
  NetworkConfig net_cfg = make_paper_network(
      data.train.feature_dim(), data.train.label_dim(), family,
      /*sampling_target=*/std::max<Index>(32, data.train.label_dim() / 50),
      /*hidden_units=*/64);
  net_cfg.max_batch_size = 128;
  net_cfg.layers[0].table.range_pow = 12;
  net_cfg.layers[0].table.bucket_size = 128;
  Network network(net_cfg, hardware_threads());
  TrainerConfig train_cfg;
  train_cfg.batch_size = 128;
  train_cfg.learning_rate = 1e-3f;
  Trainer trainer(network, train_cfg);
  std::printf("[train] %ld iterations...\n", opt.iters);
  trainer.train(data.train, opt.iters);
  network.rebuild_all(&trainer.pool());

  // 2. Checkpoint, then boot the serving stack from the checkpoint — the
  //    same path a standalone server process would take.
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() / "serve_cli_model.slide")
          .string();
  save_weights_file(network, checkpoint);
  // The serve-side precision knob: the same fp32 checkpoint boots either
  // an fp32 snapshot or an int8-quantized one (about a quarter of the
  // scored weight bytes); the trainer's network is untouched either way.
  NetworkConfig serve_net_cfg = net_cfg;
  serve_net_cfg.precision = opt.precision;
  auto store = ModelStore::from_checkpoint_file(serve_net_cfg, checkpoint);
  std::printf("[store] loaded %s (version %llu, precision %s, simd %s)\n",
              checkpoint.c_str(),
              static_cast<unsigned long long>(store->version()),
              to_string(opt.precision),
              simd::to_string(simd::active_level()));
  {
    const CpuFeatures& cpu = cpu_features();
    std::printf(
        "[simd] cpu: avx2=%d avx512f=%d avx512vnni=%d | kernel path: "
        "int8=%s\n",
        cpu.avx2 ? 1 : 0, cpu.avx512f ? 1 : 0, cpu.avx512vnni ? 1 : 0,
        simd::backend().i8_path);
  }
  {
    const MemoryFootprint f =
        store->current()->network->memory_footprint();
    const double mb = 1.0 / (1 << 20);
    std::printf(
        "[store] snapshot footprint: scoring path reads %.2f MB of weights "
        "(fp32 masters %.2f MB, %s mirrors %.2f MB [%.2f MB hugepage-"
        "backed], optimizer state %.2f MB)\n",
        static_cast<double>(f.inference_weight_bytes) * mb,
        static_cast<double>(f.master_weight_bytes) * mb,
        to_string(opt.precision),
        static_cast<double>(f.mirror_bytes) * mb,
        static_cast<double>(f.mirror_hugepage_bytes) * mb,
        static_cast<double>(f.optimizer_bytes) * mb);
    if (opt.precision != Precision::kFP32) {
      std::printf(
          "[store] %s serving reads %.0f%% of the fp32 scoring bytes\n",
          to_string(opt.precision),
          100.0 * static_cast<double>(f.inference_weight_bytes) /
              static_cast<double>(f.master_weight_bytes));
    }
  }

  ServeConfig serve_cfg;
  serve_cfg.num_workers = opt.workers;
  serve_cfg.max_batch = opt.batch;
  serve_cfg.max_wait_us = opt.wait_us;
  serve_cfg.queue_capacity = opt.queue;
  serve_cfg.default_top_k = opt.topk;
  serve_cfg.exact = opt.exact;
  InferenceEngine engine(store, serve_cfg);

  // Optional Prometheus scrape endpoint, alive for the whole load run.
  std::unique_ptr<MetricsServer> metrics;
  if (opt.metrics_port >= 0) {
    metrics = std::make_unique<MetricsServer>(
        opt.metrics_port, [&engine] { return render_prometheus(engine.stats()); });
    std::printf("[metrics] http://127.0.0.1:%d/metrics\n", metrics->port());
  }

  // 3. Phase 1: steady-state closed-loop load.
  std::atomic<Index> output_bound{network.output_dim()};
  std::printf("\n[phase 1] %d clients, %.1fs steady-state load\n",
              opt.clients, opt.seconds);
  LoadResult steady = run_load(engine, data.test, opt.clients, opt.seconds,
                               opt.topk, output_bound);
  std::printf("  %.0f qps, %llu retried (backpressure), %llu invalid\n",
              static_cast<double>(steady.completed) / steady.wall_seconds,
              static_cast<unsigned long long>(steady.retried),
              static_cast<unsigned long long>(steady.invalid));

  // 4. Phase 2: the same load with either a train-and-serve hot-swap in
  //    the middle (default) or, with --churn, continuous label churn
  //    through the engine's online-update API: traffic never pauses while
  //    the label space grows, retires, trains, and republishes.
  std::atomic<bool> churning{opt.churn};
  std::thread swapper([&] {
    if (opt.churn) {
      // The trained in-process network plays the fp32 master role. The
      // aliasing shared_ptr is safe: `network` outlives the engine.
      auto master = std::shared_ptr<Network>(&network, [](Network*) {});
      OnlineUpdateConfig ocfg;
      ocfg.publish_every = 1;
      ocfg.rebuild_threads = 1;
      engine.enable_online_updates(master, ocfg);
      const auto train_samples = data.train.samples();
      std::vector<Index> pending;  // appended ids not yet retired
      std::size_t cursor = 0;
      int ticks = 0;
      while (churning.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (!churning.load(std::memory_order_relaxed)) break;
        OnlineDelta delta;
        delta.add_units = 1;
        const Index first_new = network.output_dim();
        if (pending.size() >= 2) {
          delta.retire.assign(pending.begin(), pending.begin() + 1);
          pending.erase(pending.begin());
        }
        delta.samples.assign(train_samples.begin() + cursor,
                             train_samples.begin() + cursor + 8);
        cursor = (cursor + 8) % (train_samples.size() - 8);
        // Raise the validity bound BEFORE the update publishes: a client
        // may see the grown snapshot the instant update() swaps it in.
        output_bound.store(first_new + delta.add_units,
                           std::memory_order_relaxed);
        engine.update(delta);
        pending.push_back(first_new);
        ++ticks;
      }
      std::printf("  [churn] %d online-update ticks "
                  "(add 1 / retire 1 / train 8 / republish each)\n",
                  ticks);
      return;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(opt.seconds * 300)));
    trainer.train(data.train, std::max(50L, opt.iters / 4));
    network.rebuild_all(&trainer.pool());
    const std::uint64_t v = publish_clone(*store, network, opt.precision);
    std::printf("  [swap] published snapshot version %llu mid-traffic\n",
                static_cast<unsigned long long>(v));
  });
  std::printf("\n[phase 2] load + %s\n",
              opt.churn ? "concurrent label churn (online updates)"
                        : "concurrent train-and-swap");
  LoadResult swapped = run_load(engine, data.test, opt.clients, opt.seconds,
                                opt.topk, output_bound);
  churning.store(false);
  swapper.join();
  std::printf("  %.0f qps, %llu retried, %llu invalid (must be 0)\n",
              static_cast<double>(swapped.completed) / swapped.wall_seconds,
              static_cast<unsigned long long>(swapped.retried),
              static_cast<unsigned long long>(swapped.invalid));

  // 5. Report.
  std::printf("\n== engine stats ==\n");
  engine.print_stats(std::cout);
  if (opt.metrics_dump) {
    std::printf("\n== prometheus scrape ==\n%s",
                render_prometheus(engine.stats()).c_str());
  }
  metrics.reset();  // stop the listener before the engine it reads
  engine.stop();
  std::filesystem::remove(checkpoint);
  return swapped.invalid == 0 && steady.invalid == 0 ? 0 : 1;
}
