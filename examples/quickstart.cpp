// Quickstart: train a SLIDE network on a small synthetic extreme-
// classification dataset, evaluate precision@1, then serve it through the
// concurrent inference engine.
//
//   ./build/examples/quickstart
//
// This is the 60-second tour of the public API: generate data, describe the
// paper's architecture (sparse input -> 128 dense ReLU -> LSH-sampled
// softmax), train with the batch-parallel trainer (one thread per batch
// instance, each row's gradient summed once at apply time), evaluate, and
// finally stand up the serve/ stack (ModelStore snapshot + InferenceEngine
// micro-batching). See examples/serve_cli.cpp for the full load driver with
// hot-swapping, and bench/serve_throughput.cpp for the tuning numbers.
#include <cstdio>
#include <cstdlib>

#include "slide/slide.h"

int main() {
  using namespace slide;

  // SLIDE_SHARDS=N (default 0 = monolithic) splits the output layer into N
  // model-parallel LSH shards (core/sharded_layer.h) — same API, same
  // training loop, per-shard LSH tables. CI runs this smoke at
  // shards={1,4}.
  const char* shards_env = std::getenv("SLIDE_SHARDS");
  const int shards = shards_env == nullptr ? 0 : std::atoi(shards_env);

  // 1. Data: a Delicious-200K-like synthetic stand-in at tiny scale
  //    (use read_xc_file() to load a real XC-repository file instead).
  const SyntheticDataset data = make_synthetic_xc(delicious_like(Scale::kTiny));
  std::printf("%s\n", describe(data.train.stats(), "train").c_str());
  std::printf("%s\n", describe(data.test.stats(), "test").c_str());

  // 2. Network: the paper's benchmark architecture, described fluently —
  //    sparse input -> 32 dense ReLU -> LSH-sampled softmax (Simhash with
  //    K=6, L=24; activate ~64 of the 500 classes per sample). Swap
  //    .sampled(...) for .dense(labels) to get the full dense baseline,
  //    or .random_sampled(labels, 64) for the sampled-softmax baseline —
  //    same Trainer, checkpoints, and serving.
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 6;
  family.l = 24;
  HashTable::Config table;
  table.range_pow = 10;

  const int threads = hardware_threads();
  NetworkBuilder builder(data.train.feature_dim());
  builder.dense(32)
      .sampled(data.train.label_dim(), family, /*sampling_target=*/64)
      .table(table);
  if (shards > 0) builder.shards(shards);
  Network network = builder.max_batch(64).build(threads);
  std::printf("network: %zu parameters, output sampling %.1f%%, "
              "shards %d\n",
              network.num_parameters(), 100.0 * 64 / data.train.label_dim(),
              shards);

  // 3. Train: one thread per batch instance, lazy Adam, LSH rebuilds on the
  //    exponential-decay schedule.
  TrainerConfig train_cfg;
  train_cfg.batch_size = 64;
  train_cfg.num_threads = threads;
  train_cfg.learning_rate = 5e-3f;
  Trainer trainer(network, train_cfg);

  WallTimer timer;
  trainer.train(data.train, /*iterations=*/200, [&](long iteration) {
    const double acc = evaluate_p_at_1(network, data.test, trainer.pool(),
                                       {.exact = true, .max_samples = 300});
    // stack() (not output_layer()) — the generic Layer accessor works for
    // monolithic and sharded output layers alike.
    std::printf("  iter %4ld | %5.1fs | P@1 %.3f | active %.1f%%\n",
                iteration, timer.seconds(), acc,
                100.0 * network.stack(0)
                            .average_active_fraction());
  }, /*callback_every=*/50);

  // 4. Final evaluation: exact (all classes scored) and LSH-sampled
  //    inference, plus a sample prediction.
  const double exact = evaluate_p_at_1(network, data.test, trainer.pool(),
                                       {.exact = true});
  const double sampled = evaluate_p_at_1(network, data.test, trainer.pool(),
                                         {.exact = false});
  std::printf("final P@1: exact %.3f | sampled %.3f\n", exact, sampled);

  InferenceContext ctx(network);  // sizes its scratch from the model
  const Sample& probe = data.test[0];
  std::printf("sample 0: true label %u, predicted %u\n", probe.labels[0],
              network.predict_top1(probe.features, ctx, true));

  // Whole batches go through one call — this is the path the serving
  // engine's micro-batcher uses; pass a pool to fan the batch out.
  std::vector<SparseVector> queries;
  for (std::size_t i = 0; i < 16; ++i)
    queries.push_back(data.test[i].features);
  BatchOutput batch_out;
  network.predict_batch(queries, batch_out, &trainer.pool(), /*top_k=*/3,
                        /*exact=*/true);
  std::printf("batch of %zu served in one predict_batch call; row 0 top "
              "label %u\n",
              batch_out.size(), batch_out.row(0)[0]);

  // 5. Serve: snapshot the trained model into a ModelStore and drive a few
  //    requests through the concurrent micro-batching engine. Futures
  //    resolve with top-k labels; ModelStore::publish / publish_clone
  //    hot-swaps a newer model under live traffic. The store's contract:
  //    hash tables must be current when a network is published.
  network.rebuild_all(&trainer.pool());
  // std::move relinquishes `network` — neither it nor `trainer` may be
  // used past this line. To keep training while serving, hand the store a
  // copy instead: publish_clone(*store, network) (see serve_cli.cpp).
  auto store = std::make_shared<ModelStore>(
      std::make_shared<Network>(std::move(network)), "quickstart");
  ServeConfig serve_cfg;
  serve_cfg.num_workers = 2;
  serve_cfg.max_batch = 8;
  serve_cfg.max_wait_us = 200;
  InferenceEngine engine(store, serve_cfg);
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    // nullopt = backpressure (queue full); real clients retry or shed.
    auto future = engine.submit(data.test[i].features, {.top_k = 3});
    if (future.has_value()) futures.push_back(std::move(*future));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction p = futures[i].get();
    if (p.labels.empty()) continue;  // sampled inference may come up empty
    std::printf("  served %zu: top label %u (snapshot v%llu, %.0fus)\n", i,
                p.labels[0], static_cast<unsigned long long>(
                                 p.snapshot_version),
                p.latency_us);
  }
  return 0;
}
