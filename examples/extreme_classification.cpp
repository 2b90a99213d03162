// Extreme multi-label classification — the paper's headline workload
// (Delicious-200K-like), end to end, with a live SLIDE-vs-dense comparison.
//
//   ./build/examples/extreme_classification [scale] [iterations] [threads]
//     scale:      tiny | small | medium | paper   (default: tiny)
//     iterations: training batches per engine      (default: 300)
//     threads:    CPU threads                      (default: all)
//
// To run on the real dataset, download Delicious-200K from the Extreme
// Classification Repository and replace the generator call with
// read_xc_file("deliciousLarge_train.txt").
#include <cstdio>
#include <cstdlib>
#include <string>

#include "slide/slide.h"

int main(int argc, char** argv) {
  using namespace slide;

  const Scale scale = parse_scale(argc > 1 ? argv[1] : "tiny");
  const long iterations = argc > 2 ? std::atol(argv[2]) : 300;
  const int threads = argc > 3 ? std::atoi(argv[3]) : hardware_threads();

  std::printf("== generating delicious-like dataset ==\n");
  const SyntheticDataset data = make_synthetic_xc(delicious_like(scale));
  std::printf("%s\n", describe(data.train.stats(), "train").c_str());

  // SLIDE configuration straight from the paper's hyper-parameter section:
  // Simhash, K=9, L=50, hash tables on the output layer only, batch 128,
  // Adam, rebuild starting at N0=50 iterations with exponential decay.
  const Index label_dim = data.train.label_dim();
  const Index target = std::max<Index>(32, label_dim / 100);  // ~1% active
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 9;
  family.l = 50;
  HashTable::Config slide_table;
  slide_table.range_pow = 14;
  RebuildSchedule slide_rebuild;
  slide_rebuild.initial_period = 50;
  NetworkConfig slide_cfg = NetworkBuilder(data.train.feature_dim())
                                .dense(128)
                                .sampled(label_dim, family, target)
                                .table(slide_table)
                                .rebuild_schedule(slide_rebuild)
                                .max_batch(128)
                                .to_config();

  TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.num_threads = threads;
  tcfg.learning_rate = 1e-3f;

  // Trains one engine, printing P@1 five times along the way; returns its
  // wall time and final P@1.
  struct Result {
    double seconds;
    double p_at_1;
  };
  auto train_engine = [&](Network& net, const TrainerConfig& cfg) {
    Trainer trainer(net, cfg);
    WallTimer timer;
    trainer.train(data.train, iterations, [&](long it) {
      const double acc = evaluate_p_at_1(net, data.test, trainer.pool(),
                                         {.exact = true, .max_samples = 500});
      std::printf("  iter %5ld | %6.1fs | P@1 %.3f\n", it, timer.seconds(),
                  acc);
    }, std::max<long>(1, iterations / 5));
    const double seconds = timer.seconds();
    return Result{seconds,
                  evaluate_p_at_1(net, data.test, trainer.pool(),
                                  {.exact = true, .max_samples = 2000})};
  };

  std::printf("\n== SLIDE: %u of %u classes active per sample (%.2f%%) ==\n",
              target, label_dim, 100.0 * target / label_dim);
  Network network(slide_cfg, threads);
  const Result slide = train_engine(network, tcfg);

  // The dense baseline is a builder stack with a full softmax output: every
  // sample touches every weight.
  std::printf("\n== dense full-softmax baseline (TF-CPU role) ==\n");
  Network dense_network = NetworkBuilder(data.train.feature_dim())
                              .dense(128)
                              .dense(label_dim)
                              .max_batch(128)
                              .build(threads);
  const Result dense = train_engine(dense_network, tcfg);

  std::printf("\n== summary (%ld iterations each) ==\n", iterations);
  std::printf("SLIDE : %7.1fs  P@1 %.3f  (%.2f%% active neurons)\n",
              slide.seconds, slide.p_at_1,
              100.0 * network.output_layer().average_active_fraction());
  std::printf("dense : %7.1fs  P@1 %.3f\n", dense.seconds, dense.p_at_1);
  std::printf("speedup: %.2fx per-iteration wall time\n",
              dense.seconds / slide.seconds);
  return 0;
}
