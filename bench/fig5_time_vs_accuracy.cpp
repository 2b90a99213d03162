// Figure 5 — the headline result: time-vs-accuracy AND iteration-vs-
// accuracy for SLIDE vs the dense full-softmax baseline, on both workloads.
//
// Paper shape: (a) per *iteration*, SLIDE's convergence is nearly identical
// to the dense model — adaptive sampling + asynchronous SGD do not hurt
// optimization; (b) per *wall-clock second*, SLIDE reaches any accuracy
// level several times faster because each iteration touches <1% of the
// output layer.
//
// Baseline roles (DESIGN.md §3): a dense builder stack plays TF-CPU. No GPU
// exists in this environment, so the TF-GPU column is reported as the
// dense baseline with a FLOP-projection note instead of a measurement.
//
// The dense baseline takes no lock (DESIGN.md §7), so its multi-thread
// times read lower than in runs recorded before it lost its accumulation
// locks.
#include "bench_common.h"

using namespace slide;

namespace {

void run_workload(const char* name, const SyntheticDataset& data,
                  HashFamilyKind kind, int batch, long iterations,
                  int threads) {
  std::printf("\n---- %s (%s) ----\n", name,
              describe(data.train.stats(), "train").c_str());

  // SLIDE.
  NetworkConfig cfg = bench::slide_config_for(data.train, kind, 128, batch);
  Network network(cfg, threads);
  TrainerConfig tcfg;
  tcfg.batch_size = batch;
  tcfg.num_threads = threads;
  tcfg.learning_rate = 1e-3f;
  ConvergenceRecorder slide_rec("SLIDE-CPU");
  bench::run_slide_convergence(network, data.train, data.test, tcfg,
                               iterations, std::max<long>(1, iterations / 8),
                               slide_rec);

  // Dense baseline (TF-CPU role).
  Network dense = bench::dense_baseline_for(data.train, batch, threads);
  ConvergenceRecorder dense_rec("Dense-CPU(TF-role)");
  bench::run_slide_convergence(dense, data.train, data.test, tcfg,
                               iterations, std::max<long>(1, iterations / 8),
                               dense_rec);

  std::printf("%s\n",
              merge_to_markdown({&slide_rec, &dense_rec}).c_str());

  // Paper-style summary: time to reach accuracy thresholds.
  const double best =
      std::min(slide_rec.best_accuracy(), dense_rec.best_accuracy());
  MarkdownTable summary({"accuracy target", "SLIDE (s)", "Dense (s)",
                         "speedup", "SLIDE iters", "Dense iters"});
  for (double frac : {0.5, 0.8, 0.95}) {
    const double target = best * frac;
    const double st = slide_rec.seconds_to_accuracy(target);
    const double dt = dense_rec.seconds_to_accuracy(target);
    summary.add_row(
        {fmt(target, 3), st < 0 ? "-" : fmt(st, 1),
         dt < 0 ? "-" : fmt(dt, 1),
         (st > 0 && dt > 0) ? fmt(dt / st, 2) + "x" : "-",
         fmt_int(slide_rec.iterations_to_accuracy(target)),
         fmt_int(dense_rec.iterations_to_accuracy(target))});
  }
  std::printf("%s", summary.str().c_str());
  std::printf("active fraction in output layer: %.2f%% (paper: <0.5%% at "
              "200K-670K classes)\n",
              100.0 * network.output_layer().average_active_fraction());
}

}  // namespace

int main() {
  const Scale scale = bench::env_scale();
  const int threads = bench::env_threads();
  bench::print_header(
      "Figure 5: SLIDE vs dense — time- and iteration-wise convergence",
      "SLIDE converges identically per iteration and 2.7x faster than "
      "TF-GPU / ~8x faster than TF-CPU per wall-clock at 44 cores");
  bench::print_env(scale, threads);
  std::printf(
      "[role] Dense-CPU(TF-role) is this repo's AVX2 full-softmax trainer "
      "(no GPU in container;\n       see DESIGN.md §3 and EXPERIMENTS.md "
      "for the TF-GPU projection note)\n");

  const long iters = scale == Scale::kTiny ? 200 : 150;
  {
    const auto data = make_synthetic_xc(delicious_like(scale));
    run_workload("delicious-like, Simhash K=9 L=50, batch 128", data,
                 HashFamilyKind::kSimhash, 128, iters, threads);
  }
  {
    const auto data = make_synthetic_xc(amazon_like(scale));
    run_workload("amazon-like, DWTA K=8 L=50, batch 256", data,
                 HashFamilyKind::kDwta, 256, iters, threads);
  }
  return 0;
}
