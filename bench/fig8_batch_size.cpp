// Figure 8 — effect of batch size (64 / 128 / 256) on time-vs-accuracy,
// SLIDE vs dense vs sampled softmax, on the amazon-like workload.
//
// Paper shape: SLIDE wins at every batch size, and the gap *widens* with
// larger batches — more per-batch parallelism for SLIDE's independent
// per-sample threads, while the dense engine's cost per batch grows
// linearly regardless.
//
// The dense baseline takes no lock (DESIGN.md §7), so its multi-thread
// times read lower than in runs recorded before it lost its accumulation
// locks.
#include "bench_common.h"

using namespace slide;

int main() {
  const Scale scale = bench::env_scale();
  const int threads = bench::env_threads();
  bench::print_header(
      "Figure 8: effect of batch size (amazon-like workload)",
      "SLIDE outperforms at all batch sizes; gap widens from 64 to 256");
  bench::print_env(scale, threads);

  const auto data = make_synthetic_xc(amazon_like(scale));
  const long iterations = scale == Scale::kTiny ? 160 : 100;
  const long eval_every = std::max<long>(1, iterations / 5);
  const Index label_dim = data.train.label_dim();

  MarkdownTable summary({"batch", "engine", "best P@1", "train time (s)",
                         "s / iteration", "SLIDE speedup"});
  for (int batch : {64, 128, 256}) {
    // SLIDE (DWTA, the paper's amazon configuration).
    ConvergenceRecorder slide_rec("SLIDE b" + std::to_string(batch));
    {
      NetworkConfig cfg = bench::slide_config_for(
          data.train, HashFamilyKind::kDwta, 128, batch);
      Network network(cfg, threads);
      TrainerConfig tcfg;
      tcfg.batch_size = batch;
      tcfg.num_threads = threads;
      tcfg.learning_rate = 1e-3f;
      bench::run_slide_convergence(network, data.train, data.test, tcfg,
                                   iterations, eval_every, slide_rec, 500);
    }
    // Dense baseline.
    ConvergenceRecorder dense_rec("Dense b" + std::to_string(batch));
    {
      Network dense = bench::dense_baseline_for(data.train, batch, threads);
      TrainerConfig tcfg;
      tcfg.batch_size = batch;
      tcfg.num_threads = threads;
      tcfg.learning_rate = 1e-3f;
      bench::run_slide_convergence(dense, data.train, data.test, tcfg,
                                   iterations, eval_every, dense_rec, 500);
    }
    // Sampled softmax at 10% budget.
    ConvergenceRecorder ssm_rec("SSM b" + std::to_string(batch));
    {
      NetworkConfig cfg = make_sampled_softmax_network(
          data.train.feature_dim(), label_dim,
          std::max<Index>(32, label_dim / 10));
      cfg.max_batch_size = batch;
      Network network(cfg, threads);
      TrainerConfig tcfg;
      tcfg.batch_size = batch;
      tcfg.num_threads = threads;
      tcfg.learning_rate = 1e-3f;
      bench::run_slide_convergence(network, data.train, data.test, tcfg,
                                   iterations, eval_every, ssm_rec, 500);
    }
    std::printf("\n-- batch %d --\n%s", batch,
                merge_to_markdown({&slide_rec, &dense_rec, &ssm_rec})
                    .c_str());

    const double slide_s = slide_rec.points().back().seconds;
    const double dense_s = dense_rec.points().back().seconds;
    const double ssm_s = ssm_rec.points().back().seconds;
    summary.add_row({fmt_int(batch), "SLIDE",
                     fmt(slide_rec.best_accuracy(), 3), fmt(slide_s, 1),
                     fmt(slide_s / iterations, 3), "1.0x"});
    summary.add_row({fmt_int(batch), "Dense(TF-role)",
                     fmt(dense_rec.best_accuracy(), 3), fmt(dense_s, 1),
                     fmt(dense_s / iterations, 3),
                     fmt(dense_s / slide_s, 2) + "x"});
    summary.add_row({fmt_int(batch), "SSM(10%)",
                     fmt(ssm_rec.best_accuracy(), 3), fmt(ssm_s, 1),
                     fmt(ssm_s / iterations, 3),
                     fmt(ssm_s / slide_s, 2) + "x"});
  }
  std::printf("\n== summary ==\n%s", summary.str().c_str());
  return 0;
}
