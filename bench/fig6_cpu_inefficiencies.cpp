// Figure 6 — "Inefficiencies in CPU usage": where training time goes for
// SLIDE vs the dense baseline as the thread count grows.
//
// Paper shape (VTune top-down): both are memory-bound; TF-CPU's memory-
// bound share *rises* with more cores while SLIDE's *falls* (sparse
// accesses shrink per-thread working sets).
//
// VTune substitution (DESIGN.md §3): we decompose wall time into the
// engine's phases (batch compute / optimizer update / table rebuild), split
// the hashed layer's time into LSH sampling vs activation math, and report
// OS memory counters. The memory-bound *trend* shows up as the utilization
// gap (1 - utilization = stall share) moving with thread count.
//
// The dense baseline takes no lock (DESIGN.md §7), so its multi-thread
// times read lower than in runs recorded before it lost its accumulation
// locks.
#include "bench_common.h"

using namespace slide;

int main() {
  const Scale scale = bench::env_scale();
  const int max_threads = bench::env_threads();
  bench::print_header(
      "Figure 6: CPU inefficiency breakdown vs thread count",
      "memory-bound share rises with cores for TF-CPU, falls for SLIDE");
  bench::print_env(scale, max_threads);

  const auto data = make_synthetic_xc(delicious_like(scale));
  const long iterations = scale == Scale::kTiny ? 60 : 40;
  std::vector<int> sweep = {1, 2, 2 * max_threads};
  if (max_threads > 2) sweep = {1, max_threads / 2, max_threads};

  std::printf("%s\n", CpuEfficiencyReport::markdown_header().c_str());
  for (int threads : sweep) {
    NetworkConfig cfg =
        bench::slide_config_for(data.train, HashFamilyKind::kSimhash);
    Network network(cfg, threads);
    TrainerConfig tcfg;
    tcfg.batch_size = 128;
    tcfg.num_threads = threads;
    Trainer trainer(network, tcfg);
    EfficiencyProbe probe(trainer);
    trainer.train(data.train, iterations);
    const CpuEfficiencyReport report = probe.finish();
    std::printf("%s\n",
                report
                    .to_markdown_row("SLIDE t=" + std::to_string(threads))
                    .c_str());
  }

  std::printf(
      "\nStall share (1 - utilization) by engine and thread count:\n");
  MarkdownTable stalls({"engine", "threads", "stall share",
                        "lsh-sample share of layer time"});
  for (int threads : sweep) {
    {
      NetworkConfig cfg =
          bench::slide_config_for(data.train, HashFamilyKind::kSimhash);
      Network network(cfg, threads);
      TrainerConfig tcfg;
      tcfg.batch_size = 128;
      tcfg.num_threads = threads;
      Trainer trainer(network, tcfg);
      trainer.train(data.train, iterations);
      const double util = trainer.core_utilization();
      const double sample_s = network.output_layer().sampling_seconds();
      const double math_s = network.output_layer().compute_seconds();
      stalls.add_row({"SLIDE", fmt_int(threads), fmt_pct(1.0 - util, 1),
                      fmt_pct(sample_s / std::max(1e-9, sample_s + math_s),
                              1)});
    }
    {
      Network dense = bench::dense_baseline_for(data.train, 128, threads);
      TrainerConfig tcfg;
      tcfg.batch_size = 128;
      tcfg.num_threads = threads;
      tcfg.learning_rate = 1e-3f;
      Trainer trainer(dense, tcfg);
      trainer.train(data.train, iterations);
      stalls.add_row({"Dense(TF-role)", fmt_int(threads),
                      fmt_pct(1.0 - trainer.core_utilization(), 1), "-"});
    }
  }
  std::printf("%s", stalls.str().c_str());
  std::printf(
      "\nNote: per-pipeline-slot VTune categories (front-end/retiring/core) "
      "need PMU access that\nthis container does not expose; the stall-share "
      "trend above is the reproducible signal.\n");
  return 0;
}
