// Table 2 — "Core Utilization": SLIDE vs the dense baseline (TF-CPU role)
// at increasing thread counts.
//
// Paper shape: TF-CPU utilization is low (<50%) and *falls* as threads
// increase (8->32 threads: 45%->32%); SLIDE stays high (~80%+) because each
// batch instance runs independently with tiny, thread-private state and
// lock-free updates.
//
// The dense baseline takes no lock (DESIGN.md §7), so its multi-thread
// times read lower than in runs recorded before it lost its accumulation
// locks.
//
// VTune substitution (DESIGN.md §3): utilization = busy-time fraction of
// (threads x wall-time) from the pool's per-thread accounting.
#include "bench_common.h"

using namespace slide;

int main() {
  const Scale scale = bench::env_scale();
  const int max_threads = bench::env_threads();
  bench::print_header(
      "Table 2: core utilization vs thread count",
      "TF-CPU: 45%/35%/32% at 8/16/32 threads; SLIDE: 82%/81%/85%");
  bench::print_env(scale, max_threads);
  std::printf("[note] container has %d hardware threads; sweep uses "
              "{1, 2, %d} (set SLIDE_BENCH_THREADS to widen)\n",
              hardware_threads(), 2 * max_threads);

  const auto data = make_synthetic_xc(delicious_like(scale));
  const long iterations = scale == Scale::kTiny ? 60 : 40;
  std::vector<int> sweep = {1, 2, 2 * max_threads};
  if (max_threads > 2) sweep = {1, max_threads / 2, max_threads,
                                2 * max_threads};

  MarkdownTable table({"engine", "threads", "utilization", "batch time (s)",
                       "note"});
  std::vector<double> slide_util, dense_util;  // one entry per sweep point
  for (int threads : sweep) {
    // SLIDE.
    {
      NetworkConfig cfg =
          bench::slide_config_for(data.train, HashFamilyKind::kSimhash);
      Network network(cfg, threads);
      TrainerConfig tcfg;
      tcfg.batch_size = 128;
      tcfg.num_threads = threads;
      Trainer trainer(network, tcfg);
      trainer.train(data.train, iterations);
      slide_util.push_back(trainer.core_utilization());
      table.add_row({"SLIDE", fmt_int(threads),
                     fmt_pct(trainer.core_utilization(), 1),
                     fmt(trainer.time_breakdown().total_seconds, 2),
                     threads > hardware_threads() ? "oversubscribed" : ""});
    }
    // Dense baseline: utilization measured the same way, by its Trainer.
    {
      Network dense = bench::dense_baseline_for(data.train, 128, threads);
      TrainerConfig tcfg;
      tcfg.batch_size = 128;
      tcfg.num_threads = threads;
      tcfg.learning_rate = 1e-3f;
      Trainer trainer(dense, tcfg);
      trainer.train(data.train, iterations);
      dense_util.push_back(trainer.core_utilization());
      table.add_row({"Dense(TF-role)", fmt_int(threads),
                     fmt_pct(trainer.core_utilization(), 1),
                     fmt(trainer.time_breakdown().total_seconds, 2),
                     threads > hardware_threads() ? "oversubscribed" : ""});
    }
  }
  std::printf("%s", table.str().c_str());
  // The reading is computed from the rows above, so it cannot claim the
  // paper's trend (the dense engine decays, SLIDE holds) where they differ.
  const double slide_change =
      100.0 * (slide_util.back() - slide_util.front());
  const double dense_change =
      100.0 * (dense_util.back() - dense_util.front());
  const char* verdict =
      slide_change >= 0.0 && dense_change >= 0.0 ? "neither fell"
      : dense_change < slide_change              ? "the dense engine fell more"
      : slide_change < dense_change              ? "SLIDE fell more"
                                                 : "both fell equally";
  std::printf(
      "\nReading: from 1 to %d threads SLIDE's utilization went %s -> %s "
      "(%+.1f points) and\nthe dense engine's %s -> %s (%+.1f points): %s.\n",
      sweep.back(), fmt_pct(slide_util.front()).c_str(),
      fmt_pct(slide_util.back()).c_str(), slide_change,
      fmt_pct(dense_util.front()).c_str(), fmt_pct(dense_util.back()).c_str(),
      dense_change, verdict);
  return 0;
}
