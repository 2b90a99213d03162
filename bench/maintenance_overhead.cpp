// Maintenance-overhead bench: sync vs async LSH table maintenance.
//
// SLIDE's hash-table refresh is the dominant non-compute overhead (Chen et
// al. §4.2 amortize it with decaying schedules; Daghaghi et al. 2021 name
// maintenance cost as the next bottleneck after vectorization). This bench
// trains the same model under both MaintenancePolicy settings and two
// refresh cadences, timing end-to-end training (including a final
// flush/quiesce, so async policies cannot hide unfinished work) plus the
// trainer-visible rebuild stall:
//
//   sync        — full rebuild on the trainer thread (stalls every step)
//   async_full  — full rebuild on the background thread (shadow + publish)
//
// Emits BENCH_maintenance.json for the CI benchmark-regression gate
// (tools/bench_compare.py): samples_per_sec and the async-vs-sync speedups
// are the gated, higher-is-better metrics.
#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace slide {
namespace {

struct Workload {
  Index features, labels, hidden, target;
  std::size_t num_train;
  int batch;
  long iterations;
};

Workload workload_for(Scale scale) {
  switch (scale) {
    case Scale::kTiny:
      return {.features = 2'000, .labels = 16'384, .hidden = 32,
              .target = 64, .num_train = 1'500, .batch = 32,
              .iterations = 120};
    case Scale::kSmall:
      return {.features = 5'000, .labels = 32'768, .hidden = 64,
              .target = 128, .num_train = 4'000, .batch = 64,
              .iterations = 120};
    case Scale::kMedium:
      return {.features = 20'000, .labels = 65'536, .hidden = 128,
              .target = 256, .num_train = 8'000, .batch = 128,
              .iterations = 200};
    case Scale::kPaper:
      return {.features = 100'000, .labels = 200'000, .hidden = 128,
              .target = 1'024, .num_train = 20'000, .batch = 128,
              .iterations = 400};
  }
  return workload_for(Scale::kTiny);
}

struct Arm {
  const char* schedule;
  MaintenancePolicy policy;
  double total_seconds = 0.0;
  double samples_per_sec = 0.0;
  double rebuild_stall_seconds = 0.0;
  long rebuilds = 0;
  long publishes = 0;
  double p_at_1 = 0.0;
};

Arm run_arm_once(const char* schedule, const RebuildSchedule& rebuild,
                 MaintenancePolicy policy, const Workload& w,
                 const SyntheticDataset& data, int threads) {
  Arm arm{.schedule = schedule, .policy = policy};

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 6;
  family.l = 20;
  NetworkConfig cfg = NetworkBuilder(w.features)
                          .dense(w.hidden)
                          .sampled(w.labels, family, w.target)
                          .rebuild_schedule(rebuild)
                          .maintenance(policy)
                          .max_batch(w.batch)
                          .seed(7)
                          .to_config();
  cfg.layers[0].table.range_pow = 11;
  cfg.layers[0].table.bucket_size = 64;

  Network net(cfg, threads);
  TrainerConfig tc;
  tc.batch_size = w.batch;
  tc.num_threads = threads;
  tc.learning_rate = 1e-3f;
  Trainer trainer(net, tc);

  // End-to-end clock: training plus the final settle. quiesce_maintenance
  // inside the timed region keeps the comparison honest — an async policy
  // gets no credit for work it merely deferred past the finish line.
  WallTimer total;
  trainer.train(data.train, w.iterations);
  net.quiesce_maintenance();
  arm.total_seconds = total.seconds();

  arm.samples_per_sec =
      static_cast<double>(w.iterations) * w.batch / arm.total_seconds;
  arm.rebuild_stall_seconds = trainer.time_breakdown().rebuild_seconds;
  arm.rebuilds = net.output_layer().rebuild_count();
  arm.publishes =
      static_cast<long>(net.output_layer().tables()->publish_count());
  arm.p_at_1 = evaluate_p_at_1(net, data.test, trainer.pool(),
                               {.exact = true, .max_samples = 500});
  return arm;
}

/// Best-of-N wall clock (SLIDE_BENCH_REPS, default 3): scheduler noise on
/// shared runners only ever adds time, so the minimum is the stable
/// estimate the CI regression gate compares.
Arm run_arm(const char* schedule, const RebuildSchedule& rebuild,
            MaintenancePolicy policy, const Workload& w,
            const SyntheticDataset& data, int threads) {
  const char* env = std::getenv("SLIDE_BENCH_REPS");
  const int reps = env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 3;
  Arm best;
  for (int r = 0; r < reps; ++r) {
    Arm arm = run_arm_once(schedule, rebuild, policy, w, data, threads);
    if (r == 0 || arm.total_seconds < best.total_seconds) best = arm;
  }
  return best;
}

}  // namespace
}  // namespace slide

int main() {
  using namespace slide;
  const auto scale = bench::env_scale();
  // The stall being measured scales with the number of threads it blocks:
  // run with at least 8 trainer threads (the acceptance regime) unless the
  // environment pins a count.
  const char* env = std::getenv("SLIDE_BENCH_THREADS");
  const int threads = env != nullptr && std::atoi(env) > 0
                          ? std::atoi(env)
                          : std::max(8, hardware_threads());
  const Workload w = workload_for(scale);

  bench::print_header(
      "BENCH maintenance_overhead — async LSH maintenance vs sync rebuilds",
      "rebuild stall removal (cf. paper §4.2, Daghaghi et al. 2021)");
  bench::print_env(scale, threads);
  std::printf("[cfg] features=%d labels=%d hidden=%d target=%d batch=%d "
              "iterations=%ld\n",
              static_cast<int>(w.features), static_cast<int>(w.labels),
              static_cast<int>(w.hidden), static_cast<int>(w.target), w.batch,
              w.iterations);

  SyntheticConfig dcfg;
  dcfg.feature_dim = w.features;
  dcfg.label_dim = w.labels;
  dcfg.num_train = w.num_train;
  dcfg.num_test = 500;
  dcfg.seed = 13;
  const auto data = make_synthetic_xc(dcfg);

  // Two cadences: "paper" is the decaying schedule of §4.2 (maintenance is
  // already amortized; async mostly removes the residual stall);
  // "aggressive" refreshes every 2 iterations (maximum table freshness —
  // the regime where synchronous maintenance dominates the step time).
  const RebuildSchedule paper{.enabled = true, .initial_period = 20,
                              .decay = 0.05};
  const RebuildSchedule aggressive{.enabled = true, .initial_period = 2,
                                   .decay = 0.0};

  std::vector<Arm> arms;
  for (const auto& [name, schedule] :
       {std::pair<const char*, RebuildSchedule>{"paper", paper},
        std::pair<const char*, RebuildSchedule>{"aggressive", aggressive}}) {
    for (auto policy :
         {MaintenancePolicy::kSync, MaintenancePolicy::kAsyncFull}) {
      arms.push_back(run_arm(name, schedule, policy, w, data, threads));
      const Arm& a = arms.back();
      std::printf(
          "[arm] schedule=%-10s policy=%-11s total=%7.3fs samples/s=%9.1f "
          "stall=%6.3fs rebuilds=%3ld publishes=%3ld p@1=%.3f\n",
          a.schedule, to_string(a.policy), a.total_seconds, a.samples_per_sec,
          a.rebuild_stall_seconds, a.rebuilds, a.publishes, a.p_at_1);
    }
  }

  auto find = [&](const char* schedule, MaintenancePolicy policy) -> const Arm& {
    for (const auto& a : arms)
      if (std::string_view(a.schedule) == schedule && a.policy == policy)
        return a;
    throw Error("arm not found");
  };
  const double full_speedup =
      find("aggressive", MaintenancePolicy::kSync).total_seconds /
      find("aggressive", MaintenancePolicy::kAsyncFull).total_seconds;
  std::printf("\n[summary] aggressive cadence: async_full %.2fx vs sync "
              "(threads=%d)\n",
              full_speedup, threads);

  bench::Json json;
  json.begin_object();
  json.key("bench").string("maintenance_overhead");
  json.key("scale").string(bench::scale_name(scale));
  json.key("threads").number(static_cast<long long>(threads));
  json.key("iterations").number(static_cast<long long>(w.iterations));
  json.key("batch").number(static_cast<long long>(w.batch));
  json.key("labels").number(static_cast<long long>(w.labels));
  json.key("arms").begin_array();
  for (const auto& a : arms) {
    json.begin_object();
    json.key("schedule").string(a.schedule);
    json.key("policy").string(to_string(a.policy));
    json.key("total_seconds").number(a.total_seconds);
    json.key("samples_per_sec").number(a.samples_per_sec);
    json.key("rebuild_stall_seconds").number(a.rebuild_stall_seconds);
    json.key("rebuilds").number(static_cast<long long>(a.rebuilds));
    json.key("publishes").number(static_cast<long long>(a.publishes));
    json.key("p_at_1").number(a.p_at_1);
    json.end_object();
  }
  json.end_array();
  json.key("speedup_async_full_vs_sync").number(full_speedup);
  json.end_object();
  json.write_file(bench::json_path("BENCH_maintenance.json"));
  return 0;
}
