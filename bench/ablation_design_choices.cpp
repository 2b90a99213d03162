// Ablations of the design choices called out in DESIGN.md §5 (the paper's
// §4 "Reducing Overhead" heuristics and §3 data-structure choices):
//   1. sampling strategy (vanilla / topk / hard-threshold) — accuracy cost
//   2. bucket replacement policy (reservoir / fifo) — end-to-end effect
//   3. hash family (simhash / dwta) on the same workload
//   4. rebuild schedule (exponential decay / fixed period / never)
#include "bench_common.h"

using namespace slide;

namespace {

struct Arm {
  std::string name;
  double seconds = 0.0;
  double accuracy = 0.0;
  long rebuilds = 0;
};

Arm run_arm(const std::string& name, const SyntheticDataset& data,
            NetworkConfig cfg, int threads, long iterations) {
  Arm arm{name};
  Network network(cfg, threads);
  TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.num_threads = threads;
  tcfg.learning_rate = 1e-3f;
  Trainer trainer(network, tcfg);
  WallTimer timer;
  trainer.train(data.train, iterations);
  arm.seconds = timer.seconds();
  arm.accuracy = evaluate_p_at_1(network, data.test, trainer.pool(),
                                 {.exact = true, .max_samples = 1'000});
  arm.rebuilds = network.output_layer().rebuild_count();
  return arm;
}

void print_arms(const char* title, const std::vector<Arm>& arms) {
  std::printf("\n-- %s --\n", title);
  MarkdownTable table({"variant", "train time (s)", "P@1", "rebuilds"});
  for (const Arm& a : arms) {
    table.add_row({a.name, fmt(a.seconds, 2), fmt(a.accuracy, 3),
                   fmt_int(a.rebuilds)});
  }
  std::printf("%s", table.str().c_str());
}

}  // namespace

int main() {
  const Scale scale = bench::env_scale(Scale::kTiny);  // many arms: keep small
  const int threads = bench::env_threads();
  bench::print_header(
      "Ablations: the design choices of paper §3-§4",
      "vanilla sampling, FIFO buckets, per-dataset hash family, exp-decay "
      "rebuilds");
  bench::print_env(scale, threads);

  const auto data = make_synthetic_xc(delicious_like(scale));
  const long iterations = 150;
  const auto base = [&] {
    return bench::slide_config_for(data.train, HashFamilyKind::kSimhash);
  };

  // 1. Sampling strategies.
  {
    std::vector<Arm> arms;
    for (auto strategy :
         {SamplingStrategy::kVanilla, SamplingStrategy::kTopK,
          SamplingStrategy::kHardThreshold}) {
      NetworkConfig cfg = base();
      cfg.layers[0].sampling.strategy = strategy;
      cfg.layers[0].sampling.hard_threshold_m = 2;
      arms.push_back(run_arm(to_string(strategy), data, cfg, threads,
                             iterations));
    }
    print_arms("sampling strategy (paper §4.1 / appendix C.1)", arms);
    std::printf("expectation: near-equal accuracy; vanilla cheapest "
                "(paper uses vanilla)\n");
  }

  // 2. Bucket replacement policy.
  {
    std::vector<Arm> arms;
    for (auto policy : {InsertionPolicy::kReservoir, InsertionPolicy::kFifo}) {
      NetworkConfig cfg = base();
      cfg.layers[0].table.policy = policy;
      arms.push_back(run_arm(policy == InsertionPolicy::kReservoir
                                 ? "reservoir"
                                 : "fifo",
                             data, cfg, threads, iterations));
    }
    print_arms("bucket replacement policy (paper §4.2 / Table 3)", arms);
    std::printf("expectation: near-identical — policy cost is negligible\n");
  }

  // 3. Hash family.
  {
    std::vector<Arm> arms;
    for (auto kind : {HashFamilyKind::kSimhash, HashFamilyKind::kDwta}) {
      NetworkConfig cfg = bench::slide_config_for(data.train, kind);
      arms.push_back(run_arm(to_string(kind), data, cfg, threads,
                             iterations));
    }
    print_arms("hash family (paper §3.2 / appendix A)", arms);
    std::printf("expectation: all train; simhash fits this cosine-shaped "
                "hidden space best\n");
  }

  // 4. Rebuild schedule.
  {
    std::vector<Arm> arms;
    {
      NetworkConfig cfg = base();  // exponential decay (default)
      arms.push_back(
          run_arm("exp-decay (N0=50)", data, cfg, threads, iterations));
    }
    {
      NetworkConfig cfg = base();
      cfg.layers[0].rebuild.decay = 0.0;  // fixed period
      arms.push_back(
          run_arm("fixed period 50", data, cfg, threads, iterations));
    }
    {
      NetworkConfig cfg = base();
      cfg.layers[0].rebuild.enabled = false;  // never refresh
      arms.push_back(run_arm("never rebuild", data, cfg, threads,
                             iterations));
    }
    print_arms("hash-table rebuild schedule (paper §4.2 heuristic 1)", arms);
    std::printf("expectation: stale tables degrade adaptivity; decay saves "
                "rebuild time late in training\n");
  }
  return 0;
}
