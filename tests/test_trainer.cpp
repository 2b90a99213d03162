// Trainer tests: end-to-end convergence on planted synthetic data,
// single-thread determinism, multi-thread training, rebuild scheduling and
// instrumentation plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

SyntheticDataset tiny_data(std::uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.feature_dim = 400;
  cfg.label_dim = 80;
  cfg.num_train = 600;
  cfg.num_test = 150;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.noise_features = 2;
  cfg.min_labels_per_sample = 1;
  cfg.max_labels_per_sample = 2;
  cfg.seed = seed;
  return make_synthetic_xc(cfg);
}

NetworkConfig tiny_net_config(const SyntheticDataset& data,
                              Index target = 24) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 5;
  family.l = 16;
  NetworkConfig cfg = make_paper_network(data.train.feature_dim(),
                                         data.train.label_dim(), family,
                                         target, /*hidden=*/16);
  cfg.max_batch_size = 32;
  cfg.layers[0].table.range_pow = 9;
  cfg.layers[0].table.bucket_size = 32;
  cfg.layers[0].rebuild.initial_period = 20;
  return cfg;
}

TEST(Trainer, LossFallsAndAccuracyRisesOnPlantedData) {
  const auto data = tiny_data();
  NetworkConfig net_cfg = tiny_net_config(data);
  Network net(net_cfg, 2);
  TrainerConfig cfg;
  cfg.batch_size = 32;
  cfg.num_threads = 2;
  cfg.learning_rate = 5e-3f;
  Trainer trainer(net, cfg);

  ThreadPool& pool = trainer.pool();
  const double acc_before =
      evaluate_p_at_1(net, data.test, pool, {.exact = true});

  Batcher batcher(data.train, 32, true, 1);
  float early_loss = 0.0f, late_loss = 0.0f;
  const int iters = 120;
  for (int i = 0; i < iters; ++i) {
    const float loss = trainer.step(data.train, batcher.next());
    if (i < 10) early_loss += loss;
    if (i >= iters - 10) late_loss += loss;
  }
  EXPECT_LT(late_loss, early_loss * 0.8f);

  const double acc_after =
      evaluate_p_at_1(net, data.test, pool, {.exact = true});
  EXPECT_GT(acc_after, acc_before + 0.15);
  EXPECT_GT(acc_after, 0.25);
}

TEST(Trainer, SingleThreadIsDeterministic) {
  const auto data = tiny_data(7);
  auto run = [&] {
    NetworkConfig net_cfg = tiny_net_config(data);
    Network net(net_cfg, 1);
    TrainerConfig cfg;
    cfg.batch_size = 16;
    cfg.num_threads = 1;
    cfg.learning_rate = 1e-3f;
    cfg.seed = 5;
    Trainer trainer(net, cfg);
    std::vector<float> losses;
    Batcher batcher(data.train, 16, true, 3);
    for (int i = 0; i < 20; ++i)
      losses.push_back(trainer.step(data.train, batcher.next()));
    return losses;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(Trainer, FourThreadTrainingConverges) {
  const auto data = tiny_data(9);
  NetworkConfig net_cfg = tiny_net_config(data);
  Network net(net_cfg, 4);
  TrainerConfig cfg;
  cfg.batch_size = 32;
  cfg.num_threads = 4;  // oversubscribed on 2 cores — still correct
  cfg.learning_rate = 5e-3f;
  Trainer trainer(net, cfg);
  trainer.train(data.train, 120);
  const double acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_GT(acc, 0.25);
}

TEST(Trainer, TrainCallbackFiresOnSchedule) {
  const auto data = tiny_data(13);
  NetworkConfig net_cfg = tiny_net_config(data);
  Network net(net_cfg, 1);
  TrainerConfig cfg;
  cfg.batch_size = 16;
  cfg.num_threads = 1;
  Trainer trainer(net, cfg);
  std::vector<long> fired;
  trainer.train(data.train, 10, [&](long it) { fired.push_back(it); }, 3);
  // Fires at 3, 6, 9 and on the last iteration (10).
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], 3);
  EXPECT_EQ(fired[3], 10);
}

TEST(Trainer, RebuildScheduleAdvancesDuringTraining) {
  const auto data = tiny_data(15);
  NetworkConfig net_cfg = tiny_net_config(data);
  net_cfg.layers[0].rebuild.initial_period = 10;
  net_cfg.layers[0].rebuild.decay = 0.1;
  Network net(net_cfg, 1);
  TrainerConfig cfg;
  cfg.batch_size = 16;
  cfg.num_threads = 1;
  Trainer trainer(net, cfg);
  trainer.train(data.train, 50);
  EXPECT_GE(net.output_layer().rebuild_count(), 2);
  EXPECT_LE(net.output_layer().rebuild_count(), 5);
}

TEST(Trainer, TimeBreakdownAndUtilizationArePopulated) {
  const auto data = tiny_data(17);
  NetworkConfig net_cfg = tiny_net_config(data);
  Network net(net_cfg, 2);
  TrainerConfig cfg;
  cfg.batch_size = 32;
  cfg.num_threads = 2;
  Trainer trainer(net, cfg);
  trainer.train(data.train, 20);
  const auto& b = trainer.time_breakdown();
  EXPECT_GT(b.total_seconds, 0.0);
  EXPECT_GT(b.batch_compute_seconds, 0.0);
  EXPECT_GT(b.update_seconds, 0.0);
  EXPECT_LE(b.batch_compute_seconds + b.update_seconds + b.rebuild_seconds,
            b.total_seconds * 1.05);
  const double util = trainer.core_utilization();
  EXPECT_GT(util, 0.05);
  EXPECT_LE(util, 1.05);
  EXPECT_GT(net.output_layer().sampling_seconds(), 0.0);
  EXPECT_GT(net.output_layer().compute_seconds(), 0.0);
}

TEST(Trainer, CoreUtilizationIgnoresPoolWorkBetweenSteps) {
  // Callers may run their own work on pool() between steps (an evaluation,
  // say); its busy time must not count against step() wall time.
  const auto data = tiny_data(18);
  NetworkConfig net_cfg = tiny_net_config(data);
  Network net(net_cfg, 2);
  TrainerConfig cfg;
  cfg.batch_size = 32;
  cfg.num_threads = 2;
  Trainer trainer(net, cfg);
  Batcher batcher(data.train, 32, true, 1);
  for (int i = 0; i < 10; ++i) {
    trainer.step(data.train, batcher.next());
    trainer.pool().run_on_all([](int) {
      WallTimer spin;
      while (spin.seconds() < 0.01) {
      }
    });
  }
  const double util = trainer.core_utilization();
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0);
}

TEST(Trainer, BatchSizeValidation) {
  const auto data = tiny_data(19);
  NetworkConfig net_cfg = tiny_net_config(data);
  Network net(net_cfg, 1);
  TrainerConfig cfg;
  cfg.batch_size = 1'000;  // > max_batch_size (32)
  EXPECT_THROW(Trainer(net, cfg), Error);
}

TEST(Trainer, ActiveFractionIsSmall) {
  // The headline mechanism: far fewer than all neurons are active.
  const auto data = tiny_data(21);
  NetworkConfig net_cfg = tiny_net_config(data, /*target=*/24);
  Network net(net_cfg, 2);
  TrainerConfig cfg;
  cfg.batch_size = 32;
  cfg.num_threads = 2;
  Trainer trainer(net, cfg);
  trainer.train(data.train, 30);
  const double frac = net.output_layer().average_active_fraction();
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 0.45);  // 24-ish (+labels) of 80 classes
}

}  // namespace
}  // namespace slide
