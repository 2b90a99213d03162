// Baseline tests: the dense full-softmax network and the sampled-softmax
// configuration both learn planted data; their mechanics (full activation,
// static sampling) differ from SLIDE exactly as designed. The dense
// baseline is a builder stack trained by Trainer.
#include <gtest/gtest.h>

#include "baseline/sampled_softmax.h"
#include "core/builder.h"
#include "core/trainer.h"
#include "data/batching.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

SyntheticDataset tiny_data(std::uint64_t seed = 23) {
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 60;
  cfg.num_train = 500;
  cfg.num_test = 120;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.noise_features = 2;
  cfg.max_labels_per_sample = 2;
  cfg.seed = seed;
  return make_synthetic_xc(cfg);
}

Network dense_baseline(Index input_dim, Index hidden, Index labels,
                       int max_batch, int threads) {
  return NetworkBuilder(input_dim)
      .dense(hidden)
      .dense(labels)
      .max_batch(max_batch)
      .build(threads);
}

TrainerConfig trainer_config(int batch, int threads, float lr) {
  TrainerConfig tc;
  tc.batch_size = batch;
  tc.num_threads = threads;
  tc.learning_rate = lr;
  return tc;
}

TEST(DenseBaseline, LearnsPlantedStructure) {
  const auto data = tiny_data();
  Network net = dense_baseline(data.train.feature_dim(), 16,
                               data.train.label_dim(), 32, 2);
  Trainer trainer(net, trainer_config(32, 2, 5e-3f));

  const double before = evaluate_p_at_1(net, data.test, trainer.pool());
  Batcher batcher(data.train, 32, true, 1);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 100; ++i) {
    const float loss = trainer.step(data.train, batcher.next());
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.7f);
  const double after = evaluate_p_at_1(net, data.test, trainer.pool());
  EXPECT_GT(after, before + 0.2);
  EXPECT_GT(after, 0.3);
}

TEST(DenseBaseline, SingleVsMultiThreadSameLossShape) {
  // apply_updates sums each row's gradient in slot order, and the step
  // sums its loss in slot order, so 1-thread and N-thread runs agree to
  // the last bit.
  const auto data = tiny_data(29);
  auto run = [&](int threads) {
    Network net = dense_baseline(data.train.feature_dim(), 8,
                                 data.train.label_dim(), 16, threads);
    Trainer trainer(net, trainer_config(16, threads, 1e-3f));
    Batcher batcher(data.train, 16, true, 2);
    std::vector<float> losses;
    for (int i = 0; i < 10; ++i)
      losses.push_back(trainer.step(data.train, batcher.next()));
    return losses;
  };
  const auto a = run(1);
  const auto b = run(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(DenseBaseline, ParameterCountMatchesArchitecture) {
  const Network net = dense_baseline(10, 4, 7, 2, 1);
  EXPECT_EQ(net.num_parameters(), 10u * 4 + 4 + 7u * 4 + 7);
}

TEST(DenseBaseline, PredictReturnsValidLabel) {
  const Network net = dense_baseline(10, 4, 7, 2, 1);
  InferenceContext ctx(net);
  SparseVector x({1, 3}, {1.0f, 0.5f});
  EXPECT_LT(net.predict_top1(x, ctx, /*exact=*/true), 7u);
}

TEST(SampledSoftmax, ConfigBuildsRandomSampledOutput) {
  const NetworkConfig cfg = make_sampled_softmax_network(100, 50, 10, 8);
  ASSERT_EQ(cfg.layers.size(), 1u);
  EXPECT_FALSE(cfg.layers[0].hashed);
  EXPECT_TRUE(cfg.layers[0].random_sampled);
  EXPECT_EQ(cfg.layers[0].sampling.target, 10u);
  Network net(cfg, 2);
  EXPECT_EQ(net.output_dim(), 50u);
}

TEST(SampledSoftmax, LearnsWithGenerousSampleBudget) {
  const auto data = tiny_data(31);
  NetworkConfig cfg = make_sampled_softmax_network(
      data.train.feature_dim(), data.train.label_dim(),
      /*num_sampled=*/30, /*hidden=*/16);  // 50% of classes
  cfg.max_batch_size = 32;
  Network net(cfg, 2);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 120);
  const double acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_GT(acc, 0.25);
}

TEST(SampledSoftmax, TinySampleBudgetHurtsAccuracy) {
  // The paper's Figure 7 mechanism: static sampling with a small budget
  // converges to worse accuracy than adaptive sampling with the same
  // budget. Train SLIDE and SSM with the same tiny active-set size.
  const auto data = tiny_data(37);

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 5;
  family.l = 16;
  NetworkConfig slide_cfg = make_paper_network(
      data.train.feature_dim(), data.train.label_dim(), family,
      /*target=*/8, /*hidden=*/16);
  slide_cfg.max_batch_size = 32;
  slide_cfg.layers[0].table.range_pow = 9;
  slide_cfg.layers[0].rebuild.initial_period = 20;

  NetworkConfig ssm_cfg = make_sampled_softmax_network(
      data.train.feature_dim(), data.train.label_dim(), /*num_sampled=*/8,
      /*hidden=*/16);
  ssm_cfg.max_batch_size = 32;

  auto train_and_eval = [&](NetworkConfig cfg) {
    Network net(cfg, 2);
    TrainerConfig tc;
    tc.batch_size = 32;
    tc.num_threads = 2;
    tc.learning_rate = 5e-3f;
    Trainer trainer(net, tc);
    trainer.train(data.train, 200);
    return evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  };
  const double slide_acc = train_and_eval(slide_cfg);
  const double ssm_acc = train_and_eval(ssm_cfg);
  // SLIDE's adaptive sampling must beat static sampling at equal budget.
  EXPECT_GT(slide_acc, ssm_acc);
}

}  // namespace
}  // namespace slide
