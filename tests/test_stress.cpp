// Stress and extended property tests: concurrency hammering of the shared
// structures, the statistical LSH law (Simhash match rate vs p^K),
// round-trip fuzzing of the XC format, and checkpoint-resume training.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>

#include "core/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/xc_reader.h"
#include "lsh/collision.h"
#include "lsh/simhash.h"
#include "lsh/table_group.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

// ---------------------------------------------------------------------------
// Concurrency stress
// ---------------------------------------------------------------------------

TEST(Stress, ParallelRebuildsBetweenTrainingStepsStayConsistent) {
  SyntheticConfig dcfg;
  dcfg.feature_dim = 300;
  dcfg.label_dim = 80;
  dcfg.num_train = 300;
  dcfg.num_test = 50;
  const auto data = make_synthetic_xc(dcfg);
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 12;
  NetworkConfig cfg = make_paper_network(300, 80, family, 20, 8);
  cfg.max_batch_size = 32;
  cfg.layers[0].table.range_pow = 8;
  cfg.layers[0].rebuild.initial_period = 2;  // rebuild nearly every step
  cfg.layers[0].rebuild.decay = 0.0;
  Network net(cfg, 4);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 4;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 60);  // would crash/hang on rebuild races
  EXPECT_GE(net.output_layer().rebuild_count(), 25);
  const double acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_GT(acc, 0.2);
}

TEST(Stress, ManySmallParallelLoopsDoNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 2'000; ++round) {
    pool.parallel_for(3, [&](std::size_t, int) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 6'000);
}

// ---------------------------------------------------------------------------
// Statistical LSH laws
// ---------------------------------------------------------------------------

std::vector<float> random_unit(Index dim, Rng& rng) {
  std::vector<float> v(dim);
  float norm = 0.0f;
  for (auto& x : v) {
    x = rng.normal();
    norm += x * x;
  }
  norm = std::sqrt(norm);
  for (auto& x : v) x /= norm;
  return v;
}

class SimhashKLaw : public ::testing::TestWithParam<int> {};

TEST_P(SimhashKLaw, TableMatchRateApproximatesPToTheK) {
  // For fixed cosine similarity, the per-table key match rate must track
  // p^K with p = 1 - acos(cos)/pi (paper §2 meta-hash argument).
  const int k = GetParam();
  const double cosine = 0.8;
  Simhash h({.k = k, .l = 600, .dim = 256, .density = 1.0, .seed = 42});
  Rng rng(static_cast<std::uint64_t>(k));
  double rate = 0.0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const auto x = random_unit(256, rng);
    auto noise = random_unit(256, rng);
    std::vector<float> y(256);
    const float s = std::sqrt(1.0f - static_cast<float>(cosine * cosine));
    for (int d = 0; d < 256; ++d)
      y[static_cast<std::size_t>(d)] =
          static_cast<float>(cosine) * x[static_cast<std::size_t>(d)] +
          s * noise[static_cast<std::size_t>(d)];
    std::vector<std::uint32_t> ka(h.l()), kb(h.l());
    h.hash_dense(x.data(), ka);
    h.hash_dense(y.data(), kb);
    int match = 0;
    for (int i = 0; i < h.l(); ++i) match += ka[i] == kb[i] ? 1 : 0;
    rate += static_cast<double>(match) / h.l();
  }
  rate /= trials;
  const double expected =
      meta_hash_probability(simhash_collision_probability(cosine), k);
  EXPECT_NEAR(rate, expected, 0.05) << "K=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, SimhashKLaw, ::testing::Values(1, 2, 4, 6, 9));

// ---------------------------------------------------------------------------
// XC round-trip fuzz (parameterized over dataset shapes)
// ---------------------------------------------------------------------------

struct XcShape {
  Index features;
  Index labels;
  std::size_t samples;
};

class XcRoundTrip : public ::testing::TestWithParam<XcShape> {};

TEST_P(XcRoundTrip, RandomDatasetSurvivesWriteRead) {
  const auto [features, labels, samples] = GetParam();
  Rng rng(features * 31 + labels);
  Dataset d(features, labels);
  for (std::size_t i = 0; i < samples; ++i) {
    Sample s;
    const int nnz = 1 + static_cast<int>(rng.uniform(12));
    for (int j = 0; j < nnz; ++j)
      s.features.push_back(rng.uniform(features),
                           rng.uniform_float() * 4.0f - 2.0f);
    s.features.compact();
    const int nlab = static_cast<int>(rng.uniform(4));  // may be zero
    for (int j = 0; j < nlab; ++j) s.labels.push_back(rng.uniform(labels));
    d.add(std::move(s));
  }
  std::stringstream buffer;
  write_xc(buffer, d);
  const Dataset back = read_xc(buffer, /*l2_normalize=*/false);
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    ASSERT_EQ(back[i].labels, d[i].labels) << i;
    ASSERT_EQ(back[i].features.nnz(), d[i].features.nnz()) << i;
    for (std::size_t j = 0; j < d[i].features.nnz(); ++j) {
      ASSERT_EQ(back[i].features.indices()[j], d[i].features.indices()[j]);
      ASSERT_NEAR(back[i].features.values()[j], d[i].features.values()[j],
                  std::fabs(d[i].features.values()[j]) * 1e-5f + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, XcRoundTrip,
                         ::testing::Values(XcShape{10, 5, 20},
                                           XcShape{1'000, 200, 50},
                                           XcShape{100'000, 50'000, 30}));

// ---------------------------------------------------------------------------
// Checkpoint-resume training
// ---------------------------------------------------------------------------

TEST(Stress, TrainingResumesFromCheckpoint) {
  SyntheticConfig dcfg;
  dcfg.feature_dim = 300;
  dcfg.label_dim = 60;
  dcfg.num_train = 400;
  dcfg.num_test = 100;
  dcfg.seed = 17;
  const auto data = make_synthetic_xc(dcfg);
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 10;
  NetworkConfig cfg = make_paper_network(300, 60, family, 16, 8);
  cfg.max_batch_size = 16;
  cfg.layers[0].table.range_pow = 8;

  Network first(cfg, 2);
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  {
    Trainer trainer(first, tc);
    trainer.train(data.train, 60);
  }
  std::stringstream checkpoint;
  save_weights(first, checkpoint);
  ThreadPool eval_pool(2);
  const double mid = evaluate_p_at_1(first, data.test, eval_pool,
                                     {.exact = true});

  cfg.seed = 4'242;  // fresh init, then restore
  Network resumed(cfg, 2);
  load_weights(resumed, checkpoint);
  Trainer trainer(resumed, tc);
  trainer.train(data.train, 120);
  const double after = evaluate_p_at_1(resumed, data.test, trainer.pool(),
                                       {.exact = true});
  EXPECT_GT(after, mid - 0.05);  // training continued productively
}

}  // namespace
}  // namespace slide
