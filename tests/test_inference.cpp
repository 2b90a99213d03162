// Inference-path tests: top-k prediction semantics, context reuse,
// sampled-vs-exact agreement properties, and serving-path behaviour on
// multi-label outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

SyntheticDataset planted() {
  SyntheticConfig cfg;
  cfg.feature_dim = 400;
  cfg.label_dim = 80;
  cfg.num_train = 600;
  cfg.num_test = 150;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.noise_features = 2;
  cfg.seed = 301;
  return make_synthetic_xc(cfg);
}

Network trained_network(const SyntheticDataset& data) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 5;
  family.l = 16;
  NetworkConfig cfg = make_paper_network(data.train.feature_dim(),
                                         data.train.label_dim(), family, 24,
                                         16);
  cfg.max_batch_size = 32;
  cfg.layers[0].table.range_pow = 9;
  Network net(cfg, 2);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 150);
  net.rebuild_all(&trainer.pool());
  return net;
}

TEST(PredictTopK, FirstElementIsTop1AndResultsAreUniqueSorted) {
  const auto data = planted();
  Network net = trained_network(data);
  InferenceContext ctx(net.max_sampled_units());
  for (std::size_t i = 0; i < 30; ++i) {
    const auto& x = data.test[i].features;
    const Index top1 = net.predict_top1(x, ctx, /*exact=*/true);
    const auto top5 = net.predict_topk(x, ctx, 5, /*exact=*/true);
    ASSERT_EQ(top5.size(), 5u);
    EXPECT_EQ(top5[0], top1) << i;
    std::set<Index> unique(top5.begin(), top5.end());
    EXPECT_EQ(unique.size(), 5u);
    for (Index label : top5) EXPECT_LT(label, net.output_dim());
  }
}

TEST(PredictTopK, KLargerThanActiveSetIsClamped) {
  const auto data = planted();
  Network net = trained_network(data);
  InferenceContext ctx(net.max_sampled_units());
  // Exact mode: k > output_dim clamps to output_dim.
  const auto all = net.predict_topk(data.test[0].features, ctx,
                                    static_cast<int>(net.output_dim()) + 50,
                                    true);
  EXPECT_EQ(all.size(), net.output_dim());
  // All labels present exactly once.
  std::set<Index> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), net.output_dim());
}

TEST(PredictTopK, ExactScoresAreDescending) {
  // The ranking against a reference: score every unit through the output
  // layer's exact forward, sort by descending score with ties toward the
  // lower unit id, and compare the top 10 and the top 1.
  const auto data = planted();
  Network net = trained_network(data);
  InferenceContext ctx(net);
  std::vector<float> hidden(net.embedding().units());
  std::vector<Index> ids;
  std::vector<float> scores;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& x = data.test[i].features;
    net.embedding().forward_inference(x, hidden.data());
    net.stack(0).forward_inference({}, hidden, true, ctx.rng, ctx.visited,
                                   ids, scores);
    ASSERT_EQ(ids.size(), net.output_dim());
    std::vector<Index> want(ids.size());
    std::iota(want.begin(), want.end(), Index{0});
    std::stable_sort(want.begin(), want.end(), [&](Index a, Index b) {
      return scores[a] > scores[b];
    });
    want.resize(10);
    EXPECT_EQ(net.predict_topk(x, ctx, 10, true), want) << i;
    EXPECT_EQ(net.predict_top1(x, ctx, true), want[0]) << i;
  }
}

TEST(PredictTopK, RejectsNonPositiveK) {
  const auto data = planted();
  Network net = trained_network(data);
  InferenceContext ctx(net.max_sampled_units());
  EXPECT_THROW(net.predict_topk(data.test[0].features, ctx, 0, true), Error);
}

TEST(Inference, ContextIsReusableAcrossManyPredictions) {
  const auto data = planted();
  Network net = trained_network(data);
  InferenceContext ctx(net.max_sampled_units());
  // Interleave exact/sampled/topk calls through one context; results of
  // exact calls must be stable regardless of interleaving.
  std::vector<Index> first;
  for (std::size_t i = 0; i < 10; ++i)
    first.push_back(net.predict_top1(data.test[i].features, ctx, true));
  for (std::size_t i = 0; i < 10; ++i) {
    net.predict_top1(data.test[i].features, ctx, false);
    net.predict_topk(data.test[i].features, ctx, 3, false);
    EXPECT_EQ(net.predict_top1(data.test[i].features, ctx, true), first[i]);
  }
}

TEST(Inference, SampledTopKOverlapsExactTopKOnTrainedModel) {
  const auto data = planted();
  Network net = trained_network(data);
  InferenceContext ctx(net.max_sampled_units());
  int overlap = 0, total = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const auto exact = net.predict_topk(data.test[i].features, ctx, 3, true);
    const auto sampled =
        net.predict_topk(data.test[i].features, ctx, 3, false);
    for (Index p : sampled) {
      ++total;
      overlap +=
          std::find(exact.begin(), exact.end(), p) != exact.end() ? 1 : 0;
    }
  }
  // The hash tables route most top predictions into the sampled set.
  EXPECT_GT(overlap, total / 3);
}

TEST(Inference, UntrainedPredictionsAreValidLabels) {
  const auto data = planted();
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kDwta;
  family.k = 4;
  family.l = 8;
  NetworkConfig cfg = make_paper_network(data.train.feature_dim(),
                                         data.train.label_dim(), family, 16,
                                         8);
  cfg.max_batch_size = 4;
  cfg.layers[0].table.range_pow = 8;
  Network net(cfg, 1);
  InferenceContext ctx(net.max_sampled_units());
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_LT(net.predict_top1(data.test[i].features, ctx, false),
              net.output_dim());
  }
}

}  // namespace
}  // namespace slide
