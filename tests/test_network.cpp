// Network-level tests: construction, the all-active equivalence between the
// hashed path and dense computation, training-sample mechanics and the
// pending-slot contract, bit-identical steps at every pool size,
// prediction paths, and parameter accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "core/network.h"
#include "core/trainer.h"

namespace slide {
namespace {

NetworkConfig tiny_config(Index input_dim = 20, Index labels = 50,
                          Index hidden = 8, Index target = 16) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 8;
  NetworkConfig cfg = make_paper_network(input_dim, labels, family, target,
                                         hidden);
  cfg.max_batch_size = 8;
  cfg.layers[0].table.range_pow = 8;
  cfg.layers[0].table.bucket_size = 32;
  return cfg;
}

Sample make_sample(std::initializer_list<Index> feat,
                   std::initializer_list<Index> labels) {
  Sample s;
  std::vector<Index> idx(feat);
  std::vector<float> val(idx.size(), 0.5f);
  s.features = SparseVector(std::move(idx), std::move(val));
  s.features.l2_normalize();
  s.labels = labels;
  return s;
}

/// Everything lazy Adam writes, the output layer gathered shard by shard
/// into its logical [units x fan_in] and [units] arrays.
struct Params {
  std::vector<float> embedding_w, embedding_b, output_w, output_b;
};

Params params_of(const Network& net) {
  Params p;
  const auto ew = net.embedding().weights_span();
  const auto eb = net.embedding().bias_span();
  p.embedding_w.assign(ew.begin(), ew.end());
  p.embedding_b.assign(eb.begin(), eb.end());
  const Layer& out = net.stack(net.stack_depth() - 1);
  for (int s = 0; s < out.num_shards(); ++s) {
    const auto w = out.shard_weights(s);
    const auto b = out.shard_bias(s);
    p.output_w.insert(p.output_w.end(), w.begin(), w.end());
    p.output_b.insert(p.output_b.end(), b.begin(), b.end());
  }
  return p;
}

void expect_same_bits(const std::vector<float>& a, const std::vector<float>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

TEST(Network, ConstructionAndShapes) {
  Network net(tiny_config(), 2);
  EXPECT_EQ(net.input_dim(), 20u);
  EXPECT_EQ(net.output_dim(), 50u);
  EXPECT_EQ(net.num_layers(), 2);
  EXPECT_EQ(net.embedding().units(), 8u);
  EXPECT_TRUE(net.output_layer().hashed());
  // params: 20*8 + 8 (embedding) + 50*8 + 50 (output)
  EXPECT_EQ(net.num_parameters(), 20u * 8 + 8 + 50u * 8 + 50);
}

TEST(Network, RejectsInvalidConfig) {
  NetworkConfig cfg = tiny_config();
  cfg.input_dim = 0;
  EXPECT_THROW(Network(cfg, 2), Error);
  cfg = tiny_config();
  cfg.layers.clear();
  EXPECT_THROW(Network(cfg, 2), Error);
}

TEST(Network, TrainSampleReturnsFiniteLossAndActivatesLabels) {
  Network net(tiny_config(), 2);
  const Sample s = make_sample({1, 5, 7}, {13, 30});
  Rng rng(1);
  VisitedSet visited(net.max_sampled_units());
  const float loss = net.train_sample(0, s, 1.0f, rng, visited, 0);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);
  const auto& ids = net.output_layer().slot(0).ids;
  ASSERT_GE(ids.size(), 2u);
  EXPECT_EQ(ids[0], 13u);
  EXPECT_EQ(ids[1], 30u);
}

TEST(Network, LossDecreasesWithRepeatedUpdatesOnOneSample) {
  Network net(tiny_config(), 2);
  const Sample s = make_sample({2, 3}, {7});
  Rng rng(2);
  VisitedSet visited(net.max_sampled_units());
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 60; ++step) {
    const float loss = net.train_sample(0, s, 1.0f, rng, visited, 0);
    if (step == 0) first = loss;
    last = loss;
    net.apply_updates(0.01f, nullptr);
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(Network, PredictLearnsTheTrainedLabel) {
  Network net(tiny_config(), 2);
  const Sample s = make_sample({2, 3}, {7});
  Rng rng(3);
  VisitedSet visited(net.max_sampled_units());
  for (int step = 0; step < 80; ++step) {
    net.train_sample(0, s, 1.0f, rng, visited, 0);
    net.apply_updates(0.01f, nullptr);
  }
  net.rebuild_all(nullptr);
  InferenceContext ctx(net.max_sampled_units());
  EXPECT_EQ(net.predict_top1(s.features, ctx, /*exact=*/true), 7u);
  EXPECT_EQ(net.predict_top1(s.features, ctx, /*exact=*/false), 7u);
}

TEST(Network, AllActiveHashedMatchesExactPrediction) {
  // With sampling.target >= units the hashed path activates every neuron, so
  // sampled and exact predictions must agree everywhere.
  NetworkConfig cfg = tiny_config(20, 40, 8, /*target=*/1'000);
  Network net(cfg, 2);
  InferenceContext ctx(net.max_sampled_units());
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Sample s = make_sample({rng.uniform(20), rng.uniform(20)}, {0});
    const Index exact = net.predict_top1(s.features, ctx, true);
    const Index sampled = net.predict_top1(s.features, ctx, false);
    EXPECT_EQ(exact, sampled);
  }
}

TEST(Network, MaybeRebuildHonorsSchedule) {
  NetworkConfig cfg = tiny_config();
  cfg.layers[0].rebuild.initial_period = 5;
  cfg.layers[0].rebuild.decay = 0.0;  // constant gap
  Network net(cfg, 2);
  net.maybe_rebuild(4, nullptr);
  EXPECT_EQ(net.output_layer().rebuild_count(), 0);
  net.maybe_rebuild(5, nullptr);
  EXPECT_EQ(net.output_layer().rebuild_count(), 1);
  net.maybe_rebuild(9, nullptr);
  EXPECT_EQ(net.output_layer().rebuild_count(), 1);
  net.maybe_rebuild(10, nullptr);
  EXPECT_EQ(net.output_layer().rebuild_count(), 2);
}

TEST(Network, MultiLayerSampledStackTrains) {
  // Three-layer net with a hashed middle layer (paper Figure 2 shows hash
  // tables in hidden layers as well).
  NetworkConfig cfg;
  cfg.input_dim = 30;
  cfg.hidden_units = 8;
  cfg.max_batch_size = 4;

  LayerSpec middle;
  middle.units = 64;
  middle.activation = Activation::kReLU;
  middle.hashed = true;
  middle.family.kind = HashFamilyKind::kSimhash;
  middle.family.k = 3;
  middle.family.l = 6;
  middle.table.range_pow = 6;
  middle.table.bucket_size = 16;
  middle.sampling.target = 16;

  LayerSpec output;
  output.units = 40;
  output.activation = Activation::kSoftmax;
  output.hashed = true;
  output.family.kind = HashFamilyKind::kSimhash;
  output.family.k = 3;
  output.family.l = 6;
  output.table.range_pow = 6;
  output.table.bucket_size = 16;
  output.sampling.target = 12;

  cfg.layers = {middle, output};
  Network net(cfg, 2);
  EXPECT_EQ(net.num_layers(), 3);

  const Sample s = make_sample({1, 2, 3}, {5});
  Rng rng(5);
  VisitedSet visited(net.max_sampled_units());
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 80; ++step) {
    const float loss = net.train_sample(0, s, 1.0f, rng, visited, 0);
    if (step == 0) first = loss;
    last = loss;
    net.apply_updates(0.02f, nullptr);
  }
  EXPECT_LT(last, first);
  InferenceContext ctx(net.max_sampled_units());
  EXPECT_EQ(net.predict_top1(s.features, ctx, true), 5u);
}

TEST(Network, ApplyUpdatesIsBitIdenticalAtEveryPoolSize) {
  // apply_updates sums each row's gradient over the pending slots in slot
  // order, one writer per row, and Trainer::step sums its loss in slot
  // order, so how the samples and the rows split over threads cannot
  // change the weights or the loss. Identical nets take whole
  // Trainer::steps on pools of 1 to 4 threads, three steps so that the
  // moments matter.
  const std::vector<int> pool_sizes = {1, 2, 3, 4};
  // Features 12, 14, 15, 17 and 18 appear in no sample.
  Dataset data(20, 200);
  for (Index s = 0; s < 6; ++s)
    data.add(make_sample({2 * s, 2 * s + 1, 3 * s + 4}, {7 * s}));
  const std::vector<std::size_t> batch = {0, 1, 2, 3, 4, 5};

  for (int shards : {0, 2}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    NetworkConfig cfg = tiny_config(20, 200);
    cfg.layers[0].shards = shards;
    std::vector<std::unique_ptr<Network>> nets;
    std::vector<std::unique_ptr<Trainer>> trainers;
    for (int threads : pool_sizes) {
      nets.push_back(std::make_unique<Network>(cfg, threads));
      TrainerConfig tc;
      tc.batch_size = static_cast<int>(batch.size());
      tc.num_threads = threads;
      tc.learning_rate = 0.05f;
      trainers.push_back(std::make_unique<Trainer>(*nets.back(), tc));
    }
    const Params initial = params_of(*nets[0]);
    const int out = nets[0]->stack_depth() - 1;

    std::set<Index> active;  // output rows some sample made active
    for (int step = 0; step < 3; ++step) {
      std::vector<float> losses;
      for (auto& trainer : trainers) losses.push_back(trainer->step(data, batch));
      for (std::size_t s = 0; s < batch.size(); ++s) {
        const auto& ids = nets[0]->stack(out).slot(static_cast<int>(s)).ids;
        active.insert(ids.begin(), ids.end());
      }
      const Params ref = params_of(*nets[0]);
      for (std::size_t k = 1; k < nets.size(); ++k) {
        SCOPED_TRACE(std::to_string(pool_sizes[k]) + " pool threads");
        EXPECT_EQ(std::memcmp(&losses[k], &losses[0], sizeof(float)), 0)
            << "loss " << losses[k] << " vs " << losses[0];
        const Params p = params_of(*nets[k]);
        expect_same_bits(p.embedding_w, ref.embedding_w, "embedding weights");
        expect_same_bits(p.embedding_b, ref.embedding_b, "embedding bias");
        expect_same_bits(p.output_w, ref.output_w, "output weights");
        expect_same_bits(p.output_b, ref.output_b, "output bias");
      }
    }

    // Rows and columns no sample touched kept their initial values. Both
    // matrices store hidden_units-wide rows (output fan-in, embedding width).
    const Params after = params_of(*nets[0]);
    const std::size_t width = cfg.hidden_units;
    auto row_unchanged = [&](const std::vector<float>& now,
                             const std::vector<float>& then, Index row) {
      return std::memcmp(now.data() + row * width, then.data() + row * width,
                         width * sizeof(float)) == 0;
    };
    ASSERT_LT(active.size(), std::size_t{200});
    for (Index u = 0; u < 200; ++u) {
      if (active.count(u) != 0) continue;
      EXPECT_TRUE(row_unchanged(after.output_w, initial.output_w, u))
          << "output row " << u;
      EXPECT_EQ(after.output_b[u], initial.output_b[u]) << "output row " << u;
    }
    for (Index c : {12u, 14u, 15u, 17u, 18u}) {
      EXPECT_TRUE(row_unchanged(after.embedding_w, initial.embedding_w, c))
          << "embedding column " << c;
    }

    // With no backward in between, a further apply finds no pending slot
    // and moves no row. (The embedding bias steps densely.)
    for (std::size_t k = 0; k < nets.size(); ++k) {
      SCOPED_TRACE(std::to_string(pool_sizes[k]) + " pool threads");
      const Params before = params_of(*nets[k]);
      nets[k]->apply_updates(0.05f, &trainers[k]->pool());
      const Params p = params_of(*nets[k]);
      expect_same_bits(p.embedding_w, before.embedding_w, "embedding weights");
      expect_same_bits(p.output_w, before.output_w, "output weights");
      expect_same_bits(p.output_b, before.output_b, "output bias");
    }
  }
}

TEST(Network, TrainSampleOnAPendingSlotThrows) {
  // A slot's backward record lives until apply_updates; a second sample on
  // the slot would overwrite it, so it is refused before anything moves.
  Network net(tiny_config(), 2);
  const Sample s = make_sample({2, 3}, {7});
  Rng rng(6);
  VisitedSet visited(net.max_sampled_units());
  net.train_sample(0, s, 1.0f, rng, visited, 0);
  const std::vector<float> pending = net.output_layer().gradient_row(7);
  EXPECT_THROW(net.train_sample(0, s, 1.0f, rng, visited, 0), Error);
  EXPECT_EQ(net.output_layer().gradient_row(7), pending);
  EXPECT_THROW(net.output_layer().backward(0, net.embedding().slot(0), 0),
               Error);
  net.train_sample(1, s, 1.0f, rng, visited, 0);  // another slot is free
  net.apply_updates(0.01f, nullptr);
  EXPECT_NO_THROW(net.train_sample(0, s, 1.0f, rng, visited, 0));
}

TEST(Network, SampledSoftmaxModeActivatesLabelsPlusRandom) {
  NetworkConfig cfg = tiny_config();
  cfg.layers[0].hashed = false;
  cfg.layers[0].random_sampled = true;
  cfg.layers[0].sampling.target = 20;
  Network net(cfg, 2);
  const Sample s = make_sample({1, 2}, {11});
  Rng rng(7);
  VisitedSet visited(net.max_sampled_units());
  net.train_sample(0, s, 1.0f, rng, visited, 0);
  const auto& ids = net.output_layer().slot(0).ids;
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(ids[0], 11u);
  std::set<Index> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size());
}

}  // namespace
}  // namespace slide
