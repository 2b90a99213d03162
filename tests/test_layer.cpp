// Layer-level tests: forward correctness against manual computation,
// numerical gradient checks through the full embedding->softmax stack,
// active-set construction (forced labels, random fill), touched-row
// tracking, and the lazy-update contract.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/layer.h"
#include "simd/kernels.h"

namespace slide {
namespace {

SparseVector make_input() {
  return SparseVector({0, 2, 5}, {0.5f, -1.0f, 0.25f});
}

EmbeddingLayer make_embedding(Index input_dim = 6, Index units = 4) {
  return EmbeddingLayer(input_dim, units, /*init_stddev=*/0.4f,
                        /*batch_slots=*/4, AdamConfig{}, /*seed=*/101);
}

SampledLayer::Config dense_softmax_config(Index units, Index fan_in) {
  SampledLayer::Config cfg;
  cfg.units = units;
  cfg.fan_in = fan_in;
  cfg.hashed = false;
  cfg.seed = 55;
  return cfg;
}

// ---------------------------------------------------------------------------
// EmbeddingLayer
// ---------------------------------------------------------------------------

TEST(EmbeddingLayer, ForwardMatchesManualComputation) {
  auto layer = make_embedding();
  const SparseVector x = make_input();
  layer.forward(0, x);
  const auto& s = layer.slot(0);
  for (Index j = 0; j < layer.units(); ++j) {
    float expected = layer.bias(j);
    for (std::size_t i = 0; i < x.nnz(); ++i)
      expected += x.values()[i] * layer.weight_column(x.indices()[i])[j];
    expected = std::max(expected, 0.0f);
    EXPECT_NEAR(s.act[j], expected, 1e-5f) << j;
    EXPECT_EQ(s.err[j], 0.0f);
  }
}

TEST(EmbeddingLayer, ForwardInferenceMatchesSlotForward) {
  auto layer = make_embedding();
  const SparseVector x = make_input();
  layer.forward(1, x);
  std::vector<float> out(layer.units());
  layer.forward_inference(x, out.data());
  for (Index j = 0; j < layer.units(); ++j)
    EXPECT_EQ(out[j], layer.slot(1).act[j]);
}

TEST(EmbeddingLayer, BackwardAccumulatesGradOnlyAtInputSupport) {
  auto layer = make_embedding();
  const SparseVector x = make_input();
  layer.forward(0, x);
  auto& s = layer.slot(0);
  for (Index j = 0; j < layer.units(); ++j) s.err[j] = 1.0f;
  layer.backward(0, x);
  const std::set<Index> support(x.indices().begin(), x.indices().end());
  for (Index c = 0; c < layer.input_dim(); ++c) {
    const std::vector<float> g = layer.gradient_column(c);
    float norm = 0.0f;
    for (Index j = 0; j < layer.units(); ++j) norm += std::fabs(g[j]);
    if (support.count(c)) {
      EXPECT_GT(norm, 0.0f) << c;
    } else {
      EXPECT_EQ(norm, 0.0f) << c;
    }
  }
}

TEST(EmbeddingLayer, ReluGateZeroesDeadDeltas) {
  auto layer = make_embedding();
  const SparseVector x = make_input();
  layer.forward(0, x);
  auto& s = layer.slot(0);
  // Find a dead unit (act == 0) if any; force one by biasing err.
  for (Index j = 0; j < layer.units(); ++j) s.err[j] = 2.0f;
  layer.backward(0, x);
  for (Index j = 0; j < layer.units(); ++j) {
    if (s.act[j] <= 0.0f) {
      EXPECT_EQ(s.err[j], 0.0f);
    }
  }
}

TEST(EmbeddingLayer, ApplyClearsGradientsAndMovesWeights) {
  auto layer = make_embedding();
  const SparseVector x = make_input();
  layer.forward(0, x);
  auto& s = layer.slot(0);
  for (Index j = 0; j < layer.units(); ++j) s.err[j] = 1.0f;
  layer.backward(0, x);
  const float w_before = layer.weight_column(0)[0];
  const bool had_grad = std::fabs(layer.gradient_column(0)[0]) > 0.0f;
  layer.apply_updates(0.01f, nullptr);
  if (had_grad) {
    EXPECT_NE(layer.weight_column(0)[0], w_before);
  }
  for (Index j = 0; j < layer.units(); ++j)
    EXPECT_EQ(layer.gradient_column(0)[j], 0.0f);
  // Untouched column must not move.
  EXPECT_EQ(layer.gradient_column(1)[0], 0.0f);
}

// ---------------------------------------------------------------------------
// SampledLayer — dense mode correctness
// ---------------------------------------------------------------------------

TEST(SampledLayer, DenseForwardMatchesManualSoftmax) {
  const Index units = 5, fan_in = 4;
  SampledLayer layer(dense_softmax_config(units, fan_in), 2, 2);
  ActiveSet prev;
  prev.dense_width = fan_in;
  prev.act = {0.3f, -0.1f, 0.7f, 0.2f};
  prev.err.assign(fan_in, 0.0f);
  Rng rng(1);
  VisitedSet visited(units);
  layer.forward(0, prev, {}, rng, visited, 0);

  std::vector<float> expected(units);
  for (Index u = 0; u < units; ++u) {
    expected[u] = layer.bias(u) +
                  simd::scalar::dot(layer.weight_row(u), prev.act.data(),
                                    fan_in);
  }
  const auto& s = layer.slot(0);
  ASSERT_TRUE(s.dense());
  for (Index u = 0; u < units; ++u) EXPECT_NEAR(s.act[u], expected[u], 1e-5f);

  const std::vector<Index> labels = {2};
  layer.compute_softmax_ce_deltas(0, labels, 1.0f);
  simd::scalar::softmax_inplace(expected.data(), units);
  float delta_sum = 0.0f;
  for (Index u = 0; u < units; ++u) {
    const float y = u == 2 ? 1.0f : 0.0f;
    EXPECT_NEAR(s.err[u], expected[u] - y, 1e-5f);
    delta_sum += s.err[u];
  }
  EXPECT_NEAR(delta_sum, 0.0f, 1e-5f);  // softmax-CE deltas sum to zero
}

TEST(SampledLayer, SoftmaxLossIsCrossEntropy) {
  const Index units = 3, fan_in = 2;
  SampledLayer layer(dense_softmax_config(units, fan_in), 1, 1);
  ActiveSet prev;
  prev.dense_width = fan_in;
  prev.act = {1.0f, -0.5f};
  prev.err.assign(fan_in, 0.0f);
  Rng rng(2);
  VisitedSet visited(units);
  layer.forward(0, prev, {}, rng, visited, 0);
  std::vector<float> logits(units);
  for (Index u = 0; u < units; ++u)
    logits[u] = layer.bias(u) +
                simd::scalar::dot(layer.weight_row(u), prev.act.data(),
                                  fan_in);
  simd::scalar::softmax_inplace(logits.data(), units);
  const float loss =
      layer.compute_softmax_ce_deltas(0, std::vector<Index>{1}, 1.0f);
  EXPECT_NEAR(loss, -std::log(logits[1]), 1e-5f);
}

// ---------------------------------------------------------------------------
// Full-stack numerical gradient check (dense mode, inv_batch = 1).
// ---------------------------------------------------------------------------

struct TinyNet {
  TinyNet()
      : embedding(6, 4, 0.6f, 1, AdamConfig{}, 77),
        output(dense_softmax_config(5, 4), 1, 1) {}

  float loss(const SparseVector& x, const std::vector<Index>& labels) {
    embedding.forward(0, x);
    ActiveSet& h = embedding.slot(0);
    Rng rng(3);
    VisitedSet visited(8);
    output.forward(0, h, labels, rng, visited, 0);
    return output.compute_softmax_ce_deltas(0, labels, 1.0f);
  }

  void backward(const SparseVector& x) {
    output.backward(0, embedding.slot(0), 0);
    embedding.backward(0, x);
  }

  EmbeddingLayer embedding;
  SampledLayer output;
};

TEST(GradientCheck, OutputLayerWeightsMatchFiniteDifferences) {
  TinyNet net;
  const SparseVector x = make_input();
  const std::vector<Index> labels = {3};
  net.loss(x, labels);
  net.backward(x);
  // The finite differences run forward on the slot again, which rewrites
  // the pending record the gradient is summed from: read it all first.
  std::vector<std::vector<float>> rows;
  for (Index u = 0; u < 5; ++u) rows.push_back(net.output.gradient_row(u));

  const float h = 1e-3f;
  for (Index u = 0; u < 5; ++u) {
    for (Index d = 0; d < 4; ++d) {
      float& w = net.output.weight_row(u)[d];
      const float analytic = rows[u][d];
      const float save = w;
      w = save + h;
      const float lp = net.loss(x, labels);
      w = save - h;
      const float lm = net.loss(x, labels);
      w = save;
      const float numeric = (lp - lm) / (2 * h);
      EXPECT_NEAR(analytic, numeric, 5e-3f) << "u=" << u << " d=" << d;
    }
  }
}

TEST(GradientCheck, EmbeddingWeightsMatchFiniteDifferences) {
  TinyNet net;
  const SparseVector x = make_input();
  const std::vector<Index> labels = {1};
  net.loss(x, labels);
  net.backward(x);
  // Read the pending gradient before forward runs on the slot again.
  const std::vector<Index> support = {0, 2, 5};
  std::vector<std::vector<float>> columns;
  for (Index c : support) columns.push_back(net.embedding.gradient_column(c));

  const float h = 1e-3f;
  for (std::size_t k = 0; k < support.size(); ++k) {
    const Index c = support[k];
    for (Index j = 0; j < 4; ++j) {
      float& w = net.embedding.weight_column(c)[j];
      const float analytic = columns[k][j];
      const float save = w;
      w = save + h;
      const float lp = net.loss(x, labels);
      w = save - h;
      const float lm = net.loss(x, labels);
      w = save;
      const float numeric = (lp - lm) / (2 * h);
      EXPECT_NEAR(analytic, numeric, 5e-3f) << "c=" << c << " j=" << j;
    }
  }
}

TEST(GradientCheck, BiasGradientsMatchFiniteDifferences) {
  TinyNet net;
  const SparseVector x = make_input();
  const std::vector<Index> labels = {0};
  net.loss(x, labels);
  net.backward(x);
  // Output bias u: analytic = delta_u, but verify through the recorded
  // bias gradient accessor.
  const float h = 1e-3f;
  for (Index u = 0; u < 5; ++u) {
    const float analytic = net.output.bias_gradient(u);
    // Perturb via weight trick: temporarily shift bias through weights is
    // not possible, so check against softmax deltas directly.
    const float delta = net.output.slot(0).err[u];
    EXPECT_NEAR(analytic, delta, 1e-6f);
  }
  (void)h;
}

// ---------------------------------------------------------------------------
// SampledLayer — hashed active-set construction
// ---------------------------------------------------------------------------

SampledLayer::Config hashed_config(Index units, Index fan_in, Index target) {
  SampledLayer::Config cfg;
  cfg.units = units;
  cfg.fan_in = fan_in;
  cfg.hashed = true;
  cfg.family.kind = HashFamilyKind::kSimhash;
  cfg.family.k = 5;
  cfg.family.l = 10;
  cfg.table.range_pow = 8;
  cfg.table.bucket_size = 32;
  cfg.sampling.strategy = SamplingStrategy::kVanilla;
  cfg.sampling.target = target;
  cfg.seed = 99;
  return cfg;
}

TEST(SampledLayer, ForcedLabelsComeFirstAndAreUnique) {
  SampledLayer layer(hashed_config(100, 8, 20), 2, 2);
  ActiveSet prev;
  prev.dense_width = 8;
  prev.act = {0.1f, 0.2f, 0.3f, 0.4f, -0.1f, -0.2f, 0.5f, 0.6f};
  prev.err.assign(8, 0.0f);
  Rng rng(4);
  VisitedSet visited(100);
  const std::vector<Index> labels = {42, 7, 42};  // duplicate on purpose
  layer.forward(0, prev, labels, rng, visited, 0);
  const auto& ids = layer.slot(0).ids;
  ASSERT_GE(ids.size(), 2u);
  EXPECT_EQ(ids[0], 42u);
  EXPECT_EQ(ids[1], 7u);
  std::set<Index> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size());
}

TEST(SampledLayer, RandomFillReachesTarget) {
  SampledLayer layer(hashed_config(500, 8, 64), 1, 1);
  ActiveSet prev;
  prev.dense_width = 8;
  prev.act.assign(8, 0.25f);
  prev.err.assign(8, 0.0f);
  Rng rng(5);
  VisitedSet visited(500);
  layer.forward(0, prev, {}, rng, visited, 0);
  EXPECT_EQ(layer.slot(0).ids.size(), 64u);
}

TEST(SampledLayer, TargetAboveUnitsActivatesEverything) {
  SampledLayer layer(hashed_config(30, 8, 1'000), 1, 1);
  ActiveSet prev;
  prev.dense_width = 8;
  prev.act.assign(8, 0.1f);
  prev.err.assign(8, 0.0f);
  Rng rng(6);
  VisitedSet visited(30);
  layer.forward(0, prev, std::vector<Index>{3}, rng, visited, 0);
  EXPECT_EQ(layer.slot(0).ids.size(), 30u);
  EXPECT_EQ(layer.slot(0).ids[0], 3u);
}

TEST(SampledLayer, BackwardTouchesOnlyActiveNeurons) {
  SampledLayer layer(hashed_config(200, 8, 16), 1, 1);
  ActiveSet prev;
  prev.dense_width = 8;
  prev.act.assign(8, 0.3f);
  prev.err.assign(8, 0.0f);
  Rng rng(7);
  VisitedSet visited(200);
  const std::vector<Index> labels = {11};
  layer.forward(0, prev, labels, rng, visited, 0);
  layer.compute_softmax_ce_deltas(0, labels, 1.0f);
  layer.backward(0, prev, 0);

  const std::set<Index> active(layer.slot(0).ids.begin(),
                               layer.slot(0).ids.end());
  for (Index u = 0; u < 200; ++u) {
    float norm = 0.0f;
    for (Index d = 0; d < 8; ++d) norm += std::fabs(layer.gradient_row(u)[d]);
    if (active.count(u)) {
      EXPECT_GT(norm, 0.0f) << u;
    } else {
      EXPECT_EQ(norm, 0.0f) << u;
    }
  }
}

TEST(SampledLayer, ApplyMovesOnlyTouchedWeightsAndClears) {
  SampledLayer layer(hashed_config(200, 8, 16), 1, 1);
  ActiveSet prev;
  prev.dense_width = 8;
  prev.act.assign(8, 0.3f);
  prev.err.assign(8, 0.0f);
  Rng rng(8);
  VisitedSet visited(200);
  const std::vector<Index> labels = {5};
  layer.forward(0, prev, labels, rng, visited, 0);
  layer.compute_softmax_ce_deltas(0, labels, 1.0f);
  layer.backward(0, prev, 0);

  const std::set<Index> active(layer.slot(0).ids.begin(),
                               layer.slot(0).ids.end());
  Index untouched = 0;
  while (active.count(untouched)) ++untouched;
  std::vector<float> untouched_row(
      layer.weight_row(untouched), layer.weight_row(untouched) + 8);
  const float touched_before = layer.weight_row(labels[0])[0];

  layer.apply_updates(0.05f, nullptr);
  EXPECT_NE(layer.weight_row(labels[0])[0], touched_before);
  for (Index d = 0; d < 8; ++d)
    EXPECT_EQ(layer.weight_row(untouched)[d], untouched_row[d]);
  for (Index d = 0; d < 8; ++d)
    EXPECT_EQ(layer.gradient_row(labels[0])[d], 0.0f);
}

TEST(SampledLayer, PropagatesErrorToDensePrev) {
  SampledLayer layer(dense_softmax_config(6, 4), 1, 1);
  ActiveSet prev;
  prev.dense_width = 4;
  prev.act = {0.5f, 0.1f, -0.3f, 0.8f};
  prev.err.assign(4, 0.0f);
  Rng rng(9);
  VisitedSet visited(6);
  layer.forward(0, prev, {}, rng, visited, 0);
  layer.compute_softmax_ce_deltas(0, std::vector<Index>{2}, 1.0f);
  layer.backward(0, prev, 0);
  // prev.err must equal W^T delta.
  const auto& s = layer.slot(0);
  for (Index d = 0; d < 4; ++d) {
    float expected = 0.0f;
    for (Index u = 0; u < 6; ++u) expected += s.err[u] * layer.weight_row(u)[d];
    EXPECT_NEAR(prev.err[d], expected, 1e-5f);
  }
}

TEST(SampledLayer, ActiveFractionDiagnostics) {
  SampledLayer layer(hashed_config(1'000, 8, 50), 1, 1);
  ActiveSet prev;
  prev.dense_width = 8;
  prev.act.assign(8, 0.2f);
  prev.err.assign(8, 0.0f);
  Rng rng(10);
  VisitedSet visited(1'000);
  for (int i = 0; i < 10; ++i) layer.forward(0, prev, {}, rng, visited, 0);
  EXPECT_NEAR(layer.average_active_fraction(), 0.05, 0.01);
  layer.reset_active_stats();
  EXPECT_EQ(layer.average_active_fraction(), 0.0);
}

TEST(SampledLayer, RebuildScheduleFollowsExponentialDecay) {
  auto cfg = hashed_config(50, 8, 10);
  cfg.rebuild.initial_period = 10;
  cfg.rebuild.decay = 0.5;
  SampledLayer layer(cfg, 1, 1);
  EXPECT_FALSE(layer.maybe_rebuild(5, nullptr));
  EXPECT_TRUE(layer.maybe_rebuild(10, nullptr));
  EXPECT_EQ(layer.rebuild_count(), 1);
  // Next gap = 10 * e^0.5 ~ 16.5 -> next rebuild at ~26..27.
  EXPECT_FALSE(layer.maybe_rebuild(20, nullptr));
  EXPECT_TRUE(layer.maybe_rebuild(27, nullptr));
  EXPECT_EQ(layer.rebuild_count(), 2);
}

TEST(SampledLayer, RejectsConflictingModes) {
  SampledLayer::Config cfg = dense_softmax_config(4, 4);
  cfg.hashed = true;
  cfg.random_sampled = true;
  cfg.family.dim = 4;
  EXPECT_THROW(SampledLayer(cfg, 1, 1), Error);
}

}  // namespace
}  // namespace slide
