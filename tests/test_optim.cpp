// Optimizer tests: Adam against a hand-rolled reference, bias correction,
// and lazy sparse updates.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "optim/adam.h"
#include "sys/rng.h"

namespace slide {
namespace {

/// Straightforward reference Adam for one parameter.
struct RefAdam {
  float m = 0.0f, v = 0.0f;
  int t = 0;
  float step(float w, float g, float lr, float b1 = 0.9f, float b2 = 0.999f,
             float eps = 1e-8f) {
    ++t;
    m = b1 * m + (1 - b1) * g;
    v = b2 * v + (1 - b2) * g * g;
    const float mhat = m / (1 - std::pow(b1, static_cast<float>(t)));
    const float vhat = v / (1 - std::pow(b2, static_cast<float>(t)));
    return w - lr * mhat / (std::sqrt(vhat) + eps);
  }
};

TEST(Adam, MatchesReferenceOverManySteps) {
  Adam adam({}, 4);
  std::vector<float> w = {1.0f, -2.0f, 0.5f, 3.0f};
  std::vector<RefAdam> ref(4);
  std::vector<float> ref_w = w;
  Rng rng(1);
  for (int step = 0; step < 50; ++step) {
    std::vector<float> g(4);
    for (auto& x : g) x = rng.normal();
    adam.step_begin();
    adam.update_span(w.data(), g.data(), 0, 4, 0.01f);
    for (int i = 0; i < 4; ++i)
      ref_w[static_cast<std::size_t>(i)] = ref[static_cast<std::size_t>(i)]
          .step(ref_w[static_cast<std::size_t>(i)],
                g[static_cast<std::size_t>(i)], 0.01f);
    for (int i = 0; i < 4; ++i)
      ASSERT_NEAR(w[static_cast<std::size_t>(i)],
                  ref_w[static_cast<std::size_t>(i)], 1e-5f)
          << "step=" << step << " i=" << i;
  }
}

TEST(Adam, FirstStepMovesByRoughlyLearningRate) {
  // Adam's bias-corrected first step is ~lr * sign(g).
  Adam adam({}, 1);
  float w = 0.0f;
  const float g = 0.37f;
  adam.step_begin();
  adam.update_span(&w, &g, 0, 1, 0.01f);
  EXPECT_NEAR(w, -0.01f, 1e-4f);
}

TEST(Adam, UpdateAtMatchesUpdateSpan) {
  Adam a({}, 3), b({}, 3);
  float wa[3] = {1, 2, 3}, wb[3] = {1, 2, 3};
  const float g[3] = {0.1f, -0.2f, 0.3f};
  for (int step = 0; step < 5; ++step) {
    a.step_begin();
    b.step_begin();
    a.update_span(wa, g, 0, 3, 0.05f);
    for (std::size_t i = 0; i < 3; ++i) b.update_at(&wb[i], g[i], i, 0.05f);
    for (std::size_t i = 0; i < 3; ++i) ASSERT_NEAR(wa[i], wb[i], 1e-6f);
  }
}

TEST(Adam, LazySparseUpdatesOnlyTouchTheirSpan) {
  Adam adam({}, 10);
  std::vector<float> w(10, 1.0f);
  const std::vector<float> g(10, 0.5f);
  adam.step_begin();
  adam.update_span(w.data() + 3, g.data(), 3, 4, 0.1f);  // params 3..6
  for (int i = 0; i < 10; ++i) {
    if (i >= 3 && i < 7) {
      EXPECT_NE(w[static_cast<std::size_t>(i)], 1.0f);
    } else {
      EXPECT_EQ(w[static_cast<std::size_t>(i)], 1.0f);
    }
  }
}

TEST(Adam, ResetClearsState) {
  Adam adam({}, 2);
  float w[2] = {1, 1};
  const float g[2] = {1, 1};
  adam.step_begin();
  adam.update_span(w, g, 0, 2, 0.1f);
  adam.reset();
  EXPECT_EQ(adam.step(), 0);
  // After reset, behaves like a fresh optimizer.
  Adam fresh({}, 2);
  float wf[2] = {2, 2}, wr[2] = {2, 2};
  adam.step_begin();
  fresh.step_begin();
  adam.update_span(wr, g, 0, 2, 0.1f);
  fresh.update_span(wf, g, 0, 2, 0.1f);
  EXPECT_NEAR(wr[0], wf[0], 1e-7f);
}

TEST(Adam, ZeroGradientStillDecaysMoments) {
  // A weight with momentum keeps moving on zero gradient (m decays slowly).
  Adam adam({}, 1);
  float w = 0.0f;
  float g = 1.0f;
  adam.step_begin();
  adam.update_span(&w, &g, 0, 1, 0.01f);
  const float after_first = w;
  g = 0.0f;
  adam.step_begin();
  adam.update_span(&w, &g, 0, 1, 0.01f);
  EXPECT_LT(w, after_first);  // still moving in -g direction
}

}  // namespace
}  // namespace slide
