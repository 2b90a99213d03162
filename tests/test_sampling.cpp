// Sampling-strategy tests: vanilla target adherence, TopK frequency
// ordering, hard-threshold filtering, and the property tests tying the
// empirical selection rates to the closed-form probabilities of paper
// eqs. 2-3 (lsh/collision.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>

#include "lsh/collision.h"
#include "lsh/sampling.h"

namespace slide {
namespace {

using Buckets = std::vector<std::vector<Index>>;

std::vector<std::span<const Index>> views(const Buckets& buckets) {
  std::vector<std::span<const Index>> v;
  v.reserve(buckets.size());
  for (const auto& b : buckets) v.emplace_back(b);
  return v;
}

TEST(VisitedSet, InsertAndEpochSemantics) {
  VisitedSet v(10);
  v.begin_epoch();
  EXPECT_TRUE(v.insert(3));
  EXPECT_FALSE(v.insert(3));
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(4));
  v.begin_epoch();
  EXPECT_FALSE(v.contains(3));
  EXPECT_TRUE(v.insert(3));
}

TEST(VisitedSet, FrequencyCounting) {
  VisitedSet v(10);
  v.begin_epoch();
  v.insert(5);
  EXPECT_EQ(v.bump(5), 1);
  EXPECT_EQ(v.bump(5), 2);
  EXPECT_EQ(v.count(5), 2);
  EXPECT_EQ(v.count(6), 0);
}

TEST(Vanilla, StopsAtTargetAndDeduplicates) {
  const Buckets buckets = {{1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {7, 8, 9}};
  VisitedSet visited(16);
  Rng rng(1);
  std::vector<Index> out;
  SamplingConfig cfg{SamplingStrategy::kVanilla, /*target=*/4, 2};
  sample_neurons(cfg, views(buckets), visited, rng, out);
  EXPECT_EQ(out.size(), 4u);
  std::set<Index> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Vanilla, ReturnsEverythingWhenTargetExceedsUnion) {
  const Buckets buckets = {{1, 2}, {2, 3}};
  VisitedSet visited(8);
  Rng rng(2);
  std::vector<Index> out;
  SamplingConfig cfg{SamplingStrategy::kVanilla, 100, 2};
  sample_neurons(cfg, views(buckets), visited, rng, out);
  std::set<Index> unique(out.begin(), out.end());
  EXPECT_EQ(unique, (std::set<Index>{1, 2, 3}));
}

TEST(Vanilla, RandomTableOrderVariesWithRng) {
  const Buckets buckets = {{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}};
  VisitedSet visited(16);
  std::set<Index> firsts;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    std::vector<Index> out;
    SamplingConfig cfg{SamplingStrategy::kVanilla, 1, 2};
    sample_neurons(cfg, views(buckets), visited, rng, out);
    ASSERT_EQ(out.size(), 1u);
    firsts.insert(out[0]);
  }
  EXPECT_GT(firsts.size(), 3u);  // many distinct tables chosen first
}

TEST(Vanilla, PreStampedIdsAreExcluded) {
  const Buckets buckets = {{1, 2, 3, 4}};
  VisitedSet visited(8);
  visited.begin_epoch();
  visited.insert(2);
  visited.insert(3);
  Rng rng(3);
  std::vector<Index> out;
  SamplingConfig cfg{SamplingStrategy::kVanilla, 10, 2};
  sample_neurons(cfg, views(buckets), visited, rng, out,
                 /*fresh_epoch=*/false);
  EXPECT_EQ(std::set<Index>(out.begin(), out.end()),
            (std::set<Index>{1, 4}));
}

TEST(TopK, SelectsMostFrequentAcrossTables) {
  // id 9 appears in 4 buckets, id 5 in 3, id 1 in 2, the rest once.
  const Buckets buckets = {{9, 5, 1, 0}, {9, 5, 1, 2}, {9, 5, 3}, {9, 4}};
  VisitedSet visited(16);
  Rng rng(4);
  std::vector<Index> out;
  SamplingConfig cfg{SamplingStrategy::kTopK, 3, 2};
  sample_neurons(cfg, views(buckets), visited, rng, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 9u);  // sorted by descending frequency
  EXPECT_EQ(out[1], 5u);
  EXPECT_EQ(out[2], 1u);
}

TEST(TopK, ReturnsAllWhenFewerThanTarget) {
  const Buckets buckets = {{1, 2}, {2}};
  VisitedSet visited(8);
  Rng rng(5);
  std::vector<Index> out;
  SamplingConfig cfg{SamplingStrategy::kTopK, 10, 2};
  sample_neurons(cfg, views(buckets), visited, rng, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 2u);  // frequency 2 first
}

TEST(HardThreshold, KeepsOnlyIdsAtOrAboveM) {
  const Buckets buckets = {{1, 2, 3}, {2, 3}, {3}};
  VisitedSet visited(8);
  Rng rng(6);
  std::vector<Index> out;
  for (int m = 1; m <= 3; ++m) {
    SamplingConfig cfg{SamplingStrategy::kHardThreshold, 100, m};
    sample_neurons(cfg, views(buckets), visited, rng, out);
    std::set<Index> got(out.begin(), out.end());
    if (m == 1) {
      EXPECT_EQ(got, (std::set<Index>{1, 2, 3}));
    }
    if (m == 2) {
      EXPECT_EQ(got, (std::set<Index>{2, 3}));
    }
    if (m == 3) {
      EXPECT_EQ(got, (std::set<Index>{3}));
    }
  }
}

TEST(Strategies, EmptyBucketsYieldEmptyResult) {
  const Buckets buckets = {{}, {}, {}};
  VisitedSet visited(8);
  Rng rng(7);
  std::vector<Index> out = {99};
  for (auto strategy :
       {SamplingStrategy::kVanilla, SamplingStrategy::kTopK,
        SamplingStrategy::kHardThreshold}) {
    SamplingConfig cfg{strategy, 5, 2};
    sample_neurons(cfg, views(buckets), visited, rng, out);
    EXPECT_TRUE(out.empty()) << to_string(strategy);
  }
}

// ---------------------------------------------------------------------------
// Property test: empirical hard-threshold selection rate vs paper eq. 3.
// Simulate a neuron whose bucket membership in each of L tables is an
// independent Bernoulli(q); the selection probability for threshold m must
// match the closed-form binomial tail.
// ---------------------------------------------------------------------------

struct ThresholdCase {
  double q;  // per-table collision probability p^K
  int m;
};

// Names each case by its values (e.g. "q0.2_m1"). Without it gtest prints
// the struct's raw bytes into the test name, padding included, so the
// names would differ from build to build.
void PrintTo(const ThresholdCase& c, std::ostream* os) {
  *os << "q" << c.q << "_m" << c.m;
}

class ThresholdProperty : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(ThresholdProperty, EmpiricalMatchesClosedForm) {
  const auto [q, m] = GetParam();
  constexpr int kL = 10;
  constexpr int kTrials = 20'000;
  Rng rng(static_cast<std::uint64_t>(m) * 1'000 +
          static_cast<std::uint64_t>(q * 100));
  VisitedSet visited(4);
  int selected = 0;
  std::vector<Index> out;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buckets buckets(kL);
    for (int t = 0; t < kL; ++t) {
      if (rng.uniform_double() < q) buckets[t].push_back(0);
    }
    SamplingConfig cfg{SamplingStrategy::kHardThreshold, 100, m};
    sample_neurons(cfg, views(buckets), visited, rng, out);
    selected += out.empty() ? 0 : 1;
  }
  const double expected = binomial_tail(kL, q, m);
  EXPECT_NEAR(static_cast<double>(selected) / kTrials, expected, 0.02)
      << "q=" << q << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdProperty,
    ::testing::Values(ThresholdCase{0.2, 1}, ThresholdCase{0.2, 3},
                      ThresholdCase{0.5, 1}, ThresholdCase{0.5, 3},
                      ThresholdCase{0.5, 5}, ThresholdCase{0.8, 5},
                      ThresholdCase{0.8, 9}));

// ---------------------------------------------------------------------------
// Collision math (paper eqs. 2-3, Figure 11 oracle).
// ---------------------------------------------------------------------------

TEST(Collision, SimhashEndpoints) {
  EXPECT_NEAR(simhash_collision_probability(1.0), 1.0, 1e-12);
  EXPECT_NEAR(simhash_collision_probability(-1.0), 0.0, 1e-12);
  EXPECT_NEAR(simhash_collision_probability(0.0), 0.5, 1e-12);
}

TEST(Collision, MetaHashPowers) {
  EXPECT_NEAR(meta_hash_probability(0.5, 3), 0.125, 1e-12);
  EXPECT_NEAR(meta_hash_probability(1.0, 9), 1.0, 1e-12);
}

TEST(Collision, AnyBucketMonotoneInL) {
  const double p = 0.7;
  double prev = 0.0;
  for (int l = 1; l <= 50; l += 7) {
    const double cur = any_bucket_probability(p, 3, l);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
  EXPECT_LE(prev, 1.0);
}

TEST(Collision, VanillaEq2Endpoints) {
  // tau = 0: probability of colliding in none of the probed tables.
  EXPECT_NEAR(vanilla_selection_probability(0.5, 1, 10, 0),
              std::pow(0.5, 10), 1e-9);
  // tau = L with p = 1: certain.
  EXPECT_NEAR(vanilla_selection_probability(1.0, 2, 10, 10), 1.0, 1e-12);
}

TEST(Collision, BinomialTailSanity) {
  EXPECT_DOUBLE_EQ(binomial_tail(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_tail(10, 0.5, 11), 0.0);
  EXPECT_NEAR(binomial_tail(10, 0.5, 5), 0.623046875, 1e-9);
  EXPECT_NEAR(binomial_tail(1, 0.3, 1), 0.3, 1e-12);
}

TEST(Collision, HardThresholdMonotoneInPAndAntitoneInM) {
  for (int m = 1; m < 9; m += 2) {
    double prev = -1.0;
    for (double p = 0.1; p <= 0.95; p += 0.1) {
      const double cur = hard_threshold_selection_probability(p, 1, 10, m);
      EXPECT_GE(cur, prev);
      prev = cur;
    }
  }
  for (double p : {0.3, 0.6, 0.9}) {
    double prev = 2.0;
    for (int m = 1; m <= 9; ++m) {
      const double cur = hard_threshold_selection_probability(p, 1, 10, m);
      EXPECT_LE(cur, prev);
      prev = cur;
    }
  }
}

}  // namespace
}  // namespace slide
