// MIPS transform tests: the Sign-ALSH algebra, the monotonicity of
// augmented-space cosine in the inner product, and end-to-end retrieval of
// large-inner-product items through Simhash tables (paper §2.1.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "lsh/factory.h"
#include "lsh/mips.h"
#include "lsh/table_group.h"
#include "simd/kernels.h"
#include "sys/rng.h"

namespace slide {
namespace {

std::vector<float> random_vec(Index dim, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = scale * rng.normal();
  return v;
}

double cosine(const std::vector<float>& a, const std::vector<float>& b) {
  const float ab = simd::dot(a.data(), b.data(), a.size());
  const float aa = simd::dot(a.data(), a.data(), a.size());
  const float bb = simd::dot(b.data(), b.data(), b.size());
  return ab / std::sqrt(static_cast<double>(aa) * bb);
}

TEST(MipsTransform, ScaledDataNormIsBoundedByU) {
  MipsTransform t({.dim = 16, .m = 3, .u = 0.75f});
  Rng rng(1);
  std::vector<std::vector<float>> rows;
  std::vector<float> flat;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(random_vec(16, rng, 1.0f + rng.uniform_float() * 3.0f));
    flat.insert(flat.end(), rows.back().begin(), rows.back().end());
  }
  t.fit(flat.data(), 16, 20);
  for (const auto& row : rows) {
    std::vector<float> out(t.augmented_dim());
    t.transform_data(row.data(), out.data());
    const float scaled_norm_sq = simd::dot(out.data(), out.data(), 16);
    EXPECT_LE(std::sqrt(scaled_norm_sq), 0.7501f);
  }
}

TEST(MipsTransform, AugmentationFollowsSignAlshFormula) {
  MipsTransform t({.dim = 4, .m = 3, .u = 0.5f});
  t.set_max_norm(2.0f);  // scale = 0.25
  const std::vector<float> x = {2.0f, 0.0f, 0.0f, 0.0f};  // ||x|| = 2
  std::vector<float> out(t.augmented_dim());
  t.transform_data(x.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 0.5f);  // 0.25 * 2
  const float n2 = 0.25f;         // ||Sx||^2 = 0.5^2
  EXPECT_FLOAT_EQ(out[4], 0.5f - n2);
  EXPECT_FLOAT_EQ(out[5], 0.5f - n2 * n2);
  EXPECT_FLOAT_EQ(out[6], 0.5f - n2 * n2 * n2 * n2);
}

TEST(MipsTransform, QuerySideIsNormalizedAndZeroPadded) {
  MipsTransform t({.dim = 3, .m = 2, .u = 0.75f});
  const std::vector<float> q = {3.0f, 0.0f, 4.0f};
  std::vector<float> out(t.augmented_dim());
  t.transform_query(q.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 0.6f);
  EXPECT_FLOAT_EQ(out[2], 0.8f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
  EXPECT_FLOAT_EQ(out[4], 0.0f);
}

TEST(MipsTransform, AugmentedCosineIsMonotoneInInnerProduct) {
  // Two data vectors with the SAME direction as the query but different
  // norms: plain cosine ties them, the MIPS transform must rank the larger
  // inner product higher. Plus a high-cosine small-norm distractor.
  const Index dim = 8;
  MipsTransform t({.dim = dim, .m = 3, .u = 0.75f});
  t.set_max_norm(4.0f);

  std::vector<float> q(dim, 0.0f);
  q[0] = 1.0f;
  std::vector<float> big(dim, 0.0f), small(dim, 0.0f);
  big[0] = 4.0f;    // q.big = 4
  small[0] = 1.0f;  // q.small = 1 (same cosine = 1)

  std::vector<float> tq(t.augmented_dim()), tbig(t.augmented_dim()),
      tsmall(t.augmented_dim());
  t.transform_query(q.data(), tq.data());
  t.transform_data(big.data(), tbig.data());
  t.transform_data(small.data(), tsmall.data());

  EXPECT_GT(cosine(tq, tbig), cosine(tq, tsmall));
}

TEST(MipsTransform, SweepMonotonicityOverNorms) {
  const Index dim = 8;
  MipsTransform t({.dim = dim, .m = 3, .u = 0.75f});
  t.set_max_norm(5.0f);
  std::vector<float> q(dim, 0.0f);
  q[0] = 1.0f;
  std::vector<float> tq(t.augmented_dim());
  t.transform_query(q.data(), tq.data());

  double prev = -2.0;
  for (float norm = 0.5f; norm <= 5.01f; norm += 0.5f) {
    std::vector<float> x(dim, 0.0f);
    x[0] = norm;  // inner product with q = norm
    std::vector<float> tx(t.augmented_dim());
    t.transform_data(x.data(), tx.data());
    const double c = cosine(tq, tx);
    EXPECT_GT(c, prev) << "norm=" << norm;
    prev = c;
  }
}

TEST(MipsEndToEnd, RetrievesLargeInnerProductNeurons) {
  // Index transformed neuron rows into Simhash tables; querying with the
  // transformed query must retrieve the top-inner-product rows far more
  // often than random rows — the LSH-as-MIPS-sampler property SLIDE's
  // neuron selection relies on.
  const Index n = 2'000, dim = 32;
  Rng rng(9);
  std::vector<float> rows(static_cast<std::size_t>(n) * dim);
  for (auto& w : rows) w = rng.normal();

  MipsTransform t({.dim = dim, .m = 3, .u = 0.75f});
  t.fit(rows.data(), dim, n);

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 6;
  family.l = 30;
  family.dim = t.augmented_dim();
  LshTableGroup tables(make_hash_family(family),
                       {.range_pow = 10, .bucket_size = 64});
  {
    const Index aug_dim = t.augmented_dim();
    std::vector<float> aug(static_cast<std::size_t>(n) * aug_dim);
    for (Index i = 0; i < n; ++i) {
      t.transform_data(rows.data() + static_cast<std::size_t>(i) * dim,
                       aug.data() + static_cast<std::size_t>(i) * aug_dim);
    }
    tables.build_from_rows(aug.data(), aug_dim, n);
  }

  int top_hits = 0, random_hits = 0;
  const int trials = 30;
  std::vector<std::uint32_t> keys(30);
  std::vector<std::span<const Index>> buckets;
  for (int trial = 0; trial < trials; ++trial) {
    const auto q = random_vec(dim, rng);
    // Ground truth: argmax inner product.
    Index best = 0;
    float best_ip = -1e30f;
    for (Index i = 0; i < n; ++i) {
      const float ip = simd::dot(
          q.data(), rows.data() + static_cast<std::size_t>(i) * dim, dim);
      if (ip > best_ip) {
        best_ip = ip;
        best = i;
      }
    }
    std::vector<float> aug_q(t.augmented_dim());
    t.transform_query(q.data(), aug_q.data());
    tables.query_keys_dense(aug_q.data(), keys);
    tables.buckets(keys, buckets);
    const Index random_id = rng.uniform(n);
    bool found_top = false, found_random = false;
    for (const auto& b : buckets) {
      if (std::find(b.begin(), b.end(), best) != b.end()) found_top = true;
      if (std::find(b.begin(), b.end(), random_id) != b.end())
        found_random = true;
    }
    top_hits += found_top ? 1 : 0;
    random_hits += found_random ? 1 : 0;
  }
  EXPECT_GT(top_hits, random_hits + trials / 4);
}

TEST(MipsTransform, RejectsBadConfig) {
  EXPECT_THROW(MipsTransform({.dim = 0, .m = 3, .u = 0.75f}), Error);
  EXPECT_THROW(MipsTransform({.dim = 4, .m = 0, .u = 0.75f}), Error);
  EXPECT_THROW(MipsTransform({.dim = 4, .m = 3, .u = 1.5f}), Error);
  MipsTransform ok({.dim = 4, .m = 3, .u = 0.75f});
  EXPECT_THROW(ok.set_max_norm(0.0f), Error);
}

}  // namespace
}  // namespace slide
