// Hash-family tests: the LSH property (collision probability increases with
// similarity) for both families, Simhash's projection values against a
// support-list loop, and DWTA's winner-take-all codes and pinned keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "lsh/collision.h"
#include "lsh/dwta.h"
#include "lsh/factory.h"
#include "lsh/simhash.h"
#include "sys/rng.h"

namespace slide {
namespace {

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

/// y = cos*x + sin*noise, unit-normalized: controls cosine similarity to x.
std::vector<float> perturb(const std::vector<float>& x, float cosine,
                           Rng& rng) {
  auto noise = random_unit(static_cast<Index>(x.size()), rng);
  const float s = std::sqrt(std::max(0.0f, 1.0f - cosine * cosine));
  std::vector<float> y(x.size());
  float norm = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = cosine * x[i] + s * noise[i];
    norm += y[i] * y[i];
  }
  norm = std::sqrt(norm);
  for (auto& v : y) v /= norm;
  return y;
}

/// Inputs for the winner-take-all paths: ties (small integers), signed
/// zeros, infinities and NaN mixed with random values.
std::vector<float> adversarial(Index dim, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float special[] = {0.0f, -0.0f, inf, -inf, nan};
  std::vector<float> v(dim);
  for (auto& x : v) {
    const std::uint32_t kind = rng.uniform(3);
    x = kind == 0   ? static_cast<float>(rng.uniform(3))
        : kind == 1 ? special[rng.uniform(5)]
                    : rng.normal();
  }
  return v;
}

/// Seeded inputs for the pinned-key test: random normals, all zeros
/// (every bin a tie), and two adversarial mixes.
std::vector<std::vector<float>> wta_inputs(Index dim, Rng& rng) {
  std::vector<std::vector<float>> inputs;
  inputs.push_back(random_unit(dim, rng));
  inputs.emplace_back(dim, 0.0f);
  inputs.push_back(adversarial(dim, rng));
  inputs.push_back(adversarial(dim, rng));
  return inputs;
}

/// Calls fn(dim, bin, k, l) for dims that are and are not multiples of
/// the bin size, and (K, L) shapes whose K*L fills whole 8- and 16-lane
/// blocks (80, the training shape 400) or leaves a tail in both (13, 21,
/// 45, 77).
template <class Fn>
void for_each_wta_shape(Fn fn) {
  constexpr std::pair<int, int> kShapes[] = {{4, 20}, {8, 50}, {1, 13},
                                             {3, 7},  {5, 9},  {7, 11}};
  for (Index dim : {8u, 9u, 127u, 128u, 200u}) {
    for (int bin : {2, 3, 8, 16}) {
      if (dim < static_cast<Index>(bin)) continue;
      for (auto [k, l] : kShapes) fn(dim, bin, k, l);
    }
  }
}

/// Fraction of per-table key matches between two inputs (empirical p^K).
template <typename Family>
double key_match_rate(const Family& family, const float* a, const float* b) {
  std::vector<std::uint32_t> ka(family.l()), kb(family.l());
  family.hash_dense(a, ka);
  family.hash_dense(b, kb);
  int match = 0;
  for (int t = 0; t < family.l(); ++t) match += ka[t] == kb[t] ? 1 : 0;
  return static_cast<double>(match) / family.l();
}

// ---------------------------------------------------------------------------
// Simhash
// ---------------------------------------------------------------------------

TEST(Simhash, IdenticalInputsAlwaysCollide) {
  Simhash h({.k = 4, .l = 20, .dim = 64, .density = 1.0 / 3.0, .seed = 1});
  Rng rng(2);
  const auto x = random_unit(64, rng);
  EXPECT_DOUBLE_EQ(key_match_rate(h, x.data(), x.data()), 1.0);
}

TEST(Simhash, CollisionRateIncreasesWithCosine) {
  Simhash h({.k = 2, .l = 200, .dim = 128, .density = 1.0 / 3.0, .seed = 3});
  Rng rng(4);
  double rate_low = 0.0, rate_mid = 0.0, rate_high = 0.0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const auto x = random_unit(128, rng);
    rate_low += key_match_rate(h, x.data(), perturb(x, 0.1f, rng).data());
    rate_mid += key_match_rate(h, x.data(), perturb(x, 0.6f, rng).data());
    rate_high += key_match_rate(h, x.data(), perturb(x, 0.95f, rng).data());
  }
  EXPECT_LT(rate_low, rate_mid);
  EXPECT_LT(rate_mid, rate_high);
}

TEST(Simhash, EmpiricalCollisionTracksTheory) {
  // For K=1 the per-table match rate should approximate
  // p = 1 - acos(cos)/pi (fingerprint mixing preserves equality).
  Simhash h({.k = 1, .l = 2000, .dim = 256, .density = 1.0, .seed = 5});
  Rng rng(6);
  for (float cosine : {0.3f, 0.7f, 0.9f}) {
    double rate = 0.0;
    const int trials = 10;
    for (int i = 0; i < trials; ++i) {
      const auto x = random_unit(256, rng);
      const auto y = perturb(x, cosine, rng);
      rate += key_match_rate(h, x.data(), y.data());
    }
    rate /= trials;
    EXPECT_NEAR(rate, simhash_collision_probability(cosine), 0.06)
        << "cosine=" << cosine;
  }
}

/// Simhash as a list of supports: each projection keeps its sorted
/// coordinates and signs, drawn by the same seeded Floyd sampling as the
/// family's constructor, and sums one gathered coordinate at a time.
class SupportListSimhash {
 public:
  explicit SupportListSimhash(const Simhash::Config& c) : k_(c.k), l_(c.l) {
    const auto nnz = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(c.density * c.dim)));
    Rng rng(c.seed);
    std::vector<std::uint8_t> member(c.dim, 0);
    for (int p = 0; p < c.k * c.l; ++p) {
      std::vector<Index> support;
      const Index start =
          c.dim - static_cast<Index>(std::min<std::size_t>(nnz, c.dim));
      for (Index j = start; j < c.dim; ++j) {
        Index t = rng.uniform(j + 1);
        if (member[t]) t = j;
        member[t] = 1;
        support.push_back(t);
      }
      std::sort(support.begin(), support.end());
      std::vector<float> signs;
      for (Index d : support) {
        member[d] = 0;
        signs.push_back(rng.uniform(2) == 0 ? 1.0f : -1.0f);
      }
      indices_.push_back(std::move(support));
      signs_.push_back(std::move(signs));
    }
  }

  std::vector<float> project(const float* x) const {
    std::vector<float> dots(indices_.size());
    for (std::size_t p = 0; p < indices_.size(); ++p) {
      float acc = 0.0f;
      for (std::size_t e = 0; e < indices_[p].size(); ++e)
        acc += signs_[p][e] * x[indices_[p][e]];
      dots[p] = acc;
    }
    return dots;
  }

  std::vector<std::uint32_t> keys(const float* x) const {
    const auto dots = project(x);
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(l_));
    for (int t = 0; t < l_; ++t) {
      std::uint32_t bits = 0;
      for (int j = 0; j < k_; ++j)
        bits = (bits << 1) | (dots[t * k_ + j] >= 0.0f ? 1u : 0u);
      detail::FingerprintMixer mixer;
      mixer.add(bits);
      keys[t] = mixer.value();
    }
    return keys;
  }

 private:
  int k_;
  int l_;
  std::vector<std::vector<Index>> indices_;
  std::vector<std::vector<float>> signs_;
};

std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

TEST(Simhash, DenseKeysMatchTheSupportListLoop) {
  // The sign matrix and its kernel must reproduce the support-list loop
  // bit for bit: projection values through project_dense, keys through
  // hash_dense and the block path. Rows mix normals, wide magnitudes,
  // +-2^40 (which absorbs a normal, so a sum taken in another order
  // changes value and often sign), signed zeros and subnormals.
  constexpr std::pair<int, int> kShapes[] = {{1, 1}, {5, 16}, {9, 50}};
  constexpr std::size_t kRows = 9;
  Rng rng(62);
  for (double density : {1.0 / 3.0, 1.0}) {
    for (auto [k, l] : kShapes) {
      for (Index dim : {1u, 7u, 128u, 300u}) {
        const Simhash::Config config{
            .k = k, .l = l, .dim = dim, .density = density, .seed = 63};
        const Simhash h(config);
        const SupportListSimhash lists(config);
        std::vector<float> rows(kRows * dim);
        for (auto& v : rows) {
          switch (rng.uniform(5)) {
            case 0:
              v = rng.normal();
              break;
            case 1:
              v = std::ldexp(rng.normal(),
                             static_cast<int>(rng.uniform(120)) - 60);
              break;
            case 2:
              v = rng.uniform(2) == 0 ? 0x1p40f : -0x1p40f;
              break;
            case 3:
              v = rng.uniform(2) == 0 ? 0.0f : -0.0f;
              break;
            default:
              v = rng.uniform(2) == 0 ? 1e-40f : -3e-42f;
          }
        }
        std::vector<std::uint32_t> block(static_cast<std::size_t>(l) * kRows);
        h.hash_dense_rows(rows.data(), dim, kRows, block.data(), kRows);

        for (std::size_t r = 0; r < kRows; ++r) {
          SCOPED_TRACE(::testing::Message()
                       << "density=" << density << " k=" << k << " l=" << l
                       << " dim=" << dim << " row=" << r);
          const float* x = rows.data() + r * dim;
          std::vector<float> dots(static_cast<std::size_t>(k * l));
          h.project_dense(x, dots.data());
          ASSERT_EQ(float_bits(dots), float_bits(lists.project(x)));

          const auto want = lists.keys(x);
          std::vector<std::uint32_t> got(static_cast<std::size_t>(l));
          h.hash_dense(x, got);
          ASSERT_EQ(got, want);
          for (int t = 0; t < l; ++t)
            ASSERT_EQ(block[static_cast<std::size_t>(t) * kRows + r], want[t]);
        }
      }
    }
  }
}

TEST(Simhash, ProjectionsAreSparseAtRequestedDensity) {
  // Projecting basis vector e_d reads every projection's entry for
  // coordinate d, so the nonzeros over all d count every support.
  const Index dim = 900;
  Simhash h({.k = 4, .l = 10, .dim = dim, .density = 1.0 / 3.0, .seed = 11});
  std::vector<float> basis(dim, 0.0f);
  std::vector<float> dots(static_cast<std::size_t>(h.num_projections()));
  double total = 0.0;
  for (Index d = 0; d < dim; ++d) {
    basis[d] = 1.0f;
    h.project_dense(basis.data(), dots.data());
    basis[d] = 0.0f;
    for (float v : dots) {
      ASSERT_TRUE(v == 0.0f || v == 1.0f || v == -1.0f) << v;
      total += v != 0.0f ? 1.0 : 0.0;
    }
  }
  const double avg = total / h.num_projections();
  EXPECT_NEAR(avg / dim, 1.0 / 3.0, 0.02);
}

TEST(Simhash, RejectsBadConfig) {
  EXPECT_THROW(Simhash({.k = 0, .l = 10, .dim = 10}), Error);
  EXPECT_THROW(Simhash({.k = 4, .l = 0, .dim = 10}), Error);
  EXPECT_THROW(Simhash({.k = 4, .l = 10, .dim = 0}), Error);
  EXPECT_THROW(Simhash({.k = 4, .l = 10, .dim = 10, .density = 0.0}), Error);
}

// ---------------------------------------------------------------------------
// Winner-take-all: DWTA's dense path (DwtaHash::hash_dense over WtaBins)
// ---------------------------------------------------------------------------

TEST(Wta, DeterministicAndInvariantToPositiveScaling) {
  DwtaHash h({.k = 4, .l = 10, .dim = 64, .bin_size = 8, .seed = 12});
  Rng rng(13);
  const auto x = random_unit(64, rng);
  auto scaled = x;
  for (auto& v : scaled) v *= 7.5f;  // WTA depends on ranks only
  std::vector<std::uint32_t> ka(h.l()), kb(h.l());
  h.hash_dense(x.data(), ka);
  h.hash_dense(scaled.data(), kb);
  EXPECT_EQ(ka, kb);
}

TEST(Wta, CodesAreWithinBinRange) {
  DwtaHash h({.k = 3, .l = 7, .dim = 40, .bin_size = 5, .seed = 14});
  Rng rng(15);
  const auto x = random_unit(40, rng);
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(h.k() * h.l()));
  h.codes_dense(x.data(), codes.data());
  for (auto c : codes) EXPECT_LT(c, 5u);
}

TEST(Wta, RankSimilarInputsCollideMore) {
  DwtaHash h({.k = 2, .l = 100, .dim = 128, .bin_size = 8, .seed = 16});
  Rng rng(17);
  double near = 0.0, far = 0.0;
  for (int i = 0; i < 10; ++i) {
    const auto x = random_unit(128, rng);
    near += key_match_rate(h, x.data(), perturb(x, 0.95f, rng).data());
    far += key_match_rate(h, x.data(), perturb(x, 0.05f, rng).data());
  }
  EXPECT_GT(near, far);
}

TEST(Wta, MemoryOptimizedPermutationCount) {
  // Storage must be O(K*L*m), i.e. ceil(K*L/(d/m)) permutations.
  DwtaHash h({.k = 6, .l = 50, .dim = 128, .bin_size = 8, .seed = 18});
  EXPECT_EQ(h.num_permutations(), (6 * 50 + (128 / 8) - 1) / (128 / 8));
}

TEST(Dwta, DenseKeysMatchThePinnedDigest) {
  // DWTA's keys as values, not properties: one FNV-1a digest over the keys
  // of seeded inputs (normals, all zeros, adversarial mixes) for every
  // shape of for_each_wta_shape, then for the amazon-role family of
  // bench::slide_config_for (K=8, L=50, bin 8 over the 128-wide hidden
  // layer, family seed 11) on seeded normals. Any change to the
  // constructor's permutation draw or to the winner rule moves it.
  std::uint64_t digest = 0xCBF29CE484222325ull;
  auto mix = [&](const std::vector<std::uint32_t>& keys) {
    for (std::uint32_t key : keys) {
      for (int b = 0; b < 4; ++b) {
        digest ^= (key >> (8 * b)) & 0xFFu;
        digest *= 0x100000001B3ull;
      }
    }
  };
  Rng rng(24);
  for_each_wta_shape([&](Index dim, int bin, int k, int l) {
    const DwtaHash h({.k = k, .l = l, .dim = dim, .bin_size = bin,
                      .seed = 19 + dim + static_cast<std::uint64_t>(bin)});
    for (const auto& x : wta_inputs(dim, rng)) {
      std::vector<std::uint32_t> keys(static_cast<std::size_t>(l));
      h.hash_dense(x.data(), keys);
      mix(keys);
    }
  });
  const DwtaHash amazon({.k = 8, .l = 50, .dim = 128, .bin_size = 8,
                         .seed = 11});
  for (int i = 0; i < 64; ++i) {
    const auto x = random_unit(128, rng);
    std::vector<std::uint32_t> keys(50);
    amazon.hash_dense(x.data(), keys);
    mix(keys);
  }
  EXPECT_EQ(digest, 0x4bc26302105b7359ull) << std::hex << digest;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(Factory, BuildsEveryKind) {
  for (auto kind : {HashFamilyKind::kSimhash, HashFamilyKind::kDwta}) {
    HashFamilyConfig cfg;
    cfg.kind = kind;
    cfg.k = 3;
    cfg.l = 5;
    cfg.dim = 64;
    const auto family = make_hash_family(cfg);
    ASSERT_NE(family, nullptr);
    EXPECT_EQ(family->k(), 3);
    EXPECT_EQ(family->l(), 5);
    EXPECT_EQ(family->dim(), 64u);
    EXPECT_EQ(family->name(), to_string(kind));
  }
}

}  // namespace
}  // namespace slide
