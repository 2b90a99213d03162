// Kernel dispatch + parity suite.
//
// Every vector kernel is checked against the scalar reference oracle at
// EVERY dispatch level this host supports (scalar / AVX2 / AVX-512),
// exhaustively across lengths 0..64 — covering every tail/mask shape of
// the 8- and 16-lane loops — plus larger sizes and unaligned base
// pointers. The int8 kernels get the same treatment plus the quantizers'
// rounding and saturation semantics. Dispatch-level selection and env
// parsing are covered at the end.
//
// The suite restores the entry dispatch level after every test, so it
// composes with the CI matrix that runs it under SLIDE_SIMD_LEVEL=scalar
// and =avx2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "simd/backend.h"
#include "simd/kernels.h"
#include "sys/rng.h"

namespace slide {
namespace {

using simd::SimdLevel;

std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAVX2, SimdLevel::kAVX512}) {
    if (simd::level_supported(level)) levels.push_back(level);
  }
  return levels;
}

std::vector<float> random_vec(std::size_t n, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = scale * (rng.uniform_float() * 2.0f - 1.0f);
  return v;
}

/// The tail/mask shapes under test: every length 0..64 (every remainder of
/// the 8- and 16-lane loops, including multiple full iterations), plus a
/// few larger sizes for the unrolled main loops.
std::vector<std::size_t> parity_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 64; ++n) sizes.push_back(n);
  for (std::size_t n : {65, 100, 127, 128, 129, 1000}) sizes.push_back(n);
  return sizes;
}

/// Base-pointer misalignments (in floats) exercised on every size. 0 is
/// the aligned case; the others guarantee the kernels never assume 32/64-
/// byte alignment.
constexpr std::size_t kOffsets[] = {0, 1, 3};
constexpr std::size_t kMaxOffset = 3;

class KernelParity : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    entry_level_ = simd::active_level();
    simd::set_simd_level(GetParam());
  }
  void TearDown() override { simd::set_simd_level(entry_level_); }

 private:
  SimdLevel entry_level_;
};

TEST_P(KernelParity, Dot) {
  Rng rng(11);
  for (std::size_t n : parity_sizes()) {
    const auto a = random_vec(n + kMaxOffset, rng);
    const auto b = random_vec(n + kMaxOffset, rng);
    for (std::size_t off : kOffsets) {
      const float ref = simd::scalar::dot(a.data() + off, b.data() + off, n);
      const float got = simd::dot(a.data() + off, b.data() + off, n);
      ASSERT_NEAR(got, ref, 1e-4f * (1.0f + std::fabs(ref)))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelParity, Axpy) {
  Rng rng(12);
  for (std::size_t n : parity_sizes()) {
    const auto x = random_vec(n + kMaxOffset, rng);
    for (std::size_t off : kOffsets) {
      auto y1 = random_vec(n + kMaxOffset, rng);
      auto y2 = y1;
      simd::scalar::axpy(0.37f, x.data() + off, y1.data() + off, n);
      simd::axpy(0.37f, x.data() + off, y2.data() + off, n);
      for (std::size_t i = 0; i < y1.size(); ++i)
        ASSERT_NEAR(y1[i], y2[i], 1e-5f) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelParity, Scale) {
  Rng rng(13);
  for (std::size_t n : parity_sizes()) {
    for (std::size_t off : kOffsets) {
      auto x1 = random_vec(n + kMaxOffset, rng);
      auto x2 = x1;
      simd::scalar::scale(x1.data() + off, -1.83f, n);
      simd::scale(x2.data() + off, -1.83f, n);
      for (std::size_t i = 0; i < x1.size(); ++i)
        ASSERT_EQ(x1[i], x2[i]) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelParity, Sum) {
  Rng rng(14);
  for (std::size_t n : parity_sizes()) {
    const auto x = random_vec(n + kMaxOffset, rng);
    for (std::size_t off : kOffsets) {
      ASSERT_NEAR(simd::sum(x.data() + off, n),
                  simd::scalar::sum(x.data() + off, n),
                  1e-4f * (1.0f + static_cast<float>(n) * 0.01f))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelParity, Max) {
  Rng rng(15);
  for (std::size_t n : parity_sizes()) {
    const auto x = random_vec(n + kMaxOffset, rng);
    for (std::size_t off : kOffsets) {
      // Exact: max never rounds. n == 0 must yield -inf on every level.
      ASSERT_EQ(simd::max(x.data() + off, n),
                simd::scalar::max(x.data() + off, n))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelParity, Relu) {
  Rng rng(16);
  for (std::size_t n : parity_sizes()) {
    for (std::size_t off : kOffsets) {
      auto x1 = random_vec(n + kMaxOffset, rng);
      auto x2 = x1;
      simd::scalar::relu(x1.data() + off, n);
      simd::relu(x2.data() + off, n);
      for (std::size_t i = 0; i < x1.size(); ++i) {
        ASSERT_EQ(x1[i], x2[i]) << "n=" << n << " off=" << off;
      }
    }
  }
}

TEST_P(KernelParity, SparseDot) {
  Rng rng(17);
  const std::size_t dim = 5000;
  const auto dense = random_vec(dim + kMaxOffset, rng);
  for (std::size_t nnz : parity_sizes()) {
    std::vector<Index> idx(nnz + kMaxOffset);
    std::vector<float> val(nnz + kMaxOffset);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      // Duplicates allowed by the kernel contract; keep some on purpose.
      idx[i] = rng.uniform(static_cast<std::uint32_t>(dim));
      val[i] = rng.uniform_float() * 2.0f - 1.0f;
    }
    for (std::size_t off : kOffsets) {
      const float ref = simd::scalar::sparse_dot(idx.data() + off,
                                                 val.data() + off, nnz,
                                                 dense.data());
      const float got = simd::sparse_dot(idx.data() + off, val.data() + off,
                                         nnz, dense.data());
      ASSERT_NEAR(got, ref, 1e-4f * (1.0f + std::fabs(ref)))
          << "nnz=" << nnz << " off=" << off;
    }
  }
}

TEST_P(KernelParity, SparseAxpy) {
  Rng rng(18);
  const std::size_t dim = 500;
  for (std::size_t nnz : parity_sizes()) {
    std::vector<Index> idx(nnz);
    std::vector<float> val(nnz);
    for (std::size_t i = 0; i < nnz; ++i) {
      idx[i] = rng.uniform(static_cast<std::uint32_t>(dim));
      val[i] = rng.uniform_float();
    }
    auto d1 = random_vec(dim, rng);
    auto d2 = d1;
    simd::scalar::sparse_axpy(0.7f, idx.data(), val.data(), nnz, d1.data());
    simd::sparse_axpy(0.7f, idx.data(), val.data(), nnz, d2.data());
    for (std::size_t i = 0; i < dim; ++i)
      ASSERT_NEAR(d1[i], d2[i], 1e-5f) << "nnz=" << nnz;
  }
}

TEST_P(KernelParity, Softmax) {
  Rng rng(19);
  for (std::size_t n : parity_sizes()) {
    if (n == 0) continue;
    for (std::size_t off : kOffsets) {
      auto x1 = random_vec(n + kMaxOffset, rng, 5.0f);
      auto x2 = x1;
      simd::scalar::softmax_inplace(x1.data() + off, n);
      simd::softmax_inplace(x2.data() + off, n);
      float total = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(x1[off + i], x2[off + i], 1e-5f)
            << "n=" << n << " off=" << off;
        total += x2[off + i];
      }
      ASSERT_NEAR(total, 1.0f, 1e-4f);
    }
  }
}

TEST_P(KernelParity, AdamStep) {
  Rng rng(20);
  for (std::size_t n : parity_sizes()) {
    for (std::size_t off : kOffsets) {
      const std::size_t len = n + kMaxOffset;
      auto w1 = random_vec(len, rng);
      auto w2 = w1;
      auto m1 = random_vec(len, rng, 0.1f);
      auto m2 = m1;
      std::vector<float> v1(len), v2(len);
      for (auto& v : v1) v = rng.uniform_float() * 0.01f;
      v2 = v1;
      const auto g = random_vec(len, rng);
      simd::scalar::adam_step(w1.data() + off, m1.data() + off,
                              v1.data() + off, g.data() + off, n, 1e-3f,
                              0.9f, 0.999f, 1e-8f, 0.1f, 0.001f);
      simd::adam_step(w2.data() + off, m2.data() + off, v2.data() + off,
                      g.data() + off, n, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.1f,
                      0.001f);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_NEAR(w1[i], w2[i], 2e-5f) << "n=" << n << " off=" << off;
        ASSERT_NEAR(m1[i], m2[i], 1e-6f) << "n=" << n << " off=" << off;
        ASSERT_NEAR(v1[i], v2[i], 1e-6f) << "n=" << n << " off=" << off;
      }
    }
  }
}

/// Values for winner-take-all inputs: a third from a tiny pool (ties),
/// a third adversarial (signed zeros, infinities, NaN), a third random.
std::vector<float> wta_values(std::size_t n, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float special[] = {0.0f, -0.0f, inf, -inf, nan, -nan};
  std::vector<float> v(n);
  for (auto& x : v) {
    switch (rng.uniform(3)) {
      case 0:
        x = static_cast<float>(rng.uniform(3)) - 1.0f;
        break;
      case 1:
        x = special[rng.uniform(6)];
        break;
      default:
        x = rng.uniform_float() * 2.0f - 1.0f;
    }
  }
  return v;
}

TEST_P(KernelParity, WtaCodes) {
  // The rule on hand-made codes (3 slots x 4 codes): a tie keeps the
  // earliest slot, a NaN in slot 0 is never beaten, a later NaN never
  // wins, and +0 does not beat -0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float x[] = {1.0f, 2.0f, nan, -0.0f, 0.0f, -inf};
  const std::int32_t hand_idx[] = {0, 2, 5, 3,   // slot 0
                                   1, 1, 2, 4,   // slot 1
                                   1, 0, 0, 3};  // slot 2
  const std::uint32_t hand_label[] = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  std::uint32_t hand_out[4] = {};
  simd::wta_codes(x, hand_idx, hand_label, 3, 4, hand_out);
  EXPECT_EQ(hand_out[0], 1u);  // 1, 2, 2: the first 2
  EXPECT_EQ(hand_out[1], 0u);  // NaN, 2, 1
  EXPECT_EQ(hand_out[2], 2u);  // -inf, NaN, 1
  EXPECT_EQ(hand_out[3], 0u);  // -0, +0, -0

  // Exact parity with the scalar oracle: every group size 2..16, every
  // code count 0..64 (all tails of the 8- and 16-lane loops) plus the
  // K*L = 400 training shape and one past it, unaligned table starts.
  // Labels are random words, so a winner read from the wrong slot or lane
  // shows; the sentinel past the end catches a tail that writes too far.
  Rng rng(50);
  const std::size_t dim = 97;
  const auto values = wta_values(dim, rng);
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 64; ++n) counts.push_back(n);
  counts.push_back(400);
  counts.push_back(401);
  for (std::size_t group = 2; group <= 16; ++group) {
    for (std::size_t n : counts) {
      const std::size_t len = group * n + kMaxOffset;
      std::vector<std::int32_t> idx(len);
      std::vector<std::uint32_t> label(len);
      for (auto& i : idx) i = static_cast<std::int32_t>(rng.uniform(dim));
      for (auto& l : label) l = static_cast<std::uint32_t>(rng());
      for (std::size_t off : kOffsets) {
        std::vector<std::uint32_t> ref(n + kMaxOffset + 1, 0xDEADBEEFu);
        std::vector<std::uint32_t> got = ref;
        simd::scalar::wta_codes(values.data(), idx.data() + off,
                                label.data() + off, group, n,
                                ref.data() + off);
        simd::wta_codes(values.data(), idx.data() + off, label.data() + off,
                        group, n, got.data() + off);
        ASSERT_EQ(got, ref) << "group=" << group << " n=" << n
                            << " off=" << off;
      }
    }
  }
}

/// Finite values that make a float sum depend on its order: signed zeros,
/// subnormals, +-1e30 and random magnitudes from 2^-100 to 2^99.
std::vector<float> sign_project_values(std::size_t n, Rng& rng) {
  const float special[] = {0.0f,    -0.0f,  1e-40f, -1e-45f,
                           1e30f,   -1e30f, 1.0f,   -1.0f};
  std::vector<float> v(n);
  for (auto& x : v) {
    if (rng.uniform(4) == 0) {
      x = special[rng.uniform(8)];
    } else {
      const int exponent = static_cast<int>(rng.uniform(200)) - 100;
      x = std::ldexp(rng.uniform_float() * 2.0f - 1.0f, exponent);
    }
  }
  return v;
}

std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

TEST_P(KernelParity, SignProject) {
  // Exact parity with the scalar oracle on sign matrices: dims and
  // projection counts on both sides of the 8- and 16-lane groups and the
  // 32- and 64-lane blocks, row counts on both sides of the 2- and 4-row
  // tiles, and values whose sums change with the order of their terms.
  // The padding lanes of w hold signs too, so a lane past n that leaked
  // into an output would show. Output rows sit one slot apart; the
  // sentinel in that slot catches a tail store that writes too far.
  Rng rng(52);
  const float sentinel = -12345.5f;
  for (std::size_t dim : {1, 2, 15, 16, 17, 128, 300}) {
    for (std::size_t n : {1, 15, 16, 17, 63, 64, 65, 450}) {
      const std::size_t stride =
          (n + simd::kSignLanes - 1) / simd::kSignLanes * simd::kSignLanes;
      std::vector<simd::I8> w(dim * stride);
      for (auto& s : w)
        s = static_cast<simd::I8>(static_cast<int>(rng.uniform(3)) - 1);
      for (std::size_t rows : {1, 2, 3, 4, 5, 9}) {
        const auto x = sign_project_values(rows * dim, rng);
        // The contract spelled out: one coordinate at a time, from +0.
        std::vector<float> want(rows * (n + 1), sentinel);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t p = 0; p < n; ++p) {
            float acc = 0.0f;
            for (std::size_t d = 0; d < dim; ++d)
              acc += static_cast<float>(w[d * stride + p]) * x[r * dim + d];
            want[r * (n + 1) + p] = acc;
          }
        }
        std::vector<float> ref(rows * (n + 1), sentinel);
        std::vector<float> got = ref;
        simd::scalar::sign_project(w.data(), stride, dim, n, x.data(), dim,
                                   rows, ref.data(), n + 1);
        simd::sign_project(w.data(), stride, dim, n, x.data(), dim, rows,
                           got.data(), n + 1);
        ASSERT_EQ(float_bits(ref), float_bits(want))
            << "oracle: dim=" << dim << " n=" << n << " rows=" << rows;
        ASSERT_EQ(float_bits(got), float_bits(ref))
            << "dim=" << dim << " n=" << n << " rows=" << rows;
      }
    }
  }
}

// ---- int8 tier kernels ----------------------------------------------------

std::vector<simd::I8> random_i8(std::size_t n, Rng& rng) {
  std::vector<simd::I8> v(n);
  // Full signed range including the +/-127 saturation edges.
  for (auto& x : v)
    x = static_cast<simd::I8>(static_cast<int>(rng.uniform(255)) - 127);
  return v;
}

std::vector<simd::U8> random_u8(std::size_t n, Rng& rng) {
  std::vector<simd::U8> v(n);
  for (auto& x : v) x = static_cast<simd::U8>(rng.uniform(128));
  return v;
}

TEST_P(KernelParity, DotI8) {
  Rng rng(31);
  for (std::size_t n : parity_sizes()) {
    auto w = random_i8(n + kMaxOffset, rng);
    auto x = random_u8(n + kMaxOffset, rng);
    if (n >= 2) {
      // Pin the extreme product 127*127 into the accumulation: proves the
      // vpmaddubsw pair sum (2 * 127 * 127 < INT16_MAX) never saturates.
      w[kMaxOffset] = 127;
      x[kMaxOffset] = 127;
      w[kMaxOffset + 1] = -127;
      x[kMaxOffset + 1] = 127;
    }
    for (std::size_t off : kOffsets) {
      const std::int32_t ref =
          simd::scalar::dot_i8(w.data() + off, x.data() + off, n);
      const std::int32_t got = simd::dot_i8(w.data() + off, x.data() + off, n);
      // Integer math is exact at every level — bitwise equality, not NEAR.
      ASSERT_EQ(got, ref) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelParity, SparseDotI8) {
  Rng rng(32);
  const std::size_t dim = 3000;
  const auto dense = random_i8(dim, rng);
  for (std::size_t nnz : parity_sizes()) {
    std::vector<Index> idx(nnz);
    std::vector<float> val(nnz);
    for (std::size_t i = 0; i < nnz; ++i) {
      idx[i] = rng.uniform(static_cast<std::uint32_t>(dim));
      val[i] = rng.uniform_float();
    }
    const float ref = simd::scalar::sparse_dot_i8(idx.data(), val.data(), nnz,
                                                  dense.data());
    const float got =
        simd::sparse_dot_i8(idx.data(), val.data(), nnz, dense.data());
    ASSERT_NEAR(got, ref, 1e-2f * (1.0f + std::fabs(ref))) << "nnz=" << nnz;
  }
}

TEST_P(KernelParity, AxpyI8) {
  Rng rng(33);
  for (std::size_t n : parity_sizes()) {
    const auto x = random_i8(n + kMaxOffset, rng);
    for (std::size_t off : kOffsets) {
      auto y1 = random_vec(n + kMaxOffset, rng);
      auto y2 = y1;
      simd::scalar::axpy_i8(0.013f, x.data() + off, y1.data() + off, n);
      simd::axpy_i8(0.013f, x.data() + off, y2.data() + off, n);
      for (std::size_t i = 0; i < y1.size(); ++i)
        ASSERT_NEAR(y1[i], y2[i], 1e-4f) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelParity, QuantizeI8MatchesScalar) {
  Rng rng(34);
  for (std::size_t n : parity_sizes()) {
    const auto src = random_vec(n, rng, 5.0f);
    std::vector<simd::I8> q(n, 99), q_ref(n, 99);
    const float s = simd::quantize_i8(src.data(), q.data(), n);
    const float s_ref = simd::scalar::quantize_i8(src.data(), q_ref.data(), n);
    ASSERT_EQ(s, s_ref) << "n=" << n;
    ASSERT_EQ(q, q_ref) << "n=" << n;

    std::vector<simd::U8> u(n, 99), u_ref(n, 99);
    const float a = simd::quantize_act_u8(src.data(), u.data(), n);
    const float a_ref =
        simd::scalar::quantize_act_u8(src.data(), u_ref.data(), n);
    ASSERT_EQ(a, a_ref) << "n=" << n;
    ASSERT_EQ(u, u_ref) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, KernelParity,
                         ::testing::ValuesIn(supported_levels()),
                         [](const auto& info) {
                           return std::string(simd::to_string(info.param));
                         });

// ---- int8 quantizer semantics ----------------------------------------------

TEST(Int8, QuantizeSaturatesAtPlusMinus127) {
  const float src[] = {2.0f, -2.0f, 1.0f, -1.0f, 0.0f};
  simd::I8 q[5];
  const float scale = simd::scalar::quantize_i8(src, q, 5);
  EXPECT_FLOAT_EQ(scale, 2.0f / 127.0f);
  EXPECT_EQ(q[0], 127);   // |amax| row entries land exactly on the edge
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[2], 64);    // 63.5 ties to even -> 64
  EXPECT_EQ(q[3], -64);
  EXPECT_EQ(q[4], 0);
}

TEST(Int8, QuantizeZeroRowYieldsScaleZero) {
  const float src[] = {0.0f, -0.0f, 0.0f};
  simd::I8 q[] = {5, 5, 5};
  EXPECT_EQ(simd::scalar::quantize_i8(src, q, 3), 0.0f);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 0);
  EXPECT_EQ(q[2], 0);
}

TEST(Int8, QuantizeTiesRoundToEven) {
  // amax = 127 makes inv = 1, so the sources are quantized verbatim:
  // x.5 ties must go to the even neighbor (nearbyint under the default
  // rounding mode), matching what a future vcvtps2dq vector path does.
  const float src[] = {127.0f, 0.5f, 1.5f, 2.5f, -0.5f, -1.5f};
  simd::I8 q[6];
  (void)simd::scalar::quantize_i8(src, q, 6);
  EXPECT_EQ(q[1], 0);
  EXPECT_EQ(q[2], 2);
  EXPECT_EQ(q[3], 2);
  EXPECT_EQ(q[4], 0);
  EXPECT_EQ(q[5], -2);
}

TEST(Int8, QuantizeRoundTripWithinHalfStep) {
  Rng rng(51);
  const std::size_t n = 512;
  const auto src = random_vec(n, rng, 3.0f);
  std::vector<simd::I8> q(n);
  const float scale = simd::scalar::quantize_i8(src.data(), q.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scale * static_cast<float>(q[i]), src[i], scale * 0.5f + 1e-7f)
        << i;
  }
}

TEST(Int8, ActivationQuantizeClampsNegativesToZero) {
  const float src[] = {-3.0f, 0.0f, 1.0f, 2.0f, -0.5f};
  simd::U8 q[5];
  const float scale = simd::scalar::quantize_act_u8(src, q, 5);
  EXPECT_FLOAT_EQ(scale, 2.0f / 127.0f);
  EXPECT_EQ(q[0], 0u);  // negative inputs clamp (post-ReLU contract)
  EXPECT_EQ(q[1], 0u);
  EXPECT_EQ(q[2], 64u);  // 63.5 -> even
  EXPECT_EQ(q[3], 127u);
  EXPECT_EQ(q[4], 0u);

  // All-nonpositive input: scale 0, everything zero.
  const float neg[] = {-1.0f, -2.0f};
  simd::U8 qn[] = {9, 9};
  EXPECT_EQ(simd::scalar::quantize_act_u8(neg, qn, 2), 0.0f);
  EXPECT_EQ(qn[0], 0u);
  EXPECT_EQ(qn[1], 0u);
}

TEST(Int8, MixedDotRecoversFp32Score) {
  // End-to-end score recovery: bias + sw * sx * dot_i8 must track the fp32
  // dot within the combined quantization error bound.
  Rng rng(52);
  const std::size_t n = 256;
  const auto w = random_vec(n, rng);
  auto x = random_vec(n, rng);
  for (auto& v : x) v = std::max(v, 0.0f);  // post-ReLU activations
  std::vector<simd::I8> qw(n);
  std::vector<simd::U8> qx(n);
  const float sw = simd::scalar::quantize_i8(w.data(), qw.data(), n);
  const float sx = simd::scalar::quantize_act_u8(x.data(), qx.data(), n);
  const float fp32 = simd::scalar::dot(w.data(), x.data(), n);
  const float i8 = sw * sx *
                   static_cast<float>(simd::scalar::dot_i8(
                       qw.data(), qx.data(), n));
  // Each term errs by <= (sw/2)|x_i| + (sx/2)|w_i| + sw*sx/4.
  float bound = 0.0f;
  for (std::size_t i = 0; i < n; ++i)
    bound += 0.5f * sw * std::fabs(x[i]) + 0.5f * sx * std::fabs(w[i]) +
             0.25f * sw * sx;
  EXPECT_NEAR(i8, fp32, bound + 1e-5f);
}

// ---- dispatch machinery ----------------------------------------------------

class DispatchLevels : public ::testing::Test {
 protected:
  void SetUp() override { entry_level_ = simd::active_level(); }
  void TearDown() override { simd::set_simd_level(entry_level_); }
  simd::SimdLevel entry_level_;
};

TEST_F(DispatchLevels, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(simd::level_compiled(SimdLevel::kScalar));
  EXPECT_TRUE(simd::level_supported(SimdLevel::kScalar));
  EXPECT_TRUE(simd::level_supported(simd::detected_level()));
}

TEST_F(DispatchLevels, SetLevelRebindsTheTable) {
  for (SimdLevel level : supported_levels()) {
    simd::set_simd_level(level);
    EXPECT_EQ(simd::active_level(), level);
    EXPECT_EQ(simd::backend().level, level);
    EXPECT_STREQ(simd::backend().name, simd::to_string(level));
    // Kernels keep working at every binding.
    std::vector<float> a = {1, 2, 3}, b = {4, 5, 6};
    EXPECT_FLOAT_EQ(simd::dot(a.data(), b.data(), 3), 32.0f);
  }
}

TEST_F(DispatchLevels, BackendForReturnsFixedTables) {
  for (SimdLevel level : supported_levels()) {
    const simd::Backend* table = simd::backend_for(level);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->level, level);
  }
}

TEST_F(DispatchLevels, KernelPathNamesAreRecorded) {
  // Every binding names the int8 path it scores through (it lands in
  // BENCH_backend.json rows and the serve_cli banner). Scalar is always
  // "scalar"; vector levels report whichever instruction path cpuid
  // selected at bind time — the graceful-downgrade contract is that the
  // slot is always callable, never that a specific ISA was picked.
  for (SimdLevel level : supported_levels()) {
    simd::set_simd_level(level);
    const simd::Backend& b = simd::backend();
    ASSERT_NE(b.i8_path, nullptr);
    if (level == SimdLevel::kScalar) {
      EXPECT_STREQ(b.i8_path, "scalar");
    }
    // All five int8 tier slots must be bound at every level.
    EXPECT_NE(b.dot_i8, nullptr);
    EXPECT_NE(b.sparse_dot_i8, nullptr);
    EXPECT_NE(b.axpy_i8, nullptr);
    EXPECT_NE(b.quantize_i8, nullptr);
    EXPECT_NE(b.quantize_act_u8, nullptr);
  }
}

TEST_F(DispatchLevels, UnsupportedLevelThrows) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAVX2, SimdLevel::kAVX512}) {
    if (simd::level_supported(level)) continue;
    EXPECT_THROW(simd::set_simd_level(level), Error);
    EXPECT_EQ(simd::backend_for(level), nullptr);
  }
}

TEST_F(DispatchLevels, ParseRoundTripsAndRejectsGarbage) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAVX2, SimdLevel::kAVX512}) {
    EXPECT_EQ(simd::parse_simd_level(simd::to_string(level)), level);
  }
  EXPECT_THROW(simd::parse_simd_level("avx1024"), Error);
  EXPECT_THROW(simd::parse_simd_level(nullptr), Error);
}

TEST(Softmax, StableUnderLargeLogits) {
  std::vector<float> x = {1000.0f, 1000.0f, 999.0f};
  simd::softmax_inplace(x.data(), x.size());
  EXPECT_NEAR(x[0], x[1], 1e-6f);
  EXPECT_GT(x[0], x[2]);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0f, 1e-5f);
}

}  // namespace
}  // namespace slide
