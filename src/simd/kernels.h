// Vectorized math kernels behind the runtime dispatch (simd/backend.h).
//
// The paper's appendix D attributes ~1.3x of SLIDE's final speedup to
// platform micro-optimization: AVX SIMD for the dense inner loops
// (activation dot products, weight updates) plus software prefetching, and
// the follow-up "Accelerating SLIDE on Modern CPUs" adds AVX-512 and
// reduced-precision weights on the same loops. Every call below lands in
// the kernel table the dispatch bound at startup (scalar / AVX2+FMA /
// AVX-512F+BW), so one binary runs at full width on every machine; see
// backend.h for level selection and overrides. Every vector kernel has a
// scalar twin in simd::scalar used both as the dispatch fallback and as
// the oracle in the test suite.
//
// All pointers may be unaligned; kernels handle the tail per-element (or
// with masked loads on AVX-512).
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/backend.h"
#include "simd/int8.h"
#include "sys/common.h"

namespace slide::simd {

/// Dense dot product <a, b> over n floats.
float dot(const float* a, const float* b, std::size_t n) noexcept;

/// y[i] += alpha * x[i] for i in [0, n).
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept;

/// x[i] *= alpha.
void scale(float* x, float alpha, std::size_t n) noexcept;

/// x[i] = max(x[i], 0).
void relu(float* x, std::size_t n) noexcept;

/// Numerically-stable in-place softmax over x[0..n).
void softmax_inplace(float* x, std::size_t n) noexcept;

/// One Adam step over a contiguous span of n weights:
///   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g^2
///   w -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
/// bias1/bias2 are the bias-correction denominators (1 - beta^t).
void adam_step(float* w, float* m, float* v, const float* g, std::size_t n,
               float lr, float beta1, float beta2, float eps, float bias1,
               float bias2) noexcept;

/// Winner-take-all codes over a transposed table of `group` slots x `n`
/// codes (group >= 1): slot j of code c reads x[idx[j * n + c]] and
/// carries label[j * n + c]. out[c] is the label of the first strict
/// maximum in slot order: ties go to the earliest slot, and a NaN never
/// wins after slot 0 (every comparison is an ordered `>`). Integer
/// results, so every level is bit-identical to the scalar reference.
void wta_codes(const float* x, const std::int32_t* idx,
               const std::uint32_t* label, std::size_t group, std::size_t n,
               std::uint32_t* out) noexcept;

/// Lane group of a sign_project matrix row: the vector levels load w in
/// whole groups of this many entries.
inline constexpr std::size_t kSignLanes = 16;

/// Projects a block of rows through a coordinate-major sign matrix:
///   out[r * out_stride + p] = sum of w[d * w_stride + p] * x[r * x_stride + d]
/// for r < rows and p < n, each sum accumulated from +0 in increasing d.
/// Entries of w are -1, 0 or +1, so every product is exact and every level
/// returns the scalar reference bit for bit on finite inputs. w_stride must
/// be at least n rounded up to kSignLanes: the lanes past n are read, never
/// stored.
void sign_project(const I8* w, std::size_t w_stride, std::size_t dim,
                  std::size_t n, const float* x, std::size_t x_stride,
                  std::size_t rows, float* out,
                  std::size_t out_stride) noexcept;

// ---- Int8 quantized kernels (see simd/int8.h for the format) -------------
// Weights s8 with a per-row symmetric scale, activations u8 in [0,127] with
// a per-query scale. The raw dot stays in int32 and is exact on every path
// (no vpmaddubsw saturation is reachable), so parity tests use equality.

/// Raw integer MAC: sum_i w[i] * x[i] (s8 x u8, int32 accumulation).
/// Callers rescale: score = bias + scale_row * scale_act * dot_i8(...).
std::int32_t dot_i8(const I8* w, const U8* x, std::size_t n) noexcept;

/// y[i] += alpha * widen(x[i]) — s8 source, fp32 destination. alpha folds
/// the row scale (and any activation value) in.
void axpy_i8(float alpha, const I8* x, float* y, std::size_t n) noexcept;

/// Quantizes one fp32 row to s8 (symmetric, RNE, clamp to +/-127); returns
/// the row scale, 0 for an all-zero row (dst then holds zeros).
float quantize_i8(const float* src, I8* dst, std::size_t n) noexcept;

/// Quantizes a non-negative activation vector to u8 in [0,127]; negative
/// inputs clamp to 0. Returns the per-query scale (0 when max(x) <= 0).
float quantize_act_u8(const float* src, U8* dst, std::size_t n) noexcept;

/// Scalar reference implementations (always available; used as the oracle
/// in tests and as the table entries of the scalar dispatch level).
namespace scalar {
float dot(const float* a, const float* b, std::size_t n) noexcept;
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale(float* x, float alpha, std::size_t n) noexcept;
/// Max of x[0..n); returns -inf for n == 0 (softmax_inplace's shift).
float max(const float* x, std::size_t n) noexcept;
void relu(float* x, std::size_t n) noexcept;
void softmax_inplace(float* x, std::size_t n) noexcept;
void adam_step(float* w, float* m, float* v, const float* g, std::size_t n,
               float lr, float beta1, float beta2, float eps, float bias1,
               float bias2) noexcept;
void wta_codes(const float* x, const std::int32_t* idx,
               const std::uint32_t* label, std::size_t group, std::size_t n,
               std::uint32_t* out) noexcept;
void sign_project(const I8* w, std::size_t w_stride, std::size_t dim,
                  std::size_t n, const float* x, std::size_t x_stride,
                  std::size_t rows, float* out,
                  std::size_t out_stride) noexcept;
std::int32_t dot_i8(const I8* w, const U8* x, std::size_t n) noexcept;
void axpy_i8(float alpha, const I8* x, float* y, std::size_t n) noexcept;
float quantize_i8(const float* src, I8* dst, std::size_t n) noexcept;
float quantize_act_u8(const float* src, U8* dst, std::size_t n) noexcept;
}  // namespace scalar

}  // namespace slide::simd
