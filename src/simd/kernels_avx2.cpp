// AVX2+FMA kernel table.
//
// This is one of the two translation units built with vector ISA flags
// (-mavx2 -mfma, see the simd section of CMakeLists.txt; everything else
// targets generic x86-64), and it is entered only after cpuid confirms the
// CPU has AVX2+FMA — the table pointer below is constant-initialized, so no
// AVX2 instruction runs on a machine that lacks them. When the compiler
// cannot build AVX2 at all, CMake leaves SLIDE_COMPILE_AVX2 undefined, the
// TU degrades to a null table and the dispatch skips the level.
#include "simd/backend_registry.h"
#include "simd/kernels.h"

#ifdef SLIDE_COMPILE_AVX2
#include <immintrin.h>

#include <cmath>
#endif

namespace slide::simd {

#ifdef SLIDE_COMPILE_AVX2
namespace avx2 {

inline float hsum256(__m256 v) noexcept {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

float dot(const float* a, const float* b, std::size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float acc = hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

float sum(const float* x, std::size_t n) noexcept {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
  float s = hsum256(acc);
  for (; i < n; ++i) s += x[i];
  return s;
}

float max(const float* x, std::size_t n) noexcept {
  if (n < 8) return scalar::max(x, n);
  __m256 vm = _mm256_loadu_ps(x);
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8) vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vm);
  float m = lanes[0];
  for (int k = 1; k < 8; ++k) m = lanes[k] > m ? lanes[k] : m;
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void relu(float* x, std::size_t n) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

float sparse_dot(const Index* idx, const float* val, std::size_t nnz,
                 const float* dense) noexcept {
  // Gather-based: profitable on sparse inputs with tens of nonzeros.
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= nnz; i += 8) {
    const __m256i vi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    const __m256 vd = _mm256_i32gather_ps(dense, vi, 4);
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(val + i), vd, acc);
  }
  float s = hsum256(acc);
  for (; i < nnz; ++i) s += val[i] * dense[idx[i]];
  return s;
}

void softmax_inplace(float* x, std::size_t n) noexcept {
  // exp() dominates; vectorizing max + normalization still helps.
  if (n == 0) return;
  const float m = avx2::max(x, n);
  float z = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - m);
    z += x[i];
  }
  avx2::scale(x, 1.0f / z, n);
}

void adam_step(float* w, float* m, float* v, const float* g, std::size_t n,
               float lr, float beta1, float beta2, float eps, float bias1,
               float bias2) noexcept {
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vib1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vib2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 vinvc1 = _mm256_set1_ps(1.0f / bias1);
  const __m256 vinvc2 = _mm256_set1_ps(1.0f / bias2);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vlr = _mm256_set1_ps(lr);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vg = _mm256_loadu_ps(g + i);
    __m256 vm = _mm256_loadu_ps(m + i);
    __m256 vv = _mm256_loadu_ps(v + i);
    vm = _mm256_fmadd_ps(vb1, vm, _mm256_mul_ps(vib1, vg));
    vv = _mm256_fmadd_ps(vb2, vv, _mm256_mul_ps(vib2, _mm256_mul_ps(vg, vg)));
    _mm256_storeu_ps(m + i, vm);
    _mm256_storeu_ps(v + i, vv);
    const __m256 mhat = _mm256_mul_ps(vm, vinvc1);
    const __m256 vhat = _mm256_mul_ps(vv, vinvc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
  }
  if (i < n) {
    scalar::adam_step(w + i, m + i, v + i, g + i, n - i, lr, beta1, beta2,
                      eps, bias1, bias2);
  }
}

/// One lane per code: gather slot j of 8 codes, ordered `>` compare
/// against the running best (NaN never wins, ties keep the earlier slot),
/// and blend in the winners' value and label. The tail runs the same loop
/// with a lane mask on every load, gather and store.
void wta_codes(const float* x, const std::int32_t* idx,
               const std::uint32_t* label, std::size_t group, std::size_t n,
               std::uint32_t* out) noexcept {
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t c = 0; c < n; c += 8) {
    const int rem = n - c >= 8 ? 8 : static_cast<int>(n - c);
    const __m256i k = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), lanes);
    const __m256 kf = _mm256_castsi256_ps(k);
    const auto gather = [&](std::size_t slot) {
      const __m256i vi = _mm256_maskload_epi32(idx + slot, k);
      return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), x, vi, kf, 4);
    };
    const auto labels = [&](std::size_t slot) {
      return _mm256_castsi256_ps(_mm256_maskload_epi32(
          reinterpret_cast<const int*>(label + slot), k));
    };
    __m256 best = gather(c);
    __m256 code = labels(c);
    for (std::size_t j = 1; j < group; ++j) {
      const std::size_t slot = j * n + c;
      const __m256 v = gather(slot);
      const __m256 win = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
      best = _mm256_blendv_ps(best, v, win);
      code = _mm256_blendv_ps(code, labels(slot), win);
    }
    _mm256_maskstore_epi32(reinterpret_cast<int*>(out + c), k,
                           _mm256_castps_si256(code));
  }
}

/// Matrix rows ahead that a sign_project tile prefetches. A tile walks
/// its slab at the matrix's row stride, which the hardware prefetchers
/// follow poorly, and a query usually finds its family's matrix cold.
constexpr std::size_t kSignPrefetchRows = 16;

/// sign_project register tile: R rows x C 8-lane groups of projections.
/// Step d widens matrix row d's C groups to fp32 once and FMAs each into
/// every row's accumulators against that row's x[d] broadcast, so lane p
/// of row r sums its products in increasing d, as the scalar reference
/// does (a +-1 or 0 product is exact, so the fused add rounds the same).
/// `last` masks the store of the final group.
template <int R, int C>
void sign_tile(const I8* w, std::size_t w_stride, std::size_t dim,
               const float* x, std::size_t x_stride, float* out,
               std::size_t out_stride, __m256i last) noexcept {
  __m256 acc[R][C];
  for (int r = 0; r < R; ++r)
    for (int c = 0; c < C; ++c) acc[r][c] = _mm256_setzero_ps();
  for (std::size_t d = 0; d < dim; ++d) {
    const I8* wd = w + d * w_stride;
    if (d + kSignPrefetchRows < dim) {
      const char* ahead =
          reinterpret_cast<const char*>(wd + kSignPrefetchRows * w_stride);
      _mm_prefetch(ahead, _MM_HINT_T0);
      _mm_prefetch(ahead + 8 * C - 1, _MM_HINT_T0);
    }
    __m256 xd[R];
    for (int r = 0; r < R; ++r) xd[r] = _mm256_set1_ps(x[r * x_stride + d]);
    for (int c = 0; c < C; ++c) {
      const __m128i raw =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(wd + 8 * c));
      const __m256 wv = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
      for (int r = 0; r < R; ++r)
        acc[r][c] = _mm256_fmadd_ps(wv, xd[r], acc[r][c]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* o = out + r * out_stride;
    for (int c = 0; c + 1 < C; ++c) _mm256_storeu_ps(o + 8 * c, acc[r][c]);
    _mm256_maskstore_ps(o + 8 * (C - 1), last, acc[r][C - 1]);
  }
}

template <int R>
void sign_tile_rows(int groups, const I8* w, std::size_t w_stride,
                    std::size_t dim, const float* x, std::size_t x_stride,
                    float* out, std::size_t out_stride,
                    __m256i last) noexcept {
  switch (groups) {
    case 1:
      return sign_tile<R, 1>(w, w_stride, dim, x, x_stride, out, out_stride,
                             last);
    case 2:
      return sign_tile<R, 2>(w, w_stride, dim, x, x_stride, out, out_stride,
                             last);
    case 3:
      return sign_tile<R, 3>(w, w_stride, dim, x, x_stride, out, out_stride,
                             last);
    default:
      return sign_tile<R, 4>(w, w_stride, dim, x, x_stride, out, out_stride,
                             last);
  }
}

/// Tiles of up to 2 rows x 32 projections (16 registers hold 8
/// accumulators, 2 broadcasts and the widened groups). Projection blocks
/// run outer and row tiles inner, so a block's slab of w stays in L1 while
/// every row tile passes over it.
void sign_project(const I8* w, std::size_t w_stride, std::size_t dim,
                  std::size_t n, const float* x, std::size_t x_stride,
                  std::size_t rows, float* out,
                  std::size_t out_stride) noexcept {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t p = 0; p < n; p += 32) {
    const std::size_t lanes = n - p < 32 ? n - p : 32;
    const int groups = static_cast<int>((lanes + 7) / 8);
    const __m256i last = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(lanes) - 8 * (groups - 1)), lane);
    std::size_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      sign_tile_rows<2>(groups, w + p, w_stride, dim, x + r * x_stride,
                        x_stride, out + r * out_stride + p, out_stride, last);
    }
    if (r < rows) {
      sign_tile_rows<1>(groups, w + p, w_stride, dim, x + r * x_stride,
                        x_stride, out + r * out_stride + p, out_stride, last);
    }
  }
}

inline std::int32_t hsum256_epi32(__m256i v) noexcept {
  __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_hadd_epi32(lo, lo);
  lo = _mm_hadd_epi32(lo, lo);
  return _mm_cvtsi128_si32(lo);
}

std::int32_t dot_i8(const I8* w, const U8* x, std::size_t n) noexcept {
  // vpmaddubsw multiplies u8 (first operand) by s8 (second) into int16
  // pairs; with activations capped at 127 (int8.h contract) the pair sum
  // cannot saturate, so widening with madd(.., 1) keeps the result exact.
  __m256i acc = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i pairs = _mm256_maddubs_epi16(vx, vw);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  std::int32_t s = hsum256_epi32(acc);
  for (; i < n; ++i) {
    s += static_cast<std::int32_t>(w[i]) * static_cast<std::int32_t>(x[i]);
  }
  return s;
}

void axpy_i8(float alpha, const I8* x, float* y, std::size_t n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
    const __m256 vx = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(va, vx, vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += alpha * static_cast<float>(x[i]);
}

}  // namespace avx2

namespace {
// sparse_axpy stays scalar (no AVX2 scatter instruction exists), the
// quantize/dequantize family runs only on the cold publish path, and the
// sparse i8 dot stays scalar too (no byte gather exists).
constexpr Backend kAvx2Table = {
    .level = SimdLevel::kAVX2,
    .name = "avx2",
    .dot = avx2::dot,
    .axpy = avx2::axpy,
    .scale = avx2::scale,
    .sum = avx2::sum,
    .max = avx2::max,
    .relu = avx2::relu,
    .sparse_dot = avx2::sparse_dot,
    .sparse_axpy = scalar::sparse_axpy,
    .softmax_inplace = avx2::softmax_inplace,
    .adam_step = avx2::adam_step,
    .wta_codes = avx2::wta_codes,
    .sign_project = avx2::sign_project,
    .dot_i8 = avx2::dot_i8,
    .sparse_dot_i8 = scalar::sparse_dot_i8,
    .axpy_i8 = avx2::axpy_i8,
    .quantize_i8 = scalar::quantize_i8,
    .quantize_act_u8 = scalar::quantize_act_u8,
    .i8_path = "maddubs-256",
};
}  // namespace

namespace detail {
const Backend* const kAvx2Backend = &kAvx2Table;
}  // namespace detail

#else  // !SLIDE_COMPILE_AVX2

namespace detail {
const Backend* const kAvx2Backend = nullptr;
}  // namespace detail

#endif  // SLIDE_COMPILE_AVX2

}  // namespace slide::simd
