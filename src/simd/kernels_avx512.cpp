// AVX-512F+BW kernel table.
//
// Compiled with -mavx512f -mavx512bw -mfma (its own flags; everything
// outside the two kernel TUs targets generic x86-64, see CMakeLists.txt)
// and bound by the dispatch only after cpuid confirms both features.
// 16-lane fp32 arithmetic with fully masked tails — no scalar remainder
// loops on the dense kernels — plus the int8 dot kernels the quantized
// inference path uses. The table pointer is constant-initialized, so
// nothing here executes on a host without AVX-512. Without compiler
// support CMake leaves SLIDE_COMPILE_AVX512 undefined and the TU exports a
// null table.
#include "simd/backend_registry.h"
#include "simd/kernels.h"

#ifdef SLIDE_COMPILE_AVX512
#include <immintrin.h>

#include <cmath>
#include <limits>
#endif

namespace slide::simd {

#ifdef SLIDE_COMPILE_AVX512
namespace avx512 {

inline __mmask16 tail_mask(std::size_t rem) noexcept {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

float dot(const float* a, const float* b, std::size_t n) noexcept {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < n) {
    const __mmask16 k = tail_mask(n - i);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, a + i),
                           _mm512_maskz_loadu_ps(k, b + i), acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 vy = _mm512_loadu_ps(y + i);
    vy = _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), vy);
    _mm512_storeu_ps(y + i, vy);
  }
  if (i < n) {
    const __mmask16 k = tail_mask(n - i);
    __m512 vy = _mm512_maskz_loadu_ps(k, y + i);
    vy = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(k, x + i), vy);
    _mm512_mask_storeu_ps(y + i, k, vy);
  }
}

void scale(float* x, float alpha, std::size_t n) noexcept {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), va));
  }
  if (i < n) {
    const __mmask16 k = tail_mask(n - i);
    _mm512_mask_storeu_ps(
        x + i, k, _mm512_mul_ps(_mm512_maskz_loadu_ps(k, x + i), va));
  }
}

float sum(const float* x, std::size_t n) noexcept {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc = _mm512_add_ps(acc, _mm512_loadu_ps(x + i));
  }
  if (i < n) {
    acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(tail_mask(n - i), x + i));
  }
  return _mm512_reduce_add_ps(acc);
}

float max(const float* x, std::size_t n) noexcept {
  const __m512 vminf = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  __m512 vm = vminf;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_loadu_ps(x + i));
  }
  if (i < n) {
    // Masked-out lanes keep -inf so they never win the reduction.
    vm = _mm512_max_ps(vm,
                       _mm512_mask_loadu_ps(vminf, tail_mask(n - i), x + i));
  }
  return _mm512_reduce_max_ps(vm);
}

void relu(float* x, std::size_t n) noexcept {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_max_ps(_mm512_loadu_ps(x + i), zero));
  }
  if (i < n) {
    const __mmask16 k = tail_mask(n - i);
    _mm512_mask_storeu_ps(
        x + i, k, _mm512_max_ps(_mm512_maskz_loadu_ps(k, x + i), zero));
  }
}

float sparse_dot(const Index* idx, const float* val, std::size_t nnz,
                 const float* dense) noexcept {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= nnz; i += 16) {
    const __m512i vi = _mm512_loadu_si512(idx + i);
    const __m512 vd = _mm512_i32gather_ps(vi, dense, 4);
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(val + i), vd, acc);
  }
  float s = _mm512_reduce_add_ps(acc);
  for (; i < nnz; ++i) s += val[i] * dense[idx[i]];
  return s;
}

void softmax_inplace(float* x, std::size_t n) noexcept {
  // exp() dominates; vectorizing max + normalization still helps.
  if (n == 0) return;
  const float m = avx512::max(x, n);
  float z = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - m);
    z += x[i];
  }
  avx512::scale(x, 1.0f / z, n);
}

void adam_step(float* w, float* m, float* v, const float* g, std::size_t n,
               float lr, float beta1, float beta2, float eps, float bias1,
               float bias2) noexcept {
  const __m512 vb1 = _mm512_set1_ps(beta1);
  const __m512 vb2 = _mm512_set1_ps(beta2);
  const __m512 vib1 = _mm512_set1_ps(1.0f - beta1);
  const __m512 vib2 = _mm512_set1_ps(1.0f - beta2);
  const __m512 vinvc1 = _mm512_set1_ps(1.0f / bias1);
  const __m512 vinvc2 = _mm512_set1_ps(1.0f / bias2);
  const __m512 veps = _mm512_set1_ps(eps);
  const __m512 vlr = _mm512_set1_ps(lr);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vg = _mm512_loadu_ps(g + i);
    __m512 vm = _mm512_loadu_ps(m + i);
    __m512 vv = _mm512_loadu_ps(v + i);
    vm = _mm512_fmadd_ps(vb1, vm, _mm512_mul_ps(vib1, vg));
    vv = _mm512_fmadd_ps(vb2, vv, _mm512_mul_ps(vib2, _mm512_mul_ps(vg, vg)));
    _mm512_storeu_ps(m + i, vm);
    _mm512_storeu_ps(v + i, vv);
    const __m512 mhat = _mm512_mul_ps(vm, vinvc1);
    const __m512 vhat = _mm512_mul_ps(vv, vinvc2);
    const __m512 denom = _mm512_add_ps(_mm512_sqrt_ps(vhat), veps);
    const __m512 step = _mm512_div_ps(_mm512_mul_ps(vlr, mhat), denom);
    _mm512_storeu_ps(w + i, _mm512_sub_ps(_mm512_loadu_ps(w + i), step));
  }
  if (i < n) {
    scalar::adam_step(w + i, m + i, v + i, g + i, n - i, lr, beta1, beta2,
                      eps, bias1, bias2);
  }
}

/// One lane per code: gather slot j of 16 codes, mask-compare against the
/// running best (ordered `>`, so NaN never wins and ties keep the earlier
/// slot), and mask-load the winners' labels. The tail runs the same loop
/// under a lane mask; masked-off lanes gather and store nothing.
void wta_codes(const float* x, const std::int32_t* idx,
               const std::uint32_t* label, std::size_t group, std::size_t n,
               std::uint32_t* out) noexcept {
  for (std::size_t c = 0; c < n; c += 16) {
    const __mmask16 k = n - c >= 16 ? __mmask16{0xFFFF} : tail_mask(n - c);
    __m512 best = _mm512_mask_i32gather_ps(
        _mm512_setzero_ps(), k, _mm512_maskz_loadu_epi32(k, idx + c), x, 4);
    __m512i code = _mm512_maskz_loadu_epi32(k, label + c);
    for (std::size_t j = 1; j < group; ++j) {
      const std::size_t slot = j * n + c;
      const __m512 v = _mm512_mask_i32gather_ps(
          _mm512_setzero_ps(), k, _mm512_maskz_loadu_epi32(k, idx + slot), x,
          4);
      const __mmask16 win = _mm512_mask_cmp_ps_mask(k, v, best, _CMP_GT_OQ);
      best = _mm512_mask_mov_ps(best, win, v);
      code = _mm512_mask_loadu_epi32(code, win, label + slot);
    }
    _mm512_mask_storeu_epi32(out + c, k, code);
  }
}

/// Matrix rows ahead that a sign_project tile prefetches. A tile walks
/// its slab at the matrix's row stride, which the hardware prefetchers
/// follow poorly, and a query usually finds its family's matrix cold.
constexpr std::size_t kSignPrefetchRows = 16;

/// sign_project register tile: R rows x C 16-lane groups of projections.
/// Step d widens matrix row d's C groups to fp32 once and FMAs each into
/// every row's accumulators against that row's x[d] broadcast, so lane p
/// of row r sums its products in increasing d, as the scalar reference
/// does (a +-1 or 0 product is exact, so the fused add rounds the same).
/// `last` masks the store of the final group.
template <int R, int C>
void sign_tile(const I8* w, std::size_t w_stride, std::size_t dim,
               const float* x, std::size_t x_stride, float* out,
               std::size_t out_stride, __mmask16 last) noexcept {
  __m512 acc[R][C];
  for (int r = 0; r < R; ++r)
    for (int c = 0; c < C; ++c) acc[r][c] = _mm512_setzero_ps();
  for (std::size_t d = 0; d < dim; ++d) {
    const I8* wd = w + d * w_stride;
    if (d + kSignPrefetchRows < dim) {
      const char* ahead =
          reinterpret_cast<const char*>(wd + kSignPrefetchRows * w_stride);
      _mm_prefetch(ahead, _MM_HINT_T0);
      _mm_prefetch(ahead + 16 * C - 1, _MM_HINT_T0);
    }
    __m512 wv[C];
    for (int c = 0; c < C; ++c) {
      const __m128i raw =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(wd + 16 * c));
      wv[c] = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(raw));
    }
    for (int r = 0; r < R; ++r) {
      const __m512 xd = _mm512_set1_ps(x[r * x_stride + d]);
      for (int c = 0; c < C; ++c)
        acc[r][c] = _mm512_fmadd_ps(wv[c], xd, acc[r][c]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* o = out + r * out_stride;
    for (int c = 0; c + 1 < C; ++c) _mm512_storeu_ps(o + 16 * c, acc[r][c]);
    _mm512_mask_storeu_ps(o + 16 * (C - 1), last, acc[r][C - 1]);
  }
}

template <int R>
void sign_tile_rows(int groups, const I8* w, std::size_t w_stride,
                    std::size_t dim, const float* x, std::size_t x_stride,
                    float* out, std::size_t out_stride,
                    __mmask16 last) noexcept {
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

/// Tiles of up to 4 rows x 64 projections. Projection blocks run outer
/// and row tiles inner, so a block's slab of w (dim x 64 bytes) stays in
/// L1 while every row tile passes over it.
void sign_project(const I8* w, std::size_t w_stride, std::size_t dim,
                  std::size_t n, const float* x, std::size_t x_stride,
                  std::size_t rows, float* out,
                  std::size_t out_stride) noexcept {
  for (std::size_t p = 0; p < n; p += 64) {
    const std::size_t lanes = n - p < 64 ? n - p : 64;
    const int groups = static_cast<int>((lanes + 15) / 16);
    const __mmask16 last = tail_mask(lanes - 16 * (groups - 1));
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      sign_tile_rows<4>(groups, w + p, w_stride, dim, x + r * x_stride,
                        x_stride, out + r * out_stride + p, out_stride, last);
    }
    const float* xr = x + r * x_stride;
    float* o = out + r * out_stride + p;
    switch (rows - r) {
      case 3:
        sign_tile_rows<3>(groups, w + p, w_stride, dim, xr, x_stride, o,
                          out_stride, last);
        break;
      case 2:
        sign_tile_rows<2>(groups, w + p, w_stride, dim, xr, x_stride, o,
                          out_stride, last);
        break;
      case 1:
        sign_tile_rows<1>(groups, w + p, w_stride, dim, xr, x_stride, o,
                          out_stride, last);
        break;
      default:
        break;
    }
  }
}

// ---- int8 ----------------------------------------------------------------

/// BW-baseline int8 dot: vpmaddubsw pairs u8 x s8 into int16 (exact — the
/// [0,127] activation cap rules out saturation), vpmaddwd widens to int32.
std::int32_t dot_i8_maddubs(const I8* w, const U8* x, std::size_t n) noexcept {
  __m512i acc = _mm512_setzero_si512();
  const __m512i ones = _mm512_set1_epi16(1);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i vx = _mm512_loadu_si512(x + i);
    const __m512i vw = _mm512_loadu_si512(w + i);
    const __m512i pairs = _mm512_maddubs_epi16(vx, vw);
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(pairs, ones));
  }
  std::int32_t s = _mm512_reduce_add_epi32(acc);
  for (; i < n; ++i) {
    s += static_cast<std::int32_t>(w[i]) * static_cast<std::int32_t>(x[i]);
  }
  return s;
}

// AVX512-VNNI is not implied by F+BW, so the vpdpbusd kernel carries its
// own target attribute and lands only in the full kAvx512Table — the
// NoVnni variant binds dot_i8_maddubs and no VNNI instruction ever runs on
// a host without the cpuid bit. Clang and GCC >= 8 both compile the
// intrinsic under a target attribute; older GCC falls back to maddubs
// everywhere.
#if defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 8)
#define SLIDE_HAVE_VNNI_COMPILE 1
__attribute__((target("avx512f,avx512bw,avx512vnni")))
std::int32_t dot_i8_vnni(const I8* w, const U8* x, std::size_t n) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i vx = _mm512_loadu_si512(x + i);
    const __m512i vw = _mm512_loadu_si512(w + i);
    acc = _mm512_dpbusd_epi32(acc, vx, vw);  // u8 x s8 -> int32, one op
  }
  std::int32_t s = _mm512_reduce_add_epi32(acc);
  for (; i < n; ++i) {
    s += static_cast<std::int32_t>(w[i]) * static_cast<std::int32_t>(x[i]);
  }
  return s;
}
#else
#define SLIDE_HAVE_VNNI_COMPILE 0
#endif

void axpy_i8(float alpha, const I8* x, float* y, std::size_t n) noexcept {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m512 vx = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(raw));
    __m512 vy = _mm512_loadu_ps(y + i);
    vy = _mm512_fmadd_ps(va, vx, vy);
    _mm512_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += alpha * static_cast<float>(x[i]);
}

}  // namespace avx512

namespace {
constexpr Backend kAvx512Table = {
    .level = SimdLevel::kAVX512,
    .name = "avx512",
    .dot = avx512::dot,
    .axpy = avx512::axpy,
    .scale = avx512::scale,
    .sum = avx512::sum,
    .max = avx512::max,
    .relu = avx512::relu,
    .sparse_dot = avx512::sparse_dot,
    // Scatter exists in AVX-512 but is unsafe for repeated indices
    // (read-modify-write batches would drop duplicate accumulations), and
    // the kernel contract allows them — the scalar loop stays.
    .sparse_axpy = scalar::sparse_axpy,
    .softmax_inplace = avx512::softmax_inplace,
    .adam_step = avx512::adam_step,
    .wta_codes = avx512::wta_codes,
    .sign_project = avx512::sign_project,
#if SLIDE_HAVE_VNNI_COMPILE
    .dot_i8 = avx512::dot_i8_vnni,
#else
    .dot_i8 = avx512::dot_i8_maddubs,
#endif
    .sparse_dot_i8 = scalar::sparse_dot_i8,
    .axpy_i8 = avx512::axpy_i8,
    .quantize_i8 = scalar::quantize_i8,
    .quantize_act_u8 = scalar::quantize_act_u8,
#if SLIDE_HAVE_VNNI_COMPILE
    .i8_path = "vnni",
#else
    .i8_path = "maddubs-512",
#endif
};

// Variant bound when cpuid lacks AVX512-VNNI: same table with the int8
// dot on the BW-baseline vpmaddubsw path.
constexpr Backend kAvx512TableNoVnni = {
    .level = SimdLevel::kAVX512,
    .name = "avx512",
    .dot = avx512::dot,
    .axpy = avx512::axpy,
    .scale = avx512::scale,
    .sum = avx512::sum,
    .max = avx512::max,
    .relu = avx512::relu,
    .sparse_dot = avx512::sparse_dot,
    .sparse_axpy = scalar::sparse_axpy,
    .softmax_inplace = avx512::softmax_inplace,
    .adam_step = avx512::adam_step,
    .wta_codes = avx512::wta_codes,
    .sign_project = avx512::sign_project,
    .dot_i8 = avx512::dot_i8_maddubs,
    .sparse_dot_i8 = scalar::sparse_dot_i8,
    .axpy_i8 = avx512::axpy_i8,
    .quantize_i8 = scalar::quantize_i8,
    .quantize_act_u8 = scalar::quantize_act_u8,
    .i8_path = "maddubs-512",
};
}  // namespace

namespace detail {
const Backend* const kAvx512Backend = &kAvx512Table;
const Backend* const kAvx512BackendNoVnni = &kAvx512TableNoVnni;
}  // namespace detail

#else  // !SLIDE_COMPILE_AVX512

namespace detail {
const Backend* const kAvx512Backend = nullptr;
const Backend* const kAvx512BackendNoVnni = nullptr;
}  // namespace detail

#endif  // SLIDE_COMPILE_AVX512

}  // namespace slide::simd
