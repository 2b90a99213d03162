// Scalar reference kernels + the scalar dispatch table.
//
// Compiled with the project's base flags (no per-ISA -m options), these are
// the semantics every vector table is tested against, and the fallback the
// dispatch binds on machines without AVX2. Keep them boring: the parity
// suite treats this file as ground truth.
#include <cmath>
#include <limits>

#include "simd/backend_registry.h"
#include "simd/kernels.h"

namespace slide::simd {

namespace scalar {

float dot(const float* a, const float* b, std::size_t n) noexcept {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float max(const float* x, std::size_t n) noexcept {
  float m = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void relu(float* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void softmax_inplace(float* x, std::size_t n) noexcept {
  if (n == 0) return;
  const float m = scalar::max(x, n);
  float z = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - m);
    z += x[i];
  }
  const float inv = 1.0f / z;
  for (std::size_t i = 0; i < n; ++i) x[i] *= inv;
}

void adam_step(float* w, float* m, float* v, const float* g, std::size_t n,
               float lr, float beta1, float beta2, float eps, float bias1,
               float bias2) noexcept {
  const float inv_b1 = 1.0f / bias1;
  const float inv_b2 = 1.0f / bias2;
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    const float mhat = m[i] * inv_b1;
    const float vhat = v[i] * inv_b2;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void wta_codes(const float* x, const std::int32_t* idx,
               const std::uint32_t* label, std::size_t group, std::size_t n,
               std::uint32_t* out) noexcept {
  for (std::size_t c = 0; c < n; ++c) {
    float best = x[idx[c]];
    std::uint32_t code = label[c];
    for (std::size_t j = 1; j < group; ++j) {
      const float v = x[idx[j * n + c]];
      if (v > best) {
        best = v;
        code = label[j * n + c];
      }
    }
    out[c] = code;
  }
}

void sign_project(const I8* w, std::size_t w_stride, std::size_t dim,
                  std::size_t n, const float* x, std::size_t x_stride,
                  std::size_t rows, float* out,
                  std::size_t out_stride) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* o = out + r * out_stride;
    for (std::size_t p = 0; p < n; ++p) o[p] = 0.0f;
    // Runs of 8 coordinates per pass over the outputs, so each output is
    // loaded and stored once per run; within a run it still adds one
    // coordinate at a time, in increasing d.
    std::size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      const I8* wd = w + d * w_stride;
      const float* xd = xr + d;
      for (std::size_t p = 0; p < n; ++p) {
        float acc = o[p];
        for (std::size_t j = 0; j < 8; ++j)
          acc += static_cast<float>(wd[j * w_stride + p]) * xd[j];
        o[p] = acc;
      }
    }
    for (; d < dim; ++d) {
      const I8* wd = w + d * w_stride;
      const float xd = xr[d];
      for (std::size_t p = 0; p < n; ++p)
        o[p] += static_cast<float>(wd[p]) * xd;
    }
  }
}

std::int32_t dot_i8(const I8* w, const U8* x, std::size_t n) noexcept {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int32_t>(w[i]) * static_cast<std::int32_t>(x[i]);
  }
  return acc;
}

void axpy_i8(float alpha, const I8* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * static_cast<float>(x[i]);
}

float quantize_i8(const float* src, I8* dst, std::size_t n) noexcept {
  float amax = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(src[i]);
    if (a > amax) amax = a;
  }
  if (!(amax > 0.0f)) {  // all-zero row: scale 0 so callers skip the rescale
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return 0.0f;
  }
  const float inv = 127.0f / amax;
  for (std::size_t i = 0; i < n; ++i) {
    // Ties round to even (nearbyint under the default FE_TONEAREST mode);
    // the clamp guards the one-ULP overshoot src[i]*inv can produce when
    // |src[i]| == amax and inv rounded up.
    float q = std::nearbyintf(src[i] * inv);
    if (q > 127.0f) q = 127.0f;
    if (q < -127.0f) q = -127.0f;
    dst[i] = static_cast<I8>(q);
  }
  return amax / 127.0f;
}

float quantize_act_u8(const float* src, U8* dst, std::size_t n) noexcept {
  float amax = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    if (src[i] > amax) amax = src[i];
  }
  if (!(amax > 0.0f)) {  // nothing positive to score against
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return 0.0f;
  }
  const float inv = 127.0f / amax;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = src[i] > 0.0f ? src[i] : 0.0f;  // post-ReLU contract
    float q = std::nearbyintf(v * inv);
    if (q > 127.0f) q = 127.0f;
    dst[i] = static_cast<U8>(q);
  }
  return amax / 127.0f;
}

}  // namespace scalar

namespace detail {

const Backend kScalarBackend = {
    .level = SimdLevel::kScalar,
    .name = "scalar",
    .dot = scalar::dot,
    .axpy = scalar::axpy,
    .scale = scalar::scale,
    .relu = scalar::relu,
    .softmax_inplace = scalar::softmax_inplace,
    .adam_step = scalar::adam_step,
    .wta_codes = scalar::wta_codes,
    .sign_project = scalar::sign_project,
    .dot_i8 = scalar::dot_i8,
    .axpy_i8 = scalar::axpy_i8,
    .quantize_i8 = scalar::quantize_i8,
    .quantize_act_u8 = scalar::quantize_act_u8,
    .i8_path = "scalar",
};

}  // namespace detail

}  // namespace slide::simd
