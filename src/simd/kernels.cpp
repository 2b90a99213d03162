// Public kernel entry points: thin trampolines into the bound dispatch
// table (simd/backend.h). Each call is one acquire atomic pointer load
// plus an indirect call — the per-ISA implementations live in
// kernels_scalar.cpp / kernels_avx2.cpp / kernels_avx512.cpp.
#include "simd/kernels.h"

namespace slide::simd {

// ---- dispatchers ----------------------------------------------------------

float dot(const float* a, const float* b, std::size_t n) noexcept {
  return backend().dot(a, b, n);
}
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  backend().axpy(alpha, x, y, n);
}
void scale(float* x, float alpha, std::size_t n) noexcept {
  backend().scale(x, alpha, n);
}
void relu(float* x, std::size_t n) noexcept { backend().relu(x, n); }
void softmax_inplace(float* x, std::size_t n) noexcept {
  backend().softmax_inplace(x, n);
}
void adam_step(float* w, float* m, float* v, const float* g, std::size_t n,
               float lr, float beta1, float beta2, float eps, float bias1,
               float bias2) noexcept {
  backend().adam_step(w, m, v, g, n, lr, beta1, beta2, eps, bias1, bias2);
}
void wta_codes(const float* x, const std::int32_t* idx,
               const std::uint32_t* label, std::size_t group, std::size_t n,
               std::uint32_t* out) noexcept {
  backend().wta_codes(x, idx, label, group, n, out);
}
void sign_project(const I8* w, std::size_t w_stride, std::size_t dim,
                  std::size_t n, const float* x, std::size_t x_stride,
                  std::size_t rows, float* out,
                  std::size_t out_stride) noexcept {
  backend().sign_project(w, w_stride, dim, n, x, x_stride, rows, out,
                         out_stride);
}

std::int32_t dot_i8(const I8* w, const U8* x, std::size_t n) noexcept {
  return backend().dot_i8(w, x, n);
}
void axpy_i8(float alpha, const I8* x, float* y, std::size_t n) noexcept {
  backend().axpy_i8(alpha, x, y, n);
}
float quantize_i8(const float* src, I8* dst, std::size_t n) noexcept {
  return backend().quantize_i8(src, dst, n);
}
float quantize_act_u8(const float* src, U8* dst, std::size_t n) noexcept {
  return backend().quantize_act_u8(src, dst, n);
}

}  // namespace slide::simd
