// Int8 inference tier: storage conventions shared by the kernels
// (simd/kernels_*.cpp), the weight mirrors (core/layer.h), and the tests.
//
// Weights are quantized per row, symmetric signed 8-bit:
//
//   scale_r = max_i |w_r[i]| / 127        (0 for an all-zero row)
//   q_r[i]  = clamp(round_to_nearest_even(w_r[i] / scale_r), -127, 127)
//
// so w_r[i] ~= scale_r * q_r[i]. Symmetric quantization (zero-point 0)
// keeps the dot product a single integer MAC with one fp32 rescale at the
// end — no row-sum correction term.
//
// Activations are quantized per query, unsigned 8-bit in [0, 127]:
//
//   sx   = max_i x[i] / 127               (0 when all activations are <= 0)
//   qx[i] = clamp(round_to_nearest_even(x[i] / sx), 0, 127)
//
// Restricting activations to [0, 127] is free — SLIDE hidden activations
// are post-ReLU, hence non-negative — and it is what makes every SIMD path
// exact: vpmaddubsw pairs one u8 with one s8 into int16, and
// 2 * 127 * 127 = 32258 < 32767 never saturates, so AVX2, AVX-512 VNNI
// (`vpdpbusd`, which accumulates u8 x s8 into int32 directly) and the
// scalar oracle all produce the *same* int32 dot. Parity tests therefore
// assert exact equality on dot_i8, not a tolerance.
//
// A scored unit recovers fp32 against the dense query (the embedding's
// activations) as:
//
//   score = bias + scale_r * sx * dot_i8(q_r, qx, n)
#pragma once

#include <cstdint>

namespace slide::simd {

/// Quantized weight element (symmetric, per-row scale).
using I8 = std::int8_t;
/// Quantized activation element (non-negative, per-query scale).
using U8 = std::uint8_t;

/// Largest magnitude representable on both sides of the u8 x s8 MAC.
inline constexpr int kInt8Max = 127;

}  // namespace slide::simd
