// Runtime-dispatched compute backend: one binary, every machine.
//
// The kernels in simd/kernels.h used to be a compile-time choice (the
// binary either had AVX2 or it didn't, behind a process-wide bool). This
// module replaces that with a *dispatch table* bound at startup:
//
//   kernels_scalar.cpp   portable C++        (always compiled)
//   kernels_avx2.cpp     -mavx2 -mfma        (own -m flags)
//   kernels_avx512.cpp   -mavx512f -mavx512bw -mfma
//
// Each per-ISA translation unit compiles with exactly its own flags and
// exports a `Backend` table of function pointers; cpuid (sys/cpu_features)
// picks the widest table the running CPU supports on first use. The public
// kernels.h entry points are one atomic pointer load + indirect call away
// from the bound table, so every future kernel improvement is a new table
// entry, not an #ifdef.
//
// Level selection, in priority order:
//   1. set_simd_level()            — thread-safe programmatic override
//   2. SLIDE_SIMD_LEVEL env        — "scalar" | "avx2" | "avx512"; sets the
//                                    initial level (testing/CI); clamped to
//                                    what the host supports, with a one-time
//                                    stderr note on clamp or typo
//   3. cpuid                       — widest compiled-in level the CPU has
//
// The table also carries the int8 kernels (s8 weights x u8 activations)
// used by the quantized inference path; see simd/int8.h for the format and
// core/layer.h for the weight-mirror contract.
#pragma once

#include <cstddef>

#include "simd/int8.h"
#include "sys/common.h"

namespace slide::simd {

enum class SimdLevel : int { kScalar = 0, kAVX2 = 1, kAVX512 = 2 };

const char* to_string(SimdLevel level) noexcept;
/// Parses "scalar" | "avx2" | "avx512" (slide::Error otherwise).
SimdLevel parse_simd_level(const char* name);

/// One ISA's kernel set. Entries an ISA does not specialize point at the
/// scalar reference implementation (e.g. sparse_axpy, where scatter does
/// not pay), so a table is always total.
struct Backend {
  SimdLevel level = SimdLevel::kScalar;
  const char* name = "scalar";

  float (*dot)(const float*, const float*, std::size_t) noexcept = nullptr;
  void (*axpy)(float, const float*, float*, std::size_t) noexcept = nullptr;
  void (*scale)(float*, float, std::size_t) noexcept = nullptr;
  float (*sum)(const float*, std::size_t) noexcept = nullptr;
  float (*max)(const float*, std::size_t) noexcept = nullptr;
  void (*relu)(float*, std::size_t) noexcept = nullptr;
  float (*sparse_dot)(const Index*, const float*, std::size_t,
                      const float*) noexcept = nullptr;
  void (*sparse_axpy)(float, const Index*, const float*, std::size_t,
                      float*) noexcept = nullptr;
  void (*softmax_inplace)(float*, std::size_t) noexcept = nullptr;
  void (*adam_step)(float*, float*, float*, const float*, std::size_t, float,
                    float, float, float, float, float) noexcept = nullptr;
  // Dense DWTA hashing: gather one slot per code, ordered compare,
  // blend the winner's label (see kernels.h for the exact rule).
  void (*wta_codes)(const float*, const std::int32_t*, const std::uint32_t*,
                    std::size_t, std::size_t, std::uint32_t*) noexcept =
      nullptr;
  // Dense Simhash: a block of rows times a coordinate-major sign matrix,
  // summed in coordinate order (see kernels.h).
  void (*sign_project)(const I8*, std::size_t, std::size_t, std::size_t,
                       const float*, std::size_t, std::size_t, float*,
                       std::size_t) noexcept = nullptr;

  // Int8 tier: s8 weights (per-row symmetric scale) x u8 activations in
  // [0,127]; see simd/int8.h for the full contract. dot_i8 returns the raw
  // int32 MAC — identical across all paths by construction, so parity is
  // exact. The AVX-512 table uses VNNI `vpdpbusd` when cpuid reports it
  // (kAvx512BackendNoVnni otherwise); AVX2 uses `vpmaddubsw`. The active
  // path's name is recorded in i8_path for benches/banners.
  std::int32_t (*dot_i8)(const I8*, const U8*, std::size_t) noexcept = nullptr;
  float (*sparse_dot_i8)(const Index*, const float*, std::size_t,
                         const I8*) noexcept = nullptr;
  void (*axpy_i8)(float, const I8*, float*, std::size_t) noexcept = nullptr;
  /// Quantizes one row; returns its scale (0 for an all-zero row). Publish
  /// path (cold): scalar in every table.
  float (*quantize_i8)(const float*, I8*, std::size_t) noexcept = nullptr;
  /// Quantizes a (non-negative) activation vector to u8 in [0,127];
  /// returns the per-query scale. Once per query (cold-ish): scalar.
  float (*quantize_act_u8)(const float*, U8*, std::size_t) noexcept = nullptr;

  // Human-readable name of the int8 code path this table binds ("vnni",
  // "maddubs-512", "maddubs-256", "scalar"). BENCH_backend.json rows carry
  // it so baselines compare like-for-like across machines with and without
  // VNNI.
  const char* i8_path = "scalar";
};

/// True when this binary contains a kernel table for `level` (a build-time
/// property: the compiler supported the ISA flags).
bool level_compiled(SimdLevel level) noexcept;

/// True when `level` is compiled in AND the running CPU supports it —
/// i.e. set_simd_level(level) would succeed. kScalar is always supported.
bool level_supported(SimdLevel level) noexcept;

/// The widest supported level (what the dispatch binds by default; the
/// SLIDE_SIMD_LEVEL env only caps the initial *active* level, not this).
SimdLevel detected_level() noexcept;

/// The level the dispatch is currently bound to.
SimdLevel active_level() noexcept;

/// Rebinds the dispatch to `level` for the whole process (atomic pointer
/// swap; safe against concurrent kernel callers, who see either the old or
/// the new table). Throws slide::Error if the level is not supported on
/// this host — check level_supported() first when probing.
void set_simd_level(SimdLevel level);

/// The active kernel table. Hot-path accessor: one acquire atomic load
/// (free on x86; the acquire edge makes a freshly bound table's contents
/// visible to kernel callers on weaker architectures).
const Backend& backend() noexcept;

/// The table for a specific level, or nullptr when unsupported. Lets the
/// parity tests and micro benches call a fixed level without touching the
/// process-wide binding.
const Backend* backend_for(SimdLevel level) noexcept;

}  // namespace slide::simd
