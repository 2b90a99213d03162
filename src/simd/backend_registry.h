// Internal: the per-ISA translation units export their tables through
// these constants. A table pointer is null when the compiler lacked the
// ISA flags (the TU then compiles to a stub). Constant-initialized, so no
// code from an unsupported ISA's TU ever executes — dereferencing happens
// only after cpuid approves the level.
#pragma once

#include "simd/backend.h"

namespace slide::simd::detail {

// Sub-feature variant: AVX512-VNNI is not implied by the AVX-512 level's
// baseline cpuid bits and is compiled with a per-function target attribute
// inside the same TU, so the AVX-512 TU exports TWO const tables — the full
// one (used when cpuid reports VNNI) and a ...NoVnni variant whose int8 dot
// runs on the BW baseline. backend.cpp picks between them at bind time;
// the tables themselves stay const.
extern const Backend kScalarBackend;        // kernels_scalar.cpp, always
extern const Backend* const kAvx2Backend;         // kernels_avx2.cpp or null
extern const Backend* const kAvx512Backend;       // kernels_avx512.cpp or null
extern const Backend* const kAvx512BackendNoVnni; //   dot_i8 via vpmaddubsw

}  // namespace slide::simd::detail
