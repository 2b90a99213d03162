// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The compute backend (simd/backend.h) binds the widest kernel table the
// *running* machine supports, so one binary serves a heterogeneous fleet.
// This header answers the only question that decision needs: which vector
// ISA extensions does this CPU have? Detection runs once (first call) and
// is free afterwards.
#pragma once

namespace slide {

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  // Optional extension below the AVX-512 baseline: AVX512-VNNI (`vpdpbusd`
  // u8xs8 MAC, used by the int8 tier). The dispatch picks a sub-feature
  // table variant from it; it never gates a whole level.
  bool avx512vnni = false;
};

/// Features of the CPU this process is running on. Non-x86 builds report
/// everything false (the dispatch then stays on the scalar table).
const CpuFeatures& cpu_features() noexcept;

}  // namespace slide
