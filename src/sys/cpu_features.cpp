#include "sys/cpu_features.h"

namespace slide {

namespace {

CpuFeatures detect() noexcept {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports reads cpuid (and xgetbv for the AVX512 state
  // check), so a kernel that masks AVX-512 is honored too.
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  f.avx512vnni = __builtin_cpu_supports("avx512vnni") != 0;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = detect();
  return features;
}

}  // namespace slide
