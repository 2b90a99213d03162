// Dispatch-level selection: cpuid + SLIDE_SIMD_LEVEL env + API override.
//
// Compiled with the project's base flags only — this file must run on
// every machine the binary reaches, so it contains no vector code. The
// per-ISA tables it binds are constant-initialized in their own TUs
// (backend_registry.h) and dereferenced only after cpuid approves them.
#include "simd/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "simd/backend_registry.h"
#include "sys/cpu_features.h"

namespace slide::simd {

namespace {

std::atomic<const Backend*> g_active{nullptr};

const Backend* table_for(SimdLevel level) noexcept {
  // AVX-512 has a sub-feature variant pair (backend_registry.h): VNNI is
  // not implied by the level's baseline cpuid bits, so the variant is
  // picked here, at bind time, from the live feature flags. Both variants
  // are compiled (or neither), hence one null check for the pair.
  switch (level) {
    case SimdLevel::kScalar:
      return &detail::kScalarBackend;
    case SimdLevel::kAVX2:
      return detail::kAvx2Backend;
    case SimdLevel::kAVX512:
      if (detail::kAvx512Backend == nullptr) return nullptr;
      return cpu_features().avx512vnni ? detail::kAvx512Backend
                                       : detail::kAvx512BackendNoVnni;
  }
  return nullptr;
}

bool cpu_supports(SimdLevel level) noexcept {
  const CpuFeatures& f = cpu_features();
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAVX2:
      return f.avx2 && f.fma;
    case SimdLevel::kAVX512:
      return f.avx512f && f.avx512bw;
  }
  return false;
}

SimdLevel best_level() noexcept {
  for (SimdLevel level : {SimdLevel::kAVX512, SimdLevel::kAVX2}) {
    if (table_for(level) != nullptr && cpu_supports(level)) return level;
  }
  return SimdLevel::kScalar;
}

/// Initial binding: SLIDE_SIMD_LEVEL if set (clamped to what the host
/// supports, with a one-time stderr note on clamp/typo — aborting at
/// static-init over an env var would be worse), else the detected best.
/// Idempotent and benign under a racy first call: every caller computes
/// the same table.
const Backend* init_active() noexcept {
  SimdLevel level = best_level();
  if (const char* env = std::getenv("SLIDE_SIMD_LEVEL")) {
    bool parsed = false;
    SimdLevel requested = level;
    for (SimdLevel candidate :
         {SimdLevel::kScalar, SimdLevel::kAVX2, SimdLevel::kAVX512}) {
      if (std::string_view(env) == to_string(candidate)) {
        requested = candidate;
        parsed = true;
        break;
      }
    }
    if (!parsed) {
      std::fprintf(stderr,
                   "[slide::simd] ignoring SLIDE_SIMD_LEVEL=%s (expected "
                   "scalar | avx2 | avx512); using %s\n",
                   env, to_string(level));
    } else if (!level_supported(requested)) {
      std::fprintf(stderr,
                   "[slide::simd] SLIDE_SIMD_LEVEL=%s not supported on this "
                   "host; clamping to %s\n",
                   env, to_string(level));
    } else {
      level = requested;
    }
  }
  const Backend* table = table_for(level);
  const Backend* expected = nullptr;
  g_active.compare_exchange_strong(expected, table,
                                   std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAVX2:
      return "avx2";
    case SimdLevel::kAVX512:
      return "avx512";
  }
  return "?";
}

SimdLevel parse_simd_level(const char* name) {
  const std::string_view s(name == nullptr ? "" : name);
  if (s == "scalar") return SimdLevel::kScalar;
  if (s == "avx2") return SimdLevel::kAVX2;
  if (s == "avx512") return SimdLevel::kAVX512;
  throw Error("unknown SIMD level: " + std::string(s) +
              " (expected scalar | avx2 | avx512)");
}

bool level_compiled(SimdLevel level) noexcept {
  return table_for(level) != nullptr;
}

bool level_supported(SimdLevel level) noexcept {
  return table_for(level) != nullptr && cpu_supports(level);
}

SimdLevel detected_level() noexcept { return best_level(); }

SimdLevel active_level() noexcept { return backend().level; }

void set_simd_level(SimdLevel level) {
  SLIDE_CHECK(level_supported(level),
              std::string("set_simd_level: ") + to_string(level) +
                  (level_compiled(level)
                       ? " is not supported by this CPU"
                       : " was not compiled into this binary"));
  g_active.store(table_for(level), std::memory_order_release);
}

const Backend& backend() noexcept {
  const Backend* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = init_active();
  return *table;
}

const Backend* backend_for(SimdLevel level) noexcept {
  return level_supported(level) ? table_for(level) : nullptr;
}

}  // namespace slide::simd
