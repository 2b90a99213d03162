// Explicit software prefetch, used in the weight-update software pipeline
// (paper appendix D: "Vector Processing, Software Pipelining, and
// Prefetching" — prefetch weight W[i+d] while updating W[i]).
#pragma once

#include "sys/common.h"

namespace slide {

/// Depth of the software pipeline: how many items ahead to prefetch while
/// streaming through weight rows.
inline constexpr int kPrefetchDistance = 8;

/// Prefetch the cache line containing `addr` into all cache levels
/// (PREFETCHT0). No-op if the compiler lacks the builtin.
inline void prefetch_read(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// Prefetch for an impending write.
inline void prefetch_write(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// Prefetch every cache line of the `bytes` bytes at `addr`: a whole weight
/// row that a loop reads (or, with `kWrite`, writes) all of.
template <bool kWrite>
inline void prefetch_span(const void* addr, std::size_t bytes) noexcept {
  const auto start = reinterpret_cast<std::uintptr_t>(addr);
  for (auto line = start & ~(kCacheLineSize - 1); line < start + bytes;
       line += kCacheLineSize) {
    if constexpr (kWrite) prefetch_write(reinterpret_cast<const void*>(line));
    else prefetch_read(reinterpret_cast<const void*>(line));
  }
}

}  // namespace slide
