// Transparent-Huge-Page-backed allocation.
//
// SLIDE is a memory-bound workload with a large footprint (paper appendix D):
// the dominant cost on wide layers is TLB misses and page-table walks while
// streaming weight rows. The paper pre-allocates 2MB/1GB hugepages and
// reports a ~1.3x end-to-end speedup (Figure 10) and large TLB/page-fault
// reductions (Table 4).
//
// This module provides an mmap-based buffer that requests Transparent Huge
// Pages via madvise(MADV_HUGEPAGE) — the in-container equivalent of the
// paper's libhugetlbfs setup — and falls back to ordinary pages when THP is
// unavailable. A process-wide toggle lets benchmarks A/B the two modes
// (bench/fig10_optimizations, bench/table4_hugepages).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

#include "sys/common.h"

namespace slide {

/// Process-wide preference: when enabled, HugeBuffer requests THP backing.
/// Defaults to enabled; bench harnesses flip it to A/B the two modes.
void set_hugepages_enabled(bool enabled) noexcept;
bool hugepages_enabled() noexcept;

/// True if this buffer implementation can use madvise(MADV_HUGEPAGE) on the
/// current platform (Linux with mmap available).
bool hugepages_supported() noexcept;

/// A raw byte buffer, page-aligned, optionally THP-advised. Movable,
/// non-copyable; frees its mapping on destruction.
class HugeBuffer {
 public:
  HugeBuffer() = default;
  /// Allocates `bytes` rounded up to a 2MB boundary (so THP can back the
  /// whole range). Zero-initialized by the kernel.
  explicit HugeBuffer(std::size_t bytes);
  ~HugeBuffer();

  HugeBuffer(HugeBuffer&& other) noexcept;
  HugeBuffer& operator=(HugeBuffer&& other) noexcept;
  HugeBuffer(const HugeBuffer&) = delete;
  HugeBuffer& operator=(const HugeBuffer&) = delete;

  void* data() noexcept { return data_; }
  const void* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return bytes_; }
  bool uses_thp() const noexcept { return thp_; }

 private:
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool thp_ = false;
};

/// A fixed-size array of trivially-copyable T in (optionally)
/// hugepage-backed storage. This is the storage type for layer weight
/// matrices, optimizer state, and the int8 inference weight mirror — the
/// serving hot path streams these rows, which is exactly the TLB-bound
/// access pattern Table 4 measures.
template <typename T>
class HugeArrayT {
  static_assert(std::is_trivially_copyable_v<T>,
                "HugeArrayT holds raw, kernel-zeroed storage");

 public:
  HugeArrayT() = default;
  explicit HugeArrayT(std::size_t count)
      : buffer_(count * sizeof(T)), count_(count) {}

  T* data() noexcept { return static_cast<T*>(buffer_.data()); }
  const T* data() const noexcept {
    return static_cast<const T*>(buffer_.data());
  }
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  bool uses_thp() const noexcept { return buffer_.uses_thp(); }

  /// Replaces the storage with a fresh zeroed allocation of `count`
  /// elements (does NOT preserve contents — mirrors only ever grow from
  /// empty to their final size and are then overwritten in full).
  void resize(std::size_t count) {
    buffer_ = HugeBuffer(count * sizeof(T));
    count_ = count;
  }

  T& operator[](std::size_t i) noexcept {
    SLIDE_ASSERT(i < count_);
    return data()[i];
  }
  T operator[](std::size_t i) const noexcept {
    SLIDE_ASSERT(i < count_);
    return data()[i];
  }

 private:
  HugeBuffer buffer_;
  std::size_t count_ = 0;
};

/// The fp32 master-weight storage type (the original, pre-template name).
using HugeArray = HugeArrayT<float>;

}  // namespace slide
