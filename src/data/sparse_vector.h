// Sparse vector representation used throughout the library.
//
// Inputs in extreme classification are extremely sparse (paper Table 1:
// 0.038-0.055 % density, ~75 nonzeros per sample), so features are
// index/value pair lists; the embedding turns them into the dense hidden
// vector every later stage works on. Indices are kept sorted and unique —
// min_dim() and the readers rely on that invariant.
#pragma once

#include <span>
#include <vector>

#include "sys/common.h"

namespace slide {

class SparseVector {
 public:
  SparseVector() = default;

  /// Takes ownership of parallel index/value arrays. Sorts by index and
  /// merges duplicates (summing their values) to establish the invariant.
  SparseVector(std::vector<Index> indices, std::vector<float> values);

  std::size_t nnz() const noexcept { return indices_.size(); }
  bool empty() const noexcept { return indices_.empty(); }

  std::span<const Index> indices() const noexcept { return indices_; }
  std::span<const float> values() const noexcept { return values_; }

  const Index* index_data() const noexcept { return indices_.data(); }
  const float* value_data() const noexcept { return values_.data(); }

  /// Largest index + 1, or 0 when empty (indices are sorted).
  Index min_dim() const noexcept {
    return indices_.empty() ? 0 : indices_.back() + 1;
  }

  /// Appends an entry; caller must finish with compact() before reads if
  /// insertion order is not sorted/unique.
  void push_back(Index index, float value) {
    indices_.push_back(index);
    values_.push_back(value);
  }

  /// Restores the sorted-unique invariant after push_back streams.
  void compact();

  void clear() noexcept {
    indices_.clear();
    values_.clear();
  }
  void reserve(std::size_t n) {
    indices_.reserve(n);
    values_.reserve(n);
  }

  float l2_norm() const noexcept;

  /// Scales values so the L2 norm is 1 (no-op on zero vectors).
  void l2_normalize() noexcept;

  friend bool operator==(const SparseVector&, const SparseVector&) = default;

 private:
  std::vector<Index> indices_;
  std::vector<float> values_;
};

/// Converts to a dense float vector of the given dimension.
std::vector<float> to_dense(const SparseVector& v, Index dim);

/// Builds a SparseVector from a dense array, keeping entries with
/// |x| > threshold.
SparseVector from_dense(std::span<const float> dense, float threshold = 0.0f);

}  // namespace slide
