#include "data/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "simd/kernels.h"

namespace slide {

SparseVector::SparseVector(std::vector<Index> indices,
                           std::vector<float> values)
    : indices_(std::move(indices)), values_(std::move(values)) {
  SLIDE_CHECK(indices_.size() == values_.size(),
              "SparseVector: index/value length mismatch");
  compact();
}

void SparseVector::compact() {
  const std::size_t n = indices_.size();
  SLIDE_ASSERT(n == values_.size());
  if (n == 0) return;
  const bool sorted_unique = [&] {
    for (std::size_t i = 1; i < n; ++i)
      if (indices_[i] <= indices_[i - 1]) return false;
    return true;
  }();
  if (sorted_unique) return;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return indices_[a] < indices_[b];
  });
  std::vector<Index> new_idx;
  std::vector<float> new_val;
  new_idx.reserve(n);
  new_val.reserve(n);
  for (std::size_t k : order) {
    if (!new_idx.empty() && new_idx.back() == indices_[k]) {
      new_val.back() += values_[k];  // merge duplicates
    } else {
      new_idx.push_back(indices_[k]);
      new_val.push_back(values_[k]);
    }
  }
  indices_ = std::move(new_idx);
  values_ = std::move(new_val);
}

float SparseVector::l2_norm() const noexcept {
  return std::sqrt(simd::dot(values_.data(), values_.data(), values_.size()));
}

void SparseVector::l2_normalize() noexcept {
  const float norm = l2_norm();
  if (norm > 0.0f) simd::scale(values_.data(), 1.0f / norm, values_.size());
}

std::vector<float> to_dense(const SparseVector& v, Index dim) {
  SLIDE_CHECK(v.min_dim() <= dim, "to_dense: dimension too small");
  std::vector<float> out(dim, 0.0f);
  for (std::size_t i = 0; i < v.nnz(); ++i)
    out[v.indices()[i]] = v.values()[i];
  return out;
}

SparseVector from_dense(std::span<const float> dense, float threshold) {
  SparseVector out;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (std::fabs(dense[i]) > threshold)
      out.push_back(static_cast<Index>(i), dense[i]);
  }
  // Entries were appended in index order, so the invariant already holds;
  // compact() fast-paths this.
  out.compact();
  return out;
}

}  // namespace slide
