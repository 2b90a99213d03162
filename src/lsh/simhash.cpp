#include "lsh/simhash.h"

#include <algorithm>
#include <cmath>

#include "simd/kernels.h"

namespace slide {

namespace {

/// Rows hash_dense_rows projects per kernel call: enough to reuse each
/// slab of the sign matrix across several row tiles, few enough that the
/// projection scratch stays small.
constexpr std::size_t kBlockRows = 16;

}  // namespace

Simhash::Simhash(const Config& config)
    : k_(config.k), l_(config.l), dim_(config.dim) {
  SLIDE_CHECK(k_ >= 1 && k_ <= 32, "Simhash: K must be in [1, 32]");
  SLIDE_CHECK(l_ >= 1, "Simhash: L must be >= 1");
  SLIDE_CHECK(dim_ >= 1, "Simhash: dim must be >= 1");
  SLIDE_CHECK(config.density > 0.0 && config.density <= 1.0,
              "Simhash: density must be in (0, 1]");

  const int num_proj = k_ * l_;
  const auto nnz_per_proj = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(config.density * dim_)));
  const std::size_t lanes = simd::kSignLanes;
  stride_ = (static_cast<std::size_t>(num_proj) + lanes - 1) / lanes * lanes;
  signs_.assign(static_cast<std::size_t>(dim_) * stride_, 0);

  // Draw each projection's support as exactly nnz_per_proj *distinct*
  // coordinates with Floyd's sampling algorithm (a sort-unique pass over
  // uniform draws would undershoot the requested density by ~15% at 1/3),
  // then one sign per support coordinate in ascending coordinate order.
  Rng rng(config.seed);
  std::vector<Index> support;
  std::vector<std::uint8_t> member(dim_, 0);
  for (int p = 0; p < num_proj; ++p) {
    support.clear();
    const Index start = dim_ - static_cast<Index>(
                                   std::min<std::size_t>(nnz_per_proj, dim_));
    for (Index j = start; j < dim_; ++j) {
      Index t = rng.uniform(j + 1);
      if (member[t]) t = j;
      member[t] = 1;
      support.push_back(t);
    }
    std::sort(support.begin(), support.end());
    for (Index d : support) {
      member[d] = 0;  // reset for the next projection
      signs_[static_cast<std::size_t>(d) * stride_ +
             static_cast<std::size_t>(p)] = rng.uniform(2) == 0 ? 1 : -1;
    }
  }
}

void Simhash::project_dense(const float* x, float* dots) const {
  simd::sign_project(signs_.data(), stride_, dim_,
                     static_cast<std::size_t>(num_projections()), x, dim_, 1,
                     dots, static_cast<std::size_t>(num_projections()));
}

std::uint32_t Simhash::table_key(const float* dots, int t) const noexcept {
  std::uint32_t bits = 0;
  for (int j = 0; j < k_; ++j)
    bits = (bits << 1) | (dots[t * k_ + j] >= 0.0f ? 1u : 0u);
  detail::FingerprintMixer mixer;
  mixer.add(bits);
  return mixer.value();
}

void Simhash::keys_from_projections(const float* dots,
                                    std::span<std::uint32_t> keys) const {
  SLIDE_ASSERT(static_cast<int>(keys.size()) == l_);
  for (int t = 0; t < l_; ++t) keys[t] = table_key(dots, t);
}

void Simhash::hash_dense(const float* x, std::span<std::uint32_t> keys) const {
  // Stack scratch would overflow for large K*L; use a thread-local buffer.
  thread_local std::vector<float> dots;
  dots.resize(static_cast<std::size_t>(num_projections()));
  project_dense(x, dots.data());
  keys_from_projections(dots.data(), keys);
}

void Simhash::hash_dense_rows(const float* rows, std::size_t row_stride,
                              std::size_t count, std::uint32_t* keys,
                              std::size_t key_stride) const {
  const auto num_proj = static_cast<std::size_t>(num_projections());
  thread_local std::vector<float> dots;
  dots.resize(kBlockRows * num_proj);
  for (std::size_t first = 0; first < count; first += kBlockRows) {
    const std::size_t block = std::min(kBlockRows, count - first);
    simd::sign_project(signs_.data(), stride_, dim_, num_proj,
                       rows + first * row_stride, row_stride, block,
                       dots.data(), num_proj);
    for (std::size_t i = 0; i < block; ++i) {
      for (int t = 0; t < l_; ++t) {
        keys[static_cast<std::size_t>(t) * key_stride + first + i] =
            table_key(dots.data() + i * num_proj, t);
      }
    }
  }
}

void Simhash::hash_sparse(const Index* idx, const float* val, std::size_t nnz,
                          std::span<std::uint32_t> keys) const {
  // One scaled matrix row per nonzero, in nnz order: cost O(nnz * K*L),
  // independent of dim.
  thread_local std::vector<float> dots;
  dots.assign(static_cast<std::size_t>(num_projections()), 0.0f);
  for (std::size_t i = 0; i < nnz; ++i)
    update_projections(idx[i], val[i], dots.data());
  keys_from_projections(dots.data(), keys);
}

void Simhash::update_projections(Index dim, float delta, float* dots) const {
  SLIDE_ASSERT(dim < dim_);
  simd::axpy_i8(delta, signs_.data() + static_cast<std::size_t>(dim) * stride_,
                dots, static_cast<std::size_t>(num_projections()));
}

}  // namespace slide
