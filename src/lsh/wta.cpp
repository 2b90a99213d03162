#include "lsh/wta.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "simd/kernels.h"

namespace slide {

namespace detail {

WtaBins::WtaBins(int codes, int bin_size, Index dim)
    : codes_(static_cast<std::size_t>(codes)),
      bin_size_(static_cast<std::size_t>(bin_size)) {
  SLIDE_CHECK(dim <= static_cast<Index>(
                         std::numeric_limits<std::int32_t>::max()),
              "WTA bins: dim must fit an int32 gather index");
  coords_.resize(codes_ * bin_size_);
  labels_.resize(codes_ * bin_size_);
}

void WtaBins::set(int c, int j, Index coord, std::uint32_t label) noexcept {
  const std::size_t slot = static_cast<std::size_t>(j) * codes_ +
                           static_cast<std::size_t>(c);
  coords_[slot] = static_cast<std::int32_t>(coord);
  labels_[slot] = label;
}

void WtaBins::codes(const float* x, std::uint32_t* out) const noexcept {
  simd::wta_codes(x, coords_.data(), labels_.data(), bin_size_, codes_, out);
}

}  // namespace detail

WtaHash::WtaHash(const Config& config)
    : k_(config.k),
      l_(config.l),
      dim_(config.dim),
      bin_size_(config.bin_size) {
  SLIDE_CHECK(k_ >= 1 && l_ >= 1, "WtaHash: K and L must be >= 1");
  SLIDE_CHECK(bin_size_ >= 2, "WtaHash: bin_size must be >= 2");
  SLIDE_CHECK(dim_ >= static_cast<Index>(bin_size_),
              "WtaHash: dim must be >= bin_size");

  bins_per_perm_ = static_cast<int>(dim_) / bin_size_;
  const int total_codes = k_ * l_;
  num_perms_ = (total_codes + bins_per_perm_ - 1) / bins_per_perm_;

  bins_ = detail::WtaBins(total_codes, bin_size_, dim_);
  Rng rng(config.seed);
  std::vector<Index> perm(dim_);
  for (int p = 0; p < num_perms_; ++p) {
    std::iota(perm.begin(), perm.end(), Index{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    const int first = p * bins_per_perm_;
    for (int c = first; c < std::min(first + bins_per_perm_, total_codes);
         ++c) {
      const Index* bin =
          perm.data() + static_cast<std::size_t>(c - first) * bin_size_;
      for (int q = 0; q < bin_size_; ++q)
        bins_.set(c, q, bin[q], static_cast<std::uint32_t>(q));
    }
  }
}

void WtaHash::codes_dense(const float* x, std::uint32_t* codes) const {
  bins_.codes(x, codes);
}

void WtaHash::keys_from_codes(const std::uint32_t* codes,
                              std::span<std::uint32_t> keys) const {
  SLIDE_ASSERT(static_cast<int>(keys.size()) == l_);
  int c = 0;
  for (int t = 0; t < l_; ++t) {
    detail::FingerprintMixer mixer;
    for (int j = 0; j < k_; ++j, ++c) mixer.add(codes[c]);
    keys[t] = mixer.value();
  }
}

void WtaHash::hash_dense(const float* x, std::span<std::uint32_t> keys) const {
  thread_local std::vector<std::uint32_t> codes;
  codes.resize(static_cast<std::size_t>(k_) * l_);
  codes_dense(x, codes.data());
  keys_from_codes(codes.data(), keys);
}

void WtaHash::hash_sparse(const Index* idx, const float* val, std::size_t nnz,
                          std::span<std::uint32_t> keys) const {
  thread_local std::vector<float> dense;
  dense.assign(dim_, 0.0f);
  for (std::size_t i = 0; i < nnz; ++i) {
    SLIDE_ASSERT(idx[i] < dim_);
    dense[idx[i]] = val[i];
  }
  hash_dense(dense.data(), keys);
}

}  // namespace slide
