#include "lsh/dwta.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

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

DwtaHash::DwtaHash(const Config& config)
    : k_(config.k),
      l_(config.l),
      dim_(config.dim),
      bin_size_(config.bin_size) {
  SLIDE_CHECK(k_ >= 1 && l_ >= 1, "DwtaHash: K and L must be >= 1");
  SLIDE_CHECK(bin_size_ >= 2, "DwtaHash: bin_size must be >= 2");
  SLIDE_CHECK(dim_ >= static_cast<Index>(bin_size_),
              "DwtaHash: dim must be >= bin_size");

  const int bins_per_perm = static_cast<int>(dim_) / bin_size_;
  const int total_codes = k_ * l_;
  num_perms_ = (total_codes + bins_per_perm - 1) / bins_per_perm;

  bins_ = detail::WtaBins(total_codes, bin_size_, dim_);
  Rng rng(config.seed);
  std::vector<Index> perm(dim_);
  // One bin's (coordinate, position in the bin) pairs.
  std::vector<std::pair<Index, std::uint32_t>> bin;
  for (int p = 0; p < num_perms_; ++p) {
    std::iota(perm.begin(), perm.end(), Index{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    const int first = p * bins_per_perm;
    for (int c = first; c < std::min(first + bins_per_perm, total_codes);
         ++c) {
      const Index* slots =
          perm.data() + static_cast<std::size_t>(c - first) * bin_size_;
      bin.clear();
      for (int j = 0; j < bin_size_; ++j)
        bin.emplace_back(slots[j], static_cast<std::uint32_t>(j));
      std::sort(bin.begin(), bin.end());
      for (int j = 0; j < bin_size_; ++j) {
        const auto& [coord, label] = bin[static_cast<std::size_t>(j)];
        bins_.set(c, j, coord, label);
      }
    }
  }
}

void DwtaHash::keys_from_codes(const std::uint32_t* codes,
                               std::span<std::uint32_t> keys) const {
  SLIDE_ASSERT(static_cast<int>(keys.size()) == l_);
  int c = 0;
  for (int t = 0; t < l_; ++t) {
    detail::FingerprintMixer mixer;
    for (int j = 0; j < k_; ++j, ++c) mixer.add(codes[c]);
    keys[t] = mixer.value();
  }
}

void DwtaHash::codes_dense(const float* x, std::uint32_t* codes) const {
  bins_.codes(x, codes);
}

void DwtaHash::hash_dense(const float* x, std::span<std::uint32_t> keys) const {
  thread_local std::vector<std::uint32_t> codes;
  codes.resize(static_cast<std::size_t>(k_) * l_);
  codes_dense(x, codes.data());
  keys_from_codes(codes.data(), keys);
}

}  // namespace slide
