#include "lsh/dwta.h"

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

DwtaHash::DwtaHash(const Config& config)
    : k_(config.k),
      l_(config.l),
      dim_(config.dim),
      bin_size_(config.bin_size),
      max_densify_attempts_(config.max_densify_attempts),
      probe_seed_(config.seed * 0x2545F4914F6CDD1Dull + 1) {
  SLIDE_CHECK(k_ >= 1 && l_ >= 1, "DwtaHash: K and L must be >= 1");
  SLIDE_CHECK(bin_size_ >= 2, "DwtaHash: bin_size must be >= 2");
  SLIDE_CHECK(dim_ >= static_cast<Index>(bin_size_),
              "DwtaHash: dim must be >= bin_size");

  bins_per_perm_ = static_cast<int>(dim_) / bin_size_;
  const int total_codes = k_ * l_;
  num_perms_ = (total_codes + bins_per_perm_ - 1) / bins_per_perm_;

  bins_ = detail::WtaBins(total_codes, bin_size_, dim_);
  Rng rng(config.seed);
  std::vector<Index> perm(dim_);
  std::vector<Index> bin;
  pos_.resize(static_cast<std::size_t>(num_perms_) * dim_);
  for (int p = 0; p < num_perms_; ++p) {
    std::iota(perm.begin(), perm.end(), Index{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    Index* pos = pos_.data() + static_cast<std::size_t>(p) * dim_;
    for (Index q = 0; q < dim_; ++q) pos[perm[q]] = q;
    const int first = p * bins_per_perm_;
    for (int c = first; c < std::min(first + bins_per_perm_, total_codes);
         ++c) {
      const Index* slots =
          perm.data() + static_cast<std::size_t>(c - first) * bin_size_;
      bin.assign(slots, slots + bin_size_);
      std::sort(bin.begin(), bin.end());
      for (int j = 0; j < bin_size_; ++j) {
        const Index d = bin[static_cast<std::size_t>(j)];
        bins_.set(c, j, d, pos[d] % static_cast<Index>(bin_size_));
      }
    }
  }
}

int DwtaHash::codes_sparse(const Index* idx, const float* val,
                           std::size_t nnz, std::uint32_t* codes) const {
  const int total_codes = k_ * l_;
  thread_local std::vector<float> best;
  thread_local std::vector<std::uint8_t> filled;
  best.assign(static_cast<std::size_t>(total_codes),
              -std::numeric_limits<float>::infinity());
  filled.assign(static_cast<std::size_t>(total_codes), 0);
  std::fill_n(codes, total_codes, 0u);

  const int in_range_positions = bins_per_perm_ * bin_size_;
  for (std::size_t i = 0; i < nnz; ++i) {
    const Index d = idx[i];
    SLIDE_ASSERT(d < dim_);
    const float v = val[i];
    for (int p = 0; p < num_perms_; ++p) {
      const Index q = pos_[static_cast<std::size_t>(p) * dim_ + d];
      if (q >= static_cast<Index>(in_range_positions)) continue;
      const int c = p * bins_per_perm_ + static_cast<int>(q) / bin_size_;
      if (c >= total_codes) continue;
      if (!filled[static_cast<std::size_t>(c)] ||
          v > best[static_cast<std::size_t>(c)]) {
        best[static_cast<std::size_t>(c)] = v;
        filled[static_cast<std::size_t>(c)] = 1;
        codes[c] = static_cast<std::uint32_t>(q) % bin_size_;
      }
    }
  }

  int empty = 0;
  for (int c = 0; c < total_codes; ++c)
    if (!filled[static_cast<std::size_t>(c)]) ++empty;
  // densify() reads the pre-densification fill state, so repaired bins never
  // act as donors and the result does not depend on repair order.
  if (empty > 0) densify(codes, filled.data());
  return empty;
}

void DwtaHash::densify(std::uint32_t* codes,
                       const std::uint8_t* filled) const {
  const int total_codes = k_ * l_;
  for (int c = 0; c < total_codes; ++c) {
    if (filled[c]) continue;
    std::uint32_t code = 0;
    for (int attempt = 1; attempt <= max_densify_attempts_; ++attempt) {
      // Universal probe hash over (bin, attempt).
      std::uint64_t h = probe_seed_;
      h ^= static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<std::uint64_t>(attempt) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
      h *= 0x94D049BB133111EBull;
      h ^= h >> 29;
      const int donor = static_cast<int>(h % static_cast<std::uint64_t>(total_codes));
      if (filled[donor]) {
        code = codes[donor];
        break;
      }
    }
    codes[c] = code;
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

void DwtaHash::hash_sparse(const Index* idx, const float* val,
                           std::size_t nnz,
                           std::span<std::uint32_t> keys) const {
  thread_local std::vector<std::uint32_t> codes;
  codes.resize(static_cast<std::size_t>(k_) * l_);
  codes_sparse(idx, val, nnz, codes.data());
  keys_from_codes(codes.data(), keys);
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
