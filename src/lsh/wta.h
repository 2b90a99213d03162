// Winner-Takes-All hashing (Yagnik et al. 2011) with the paper's memory
// optimization (appendix A): instead of K*L full permutations, generate
// ceil(K*L / (d/m)) permutations and split each into d/m bins of size m;
// every bin yields one code — the within-bin offset of the maximum element.
// Total permutation storage is O(K*L*m) instead of O(K*L*d).
//
// WTA preserves rank ("comparative reasoning") similarity. For very sparse
// inputs its codes are dominated by ties among zeros — the failure mode that
// motivates DWTA (see dwta.h).
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/hash_function.h"
#include "sys/rng.h"

namespace slide {

namespace detail {

/// The bins of a winner-take-all family, laid out for simd::wta_codes:
/// slot j of code c sits at [j * codes + c], so one vector lane scans one
/// code. Shared by WTA (slots in permutation order) and DWTA's dense path
/// (slots in ascending coordinate order).
class WtaBins {
 public:
  WtaBins() = default;
  /// Checks that every coordinate below `dim` fits the kernel's int32
  /// gather index.
  WtaBins(int codes, int bin_size, Index dim);

  /// Slot j of code c reads x[coord] and reports `label` when it wins.
  void set(int c, int j, Index coord, std::uint32_t label) noexcept;

  /// out[c] = the label of code c's first strict maximum over x.
  void codes(const float* x, std::uint32_t* out) const noexcept;

 private:
  std::size_t codes_ = 0;
  std::size_t bin_size_ = 0;
  std::vector<std::int32_t> coords_;
  std::vector<std::uint32_t> labels_;
};

}  // namespace detail

class WtaHash final : public HashFamily {
 public:
  struct Config {
    int k = 6;
    int l = 50;
    Index dim = 0;
    /// Bin size m (paper's adjustable hyper-parameter, m << d).
    int bin_size = 8;
    std::uint64_t seed = 13;
  };

  explicit WtaHash(const Config& config);

  int k() const noexcept override { return k_; }
  int l() const noexcept override { return l_; }
  Index dim() const noexcept override { return dim_; }
  std::string name() const override { return "wta"; }

  void hash_dense(const float* x,
                  std::span<std::uint32_t> keys) const override;
  /// Densifies into thread-local scratch: classic WTA is not meaningful
  /// natively on sparse inputs (that is DWTA's job).
  void hash_sparse(const Index* idx, const float* val, std::size_t nnz,
                   std::span<std::uint32_t> keys) const override;

  int bin_size() const noexcept { return bin_size_; }
  int num_permutations() const noexcept { return num_perms_; }

  /// Raw codes (one per K*L bins), exposed for tests.
  void codes_dense(const float* x, std::uint32_t* codes) const;

 private:
  void keys_from_codes(const std::uint32_t* codes,
                       std::span<std::uint32_t> keys) const;

  int k_;
  int l_;
  Index dim_;
  int bin_size_;
  int bins_per_perm_;
  int num_perms_;
  // Slot q of code p * bins_per_perm_ + b is position b * bin_size_ + q of
  // permutation p.
  detail::WtaBins bins_;
};

}  // namespace slide
