// Densified Winner-Takes-All hashing (Chen & Shrivastava 2018), the family
// the paper uses for the very sparse Amazon-670K inputs (§3.2, appendix A).
//
// Winner-Takes-All (Yagnik et al. 2011) with the paper's memory
// optimization (appendix A): instead of K*L full permutations, generate
// ceil(K*L / (d/m)) permutations and split each into d/m bins of size m;
// every bin yields one code, the within-bin offset of its maximum element.
// Total permutation storage is O(K*L*m) instead of O(K*L*d).
//
// DWTA computes the codes by looping over the *nonzero* coordinates of the
// input only — O(nnz * K*L*m/d) comparisons — and repairs bins that
// received no nonzero coordinate ("empty bins") with the densification
// scheme: an empty bin borrows the code of a non-empty bin found by
// iterating a universal hash probe.
//
// A dense input fills every bin, so hash_dense skips the scatter loop and
// densification: each code is the winner of its bin scanned in ascending
// coordinate order (the order codes_sparse visits an all-nonzero input
// in), computed by the dispatched simd::wta_codes kernel over a table
// built once at construction. Its keys equal hash_sparse's on the same
// vector bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/hash_function.h"
#include "sys/rng.h"

namespace slide {

namespace detail {

/// The bins of DWTA's dense path, laid out for simd::wta_codes: slot j of
/// code c sits at [j * codes + c], so one vector lane scans one code.
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

class DwtaHash final : public HashFamily {
 public:
  struct Config {
    int k = 8;
    int l = 50;
    Index dim = 0;
    int bin_size = 8;
    /// Probe cap for empty-bin densification.
    int max_densify_attempts = 128;
    std::uint64_t seed = 17;
  };

  explicit DwtaHash(const Config& config);

  int k() const noexcept override { return k_; }
  int l() const noexcept override { return l_; }
  Index dim() const noexcept override { return dim_; }
  std::string name() const override { return "dwta"; }

  void hash_dense(const float* x,
                  std::span<std::uint32_t> keys) const override;
  void hash_sparse(const Index* idx, const float* val, std::size_t nnz,
                   std::span<std::uint32_t> keys) const override;

  int bin_size() const noexcept { return bin_size_; }
  int num_permutations() const noexcept { return num_perms_; }

  /// Raw codes of a dense input, one per K*L bins (exposed for tests).
  void codes_dense(const float* x, std::uint32_t* codes) const;

  /// Raw densified codes for a sparse input (exposed for tests). Returns
  /// the number of bins that were empty before densification.
  int codes_sparse(const Index* idx, const float* val, std::size_t nnz,
                   std::uint32_t* codes) const;

 private:
  void keys_from_codes(const std::uint32_t* codes,
                       std::span<std::uint32_t> keys) const;
  void densify(std::uint32_t* codes, const std::uint8_t* filled) const;

  int k_;
  int l_;
  Index dim_;
  int bin_size_;
  int bins_per_perm_;
  int num_perms_;
  int max_densify_attempts_;
  std::uint64_t probe_seed_;
  // pos_[p * dim_ + d] = position of coordinate d in permutation p.
  std::vector<Index> pos_;
  // Each bin's coordinates in ascending order, labelled with their
  // position in the bin: the dense path's table.
  detail::WtaBins bins_;
};

}  // namespace slide
