// Densified Winner-Takes-All hashing (Chen & Shrivastava 2018), the family
// the paper uses for the very sparse Amazon-670K inputs (§3.2, appendix A).
//
// Same permutation/bin structure as WTA, but computed by looping over the
// *nonzero* coordinates of the input only — O(nnz * K*L*m/d) comparisons —
// and repairing bins that received no nonzero coordinate ("empty bins")
// with the densification scheme: an empty bin borrows the code of a
// non-empty bin found by iterating a universal hash probe.
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
#include "lsh/wta.h"
#include "sys/rng.h"

namespace slide {

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
