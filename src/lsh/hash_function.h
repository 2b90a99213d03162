// Interface for LSH families.
//
// SLIDE parameterizes the output layer's sampling with (K, L): L hash
// tables, each addressed by a meta-hash of K concatenated codes from one
// LSH family (paper §2, §3.2). A family implementation computes, for a
// dense vector, one 32-bit *fingerprint key per table* — the mixed
// combination of that table's K codes. The table group then maps
// fingerprints onto bucket indices. Every vector a family hashes is dense:
// the weight rows it indexes and the query, which is the embedding's
// activation vector. Custom families can be added by implementing this
// interface (paper: "SLIDE also provides the interface to add customized
// hash functions based on need").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sys/common.h"

namespace slide {

class HashFamily {
 public:
  virtual ~HashFamily() = default;

  /// Codes concatenated per table (meta-hash width).
  virtual int k() const noexcept = 0;
  /// Number of tables.
  virtual int l() const noexcept = 0;
  /// Dimension of the vectors this family hashes.
  virtual Index dim() const noexcept = 0;
  /// Family name for logging ("simhash", "dwta").
  virtual std::string name() const = 0;

  /// Computes the L fingerprint keys for a dense vector of length dim().
  /// keys.size() must equal l().
  virtual void hash_dense(const float* x,
                          std::span<std::uint32_t> keys) const = 0;

  /// Computes the keys of `count` dense rows, row i at rows + i*row_stride,
  /// writing key t of row i to keys[t * key_stride + i] (the table-major
  /// layout LshTableGroup builds from). The default hashes row by row;
  /// families with a blocked kernel override it with the same keys.
  virtual void hash_dense_rows(const float* rows, std::size_t row_stride,
                               std::size_t count, std::uint32_t* keys,
                               std::size_t key_stride) const {
    std::vector<std::uint32_t> row_keys(static_cast<std::size_t>(l()));
    for (std::size_t i = 0; i < count; ++i) {
      hash_dense(rows + i * row_stride, row_keys);
      for (std::size_t t = 0; t < row_keys.size(); ++t)
        keys[t * key_stride + i] = row_keys[t];
    }
  }
};

namespace detail {

/// Mixes K per-table codes into one 32-bit fingerprint (FNV-1a over the
/// code stream). All families use this so bucket aliasing behaves
/// identically across them.
class FingerprintMixer {
 public:
  FingerprintMixer() = default;
  void add(std::uint32_t code) noexcept {
    fp_ = (fp_ ^ code) * 0x01000193u;
    fp_ ^= fp_ >> 15;
  }
  std::uint32_t value() const noexcept { return fp_; }

 private:
  std::uint32_t fp_ = 0x811C9DC5u;
};

}  // namespace detail

}  // namespace slide
