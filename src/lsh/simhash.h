// Simhash: signed sparse random projections for cosine similarity
// (paper §3.2 and appendix A).
//
// Each of the K*L projections is a random vector with entries in
// {+1, 0, -1}; following the paper we keep 1/3 of the coordinates nonzero.
// The code is the sign bit of the projection; K sign bits are mixed into
// one fingerprint per table.
//
// The projections live in one coordinate-major int8 sign matrix
// [dim x K*L]: row d holds every projection's entry for coordinate d, and
// each row is padded with zeros to the kernel's lane group. A dense vector
// (or a block of them) is projected by the dispatched simd::sign_project
// kernel, which sums each projection in increasing coordinate order; a
// sparse vector adds a scaled matrix row per nonzero with simd::axpy_i8.
// A product with a +-1 or 0 entry is exact, so every dispatch level
// computes the same projection values.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/hash_function.h"
#include "simd/int8.h"
#include "sys/rng.h"

namespace slide {

class Simhash final : public HashFamily {
 public:
  struct Config {
    int k = 9;
    int l = 50;
    Index dim = 0;
    /// Fraction of nonzero coordinates per projection (paper uses 1/3).
    double density = 1.0 / 3.0;
    std::uint64_t seed = 11;
  };

  explicit Simhash(const Config& config);

  int k() const noexcept override { return k_; }
  int l() const noexcept override { return l_; }
  Index dim() const noexcept override { return dim_; }
  std::string name() const override { return "simhash"; }

  void hash_dense(const float* x,
                  std::span<std::uint32_t> keys) const override;
  void hash_dense_rows(const float* rows, std::size_t row_stride,
                       std::size_t count, std::uint32_t* keys,
                       std::size_t key_stride) const override;
  void hash_sparse(const Index* idx, const float* val, std::size_t nnz,
                   std::span<std::uint32_t> keys) const override;

  // --- Raw projection values (the hash paths above, tests, benches) -----

  int num_projections() const noexcept { return k_ * l_; }

  /// Fills dots[p] = <x, projection_p> for all K*L projections.
  void project_dense(const float* x, float* dots) const;

  /// dots += delta * row(dim) of the sign matrix: the change in every
  /// projection value when coordinate `dim` of x changes by `delta`.
  /// hash_sparse sums one such row per nonzero. O(K*L) vector work.
  void update_projections(Index dim, float delta, float* dots) const;

 private:
  /// Converts projection values into the L fingerprint keys.
  void keys_from_projections(const float* dots,
                             std::span<std::uint32_t> keys) const;
  /// Fingerprint key of table t from its K projection values.
  std::uint32_t table_key(const float* dots, int t) const noexcept;

  int k_;
  int l_;
  Index dim_;
  std::size_t stride_;  // K*L rounded up to simd::kSignLanes
  std::vector<simd::I8> signs_;  // [dim x stride_], entries -1 / 0 / +1
};

}  // namespace slide
