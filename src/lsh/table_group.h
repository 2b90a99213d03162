// The (K, L) LSH structure of the output layer: a hash family plus L hash
// tables (paper §2, Figure 1). Supports parallel (re)builds over neuron
// weight rows and per-query bucket retrieval for the sampling strategies.
//
// The tables are rebuilt and spliced in place. Every write runs under the
// owning layer's writer role (core/network.h), which excludes readers, so
// a reader never sees a half-built table.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "lsh/hash_function.h"
#include "lsh/hash_table.h"
#include "sys/thread_pool.h"

namespace slide {

/// Bucket counts of a set of tables (table health on /metrics). Tables
/// count them whenever they are written, so reading them costs nothing.
struct TableHealth {
  std::size_t buckets = 0;
  std::size_t occupied = 0;   ///< non-empty buckets
  std::size_t saturated = 0;  ///< full buckets (the policy drops ids there)

  double occupancy() const noexcept {
    return buckets == 0 ? 0.0 : static_cast<double>(occupied) / buckets;
  }
  double saturation() const noexcept {
    return buckets == 0 ? 0.0 : static_cast<double>(saturated) / buckets;
  }
  TableHealth& operator+=(const TableHealth& o) noexcept {
    buckets += o.buckets;
    occupied += o.occupied;
    saturated += o.saturated;
    return *this;
  }
};

class LshTableGroup {
 public:
  /// Takes ownership of the hash family. The group creates family->l()
  /// tables with the given per-table configuration.
  LshTableGroup(std::unique_ptr<HashFamily> family,
                const HashTable::Config& table_config,
                std::uint64_t seed = 23);

  int k() const noexcept { return family_->k(); }
  int l() const noexcept { return family_->l(); }
  const HashFamily& family() const noexcept { return *family_; }

  /// Computes the L fingerprint keys of a dense query of family().dim().
  void query_keys_dense(const float* x, std::span<std::uint32_t> keys) const {
    family_->hash_dense(x, keys);
  }

  /// Fills out[t] with the bucket of table t for keys[t].
  void buckets(std::span<const std::uint32_t> keys,
               std::vector<std::span<const Index>>& out) const;

  /// Rebuilds every table over ids [0, count) with vector i at
  /// rows + i*row_stride, hashing blocks of rows through
  /// family().hash_dense_rows, in parallel over ids when a pool is given.
  /// This is the layer (re)build of paper §3.1 / §4.2.
  void build_from_rows(const float* rows, std::size_t row_stride, Index count,
                       ThreadPool* pool = nullptr);

  /// Rebuilds every table from table-major keys (keys[t * count + i] is id
  /// i's key in table t): one counting sort per table, in parallel over
  /// tables. Reservoir replacements then draw from one Rng seeded with the
  /// group seed, in id-then-table order, so the result is the same for
  /// every pool size and equals inserting ids 0, 1, ... one at a time.
  void build_from_keys(std::span<const std::uint32_t> keys, Index count,
                       ThreadPool* pool = nullptr);

  /// Appends ids [first, first + count), vector i at rows + i*row_stride,
  /// hashed as one block, to their buckets with one merge pass per table
  /// (HashTable::splice).
  /// Caller holds the writer role: no reader may query this group meanwhile.
  void splice_rows(Index first, const float* rows, std::size_t row_stride,
                   Index count, Rng& rng);

  /// Bucket counts summed over the tables, as of their last write.
  TableHealth health() const noexcept;

  std::size_t memory_bytes() const;
  const HashTable& table(int t) const { return tables_[static_cast<std::size_t>(t)]; }

 private:
  std::unique_ptr<const HashFamily> family_;
  std::vector<HashTable> tables_;
  std::uint64_t seed_;
};

/// Former name of LshTableGroup, kept because perfbench/src/decompose.cpp
/// still spells it.
using MaintainedTables = LshTableGroup;

}  // namespace slide
