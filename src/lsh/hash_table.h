// A single LSH hash table with fixed-capacity buckets, stored compactly.
//
// Buckets store neuron ids only (paper §2: "We only store pointers ...
// storing whole data vectors is very memory inefficient"). Every bucket is
// limited to a fixed size, which caps memory and balances thread load
// during parallel aggregation (paper §3.2). When a bucket is full, one of
// two replacement policies applies (paper §4.2, Table 3):
//   * Reservoir — Vitter's reservoir sampling; keeps every inserted item
//     with equal probability, preserving the adaptive-sampling property.
//   * FIFO — ring overwrite of the oldest entry; cheaper bookkeeping.
//
// Layout (CSR): bucket b holds ids_[offsets_[b], offsets_[b + 1]), and
// seen_[b] counts the ids ever hashed into it (the reservoir and FIFO
// positions need it once the bucket is full). Only stored ids take space,
// so a table costs 8 bytes per bucket plus 4 per stored id instead of
// 4 * bucket_size per bucket.
//
// A table is never written while readers can see it: build() replaces the
// whole table (a counting sort of the keys) and splice() appends new ids
// in one merge pass, both under the owner's single-writer role (see
// lsh/table_group.h for who holds it when).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sys/common.h"
#include "sys/rng.h"

namespace slide {

enum class InsertionPolicy { kReservoir, kFifo };

class HashTable {
 public:
  struct Config {
    /// Number of buckets = 2^range_pow.
    int range_pow = 15;
    /// Fixed bucket capacity (the paper's reference implementation uses 128).
    int bucket_size = 128;
    InsertionPolicy policy = InsertionPolicy::kReservoir;
  };

  /// An id that hashed into a full reservoir bucket: the `rank`-th id of
  /// `bucket` (0-based), left for resolve().
  struct Overflow {
    Index id;
    std::uint32_t bucket;
    std::uint32_t rank;
  };

  /// An empty table.
  explicit HashTable(const Config& config);

  /// Replaces the contents with ids 0..keys.size()-1, id i under keys[i],
  /// in id order: the first bucket_size ids of a bucket take its slots.
  /// FIFO resolves later ids in place; reservoir appends them to `overflow`
  /// (ascending id), because their random slot must come from the stream
  /// position the caller decides (see LshTableGroup::build_from_keys).
  void build(std::span<const std::uint32_t> keys,
             std::vector<Overflow>& overflow);

  /// Vitter's rule for one reservoir overflow: the (rank+1)-th id replaces
  /// a uniform slot with probability bucket_size/(rank+1).
  void resolve(const Overflow& overflow, Rng& rng);

  /// Appends ids first, first+1, ... (one per key, all greater than every
  /// stored id) to their buckets in one merge pass. Full buckets apply the
  /// policy with the bucket's seen count, drawing reservoir slots from rng.
  void splice(Index first, std::span<const std::uint32_t> keys, Rng& rng);

  /// Returns the ids currently stored in the bucket for `key`.
  std::span<const Index> bucket(std::uint32_t key) const {
    const std::uint32_t b = bucket_of(key);
    return {ids_.data() + offsets_[b], offsets_[b + 1] - offsets_[b]};
  }

  std::size_t num_buckets() const noexcept { return seen_.size(); }
  int bucket_size() const noexcept { return config_.bucket_size; }
  InsertionPolicy policy() const noexcept { return config_.policy; }

  /// Number of ids currently stored across all buckets.
  std::size_t total_stored() const noexcept { return ids_.size(); }
  /// Number of non-empty buckets (counted when the table is written).
  std::size_t occupied_buckets() const noexcept { return occupied_; }
  /// Number of full buckets, where the policy drops or replaces ids.
  std::size_t saturated_buckets() const noexcept { return saturated_; }

  std::size_t memory_bytes() const noexcept {
    return (offsets_.capacity() + seen_.capacity()) * sizeof(std::uint32_t) +
           ids_.capacity() * sizeof(Index);
  }

 private:
  std::uint32_t bucket_of(std::uint32_t key) const noexcept {
    // Fibonacci multiplicative mixing of the (already mixed) fingerprint;
    // top bits select the bucket.
    return (key * 2654435761u) >> shift_;
  }
  /// Recomputes offsets_ and the health counts from seen_.
  void layout_buckets();

  Config config_;
  unsigned shift_;
  std::vector<std::uint32_t> offsets_;  // num_buckets + 1
  std::vector<std::uint32_t> seen_;     // ids ever hashed per bucket
  std::vector<Index> ids_;              // bucket-major, packed
  std::size_t occupied_ = 0;
  std::size_t saturated_ = 0;
};

}  // namespace slide
