#include "lsh/hash_table.h"

#include <algorithm>
#include <limits>

namespace slide {

HashTable::HashTable(const Config& config) : config_(config) {
  SLIDE_CHECK(config_.range_pow >= 1 && config_.range_pow <= 28,
              "HashTable: range_pow must be in [1, 28]");
  SLIDE_CHECK(config_.bucket_size >= 1,
              "HashTable: bucket_size must be >= 1");
  const std::size_t buckets = std::size_t{1} << config_.range_pow;
  shift_ = 32u - static_cast<unsigned>(config_.range_pow);
  offsets_.assign(buckets + 1, 0);
  seen_.assign(buckets, 0);
}

void HashTable::layout_buckets() {
  const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
  std::uint32_t total = 0;
  occupied_ = 0;
  saturated_ = 0;
  for (std::size_t b = 0; b < seen_.size(); ++b) {
    offsets_[b] = total;
    total += std::min(seen_[b], cap);
    occupied_ += seen_[b] > 0 ? 1 : 0;
    saturated_ += seen_[b] >= cap ? 1 : 0;
  }
  offsets_.back() = total;
}

void HashTable::build(std::span<const std::uint32_t> keys,
                      std::vector<Overflow>& overflow) {
  SLIDE_CHECK(keys.size() <= std::numeric_limits<Index>::max(),
              "HashTable: too many ids for one build");
  // Counting sort: histogram, bucket offsets, then a stable scatter in id
  // order, which reproduces the one-id-at-a-time insert sequence.
  std::fill(seen_.begin(), seen_.end(), 0u);
  for (std::uint32_t key : keys) ++seen_[bucket_of(key)];
  layout_buckets();
  ids_.resize(offsets_.back());
  const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
  std::fill(seen_.begin(), seen_.end(), 0u);  // recounted as ranks below
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t b = bucket_of(keys[i]);
    const std::uint32_t rank = seen_[b]++;
    const auto id = static_cast<Index>(i);
    if (rank < cap) {
      ids_[offsets_[b] + rank] = id;
    } else if (config_.policy == InsertionPolicy::kFifo) {
      ids_[offsets_[b] + rank % cap] = id;
    } else {
      overflow.push_back({id, b, rank});
    }
  }
}

void HashTable::resolve(const Overflow& overflow, Rng& rng) {
  // Vitter: every id seen by the bucket ends up retained with equal
  // probability bucket_size / seen.
  const std::uint32_t j = rng.uniform(overflow.rank + 1);
  if (j < static_cast<std::uint32_t>(config_.bucket_size))
    ids_[offsets_[overflow.bucket] + j] = overflow.id;
}

void HashTable::splice(Index first, std::span<const std::uint32_t> keys,
                       Rng& rng) {
  SLIDE_CHECK(keys.size() <= std::numeric_limits<Index>::max() - first,
              "HashTable: spliced ids overflow the id range");
  const std::vector<std::uint32_t> old_offsets = offsets_;
  std::vector<std::uint32_t> count = seen_;  // running seen count
  for (std::uint32_t key : keys) ++seen_[bucket_of(key)];
  layout_buckets();

  // Merge: each bucket keeps its stored ids in place, then receives the
  // new ones in id order under the same rule a build applies.
  std::vector<Index> ids(offsets_.back());
  for (std::size_t b = 0; b + 1 < offsets_.size(); ++b)
    std::copy(ids_.begin() + old_offsets[b], ids_.begin() + old_offsets[b + 1],
              ids.begin() + offsets_[b]);
  const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t b = bucket_of(keys[i]);
    const std::uint32_t n = count[b]++;
    const Index id = first + static_cast<Index>(i);
    std::uint32_t slot = n;
    if (n >= cap) {
      slot = config_.policy == InsertionPolicy::kFifo ? n % cap
                                                      : rng.uniform(n + 1);
      if (slot >= cap) continue;
    }
    ids[offsets_[b] + slot] = id;
  }
  ids_.swap(ids);
}

}  // namespace slide
