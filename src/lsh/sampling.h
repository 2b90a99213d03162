// The three active-neuron sampling strategies of paper §4.1 / appendix B.
//
// Given the L buckets retrieved for a query, a strategy selects the set of
// active neurons:
//   * Vanilla      — walk tables in random order, union buckets until the
//                    target count β is reached or all tables are used. O(β).
//   * TopK         — aggregate id frequencies across all L buckets, keep the
//                    β most frequent. O(|candidates| log |candidates|).
//   * HardThreshold— keep ids appearing at least m times; no sort.
//
// Selection probabilities (paper eqs. 2-3) are in lsh/collision.h; their
// empirical counterparts are exercised in the property tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sys/common.h"
#include "sys/rng.h"

namespace slide {

enum class SamplingStrategy { kVanilla, kTopK, kHardThreshold };

const char* to_string(SamplingStrategy strategy);

struct SamplingConfig {
  SamplingStrategy strategy = SamplingStrategy::kVanilla;
  /// Target number of active neurons β (Vanilla / TopK). TopK returns at
  /// most this many; Vanilla stops adding once reached. A sampled layer
  /// tops a shorter candidate set up to the target with uniformly random
  /// ids (the reference implementation's fill-in).
  Index target = 1024;
  /// Minimum bucket-frequency m for HardThreshold.
  int hard_threshold_m = 2;
  /// Optional cap on INFERENCE candidates (training sampling untouched).
  /// On a sharded layer this is a GLOBAL budget, split across
  /// shards proportionally to their width — the fix for per-shard candidate
  /// oversampling, where S shards each sampling the full target produce
  /// S x target candidates per query. 0 (default) disables the cap, which
  /// preserves the historical behavior and the S = 1 bit-identity anchor.
  Index inference_budget = 0;
};

/// Epoch-stamped visited-set + frequency counters over a fixed id universe.
/// O(1) insert/lookup with no clearing cost between epochs; one instance per
/// thread makes the sampling hot path allocation-free. Also used by the
/// layer code to deduplicate forced labels and random fill-ins.
class VisitedSet {
 public:
  explicit VisitedSet(Index max_ids);

  Index capacity() const noexcept { return static_cast<Index>(stamp_.size()); }

  /// Starts a new epoch; all ids become "unseen".
  void begin_epoch();

  /// Marks id seen; returns true the first time in this epoch.
  bool insert(Index id) {
    SLIDE_ASSERT(id < capacity());
    if (stamp_[id] == epoch_) return false;
    stamp_[id] = epoch_;
    freq_[id] = 0;
    return true;
  }

  bool contains(Index id) const {
    SLIDE_ASSERT(id < capacity());
    return stamp_[id] == epoch_;
  }

  /// Increments and returns the occurrence count of a seen id.
  std::uint16_t bump(Index id) {
    SLIDE_ASSERT(contains(id));
    return ++freq_[id];
  }

  std::uint16_t count(Index id) const {
    return contains(id) ? freq_[id] : 0;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint16_t> freq_;
  std::uint32_t epoch_ = 0;
};

/// Runs the configured strategy over the retrieved buckets. `out` receives
/// the unique selected neuron ids (unordered; TopK output is ordered by
/// descending frequency). The RNG drives Vanilla's random table order only.
///
/// With fresh_epoch (default) the visited set is epoch-reset first. Passing
/// false lets the caller pre-stamp ids to exclude — SLIDE uses this to keep
/// forced true-label neurons out of the sampled list (they are already in
/// the active set).
void sample_neurons(const SamplingConfig& config,
                    std::span<const std::span<const Index>> buckets,
                    VisitedSet& visited, Rng& rng, std::vector<Index>& out,
                    bool fresh_epoch = true);

}  // namespace slide
