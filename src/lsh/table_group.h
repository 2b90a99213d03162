// The (K, L) LSH structure of one layer: a hash family plus L hash tables
// (paper §2, Figure 1). Supports parallel (re)builds over neuron weight
// rows and per-query bucket retrieval for the sampling strategies.
//
// Two classes live here:
//   LshTableGroup   — one set of L tables over one (possibly shared) hash
//                     family; the unit of building and querying.
//   MaintainedTables — the double-buffered active/shadow pair behind
//                     asynchronous maintenance (core/layer.h,
//                     MaintenancePolicy): readers pin the active group and
//                     sample from it lock-free while a maintenance thread
//                     re-hashes weights into the shadow group and publishes
//                     it with an atomic index swap.
#pragma once

#include <atomic>
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

  /// Shares an externally owned family — the double-buffer constructor:
  /// active and shadow groups must hash identically, so they reference one
  /// family instead of owning two independently seeded ones.
  LshTableGroup(std::shared_ptr<const HashFamily> family,
                const HashTable::Config& table_config,
                std::uint64_t seed = 23);

  int k() const noexcept { return family_->k(); }
  int l() const noexcept { return family_->l(); }
  const HashFamily& family() const noexcept { return *family_; }

  /// Computes the L fingerprint keys of a dense query of family().dim().
  void query_keys_dense(const float* x, std::span<std::uint32_t> keys) const {
    family_->hash_dense(x, keys);
  }
  void query_keys_sparse(const Index* idx, const float* val, std::size_t nnz,
                         std::span<std::uint32_t> keys) const {
    family_->hash_sparse(idx, val, nnz, keys);
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
  /// Caller holds the writer role: no reader may pin this group meanwhile.
  void splice_rows(Index first, const float* rows, std::size_t row_stride,
                   Index count, Rng& rng);

  /// Bucket counts summed over the tables, as of their last write.
  TableHealth health() const noexcept;

  std::size_t memory_bytes() const;
  const HashTable& table(int t) const { return tables_[static_cast<std::size_t>(t)]; }

 private:
  std::shared_ptr<const HashFamily> family_;
  std::vector<HashTable> tables_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------

/// Double-buffered table groups with lock-free reader pinning.
///
/// Readers (trainer threads selecting active neurons, inference forwards)
/// call pin(): it resolves the current active group and holds a per-buffer
/// reader count so the group cannot be rebuilt under them. The maintenance
/// side (exactly ONE caller at a time — either the trainer thread for
/// synchronous policies or the layer's BackgroundWorker for async ones)
/// rebuilds into shadow_group() and makes it visible with publish_shadow(),
/// an atomic index swap. In-flight readers finish on the retired group —
/// shadow_group() waits for their count to drain before reusing the buffer
/// (the RCU grace period), so a reader can never observe a half-built or
/// half-swapped group.
///
/// The shadow buffer is allocated lazily on first use: synchronous-only
/// layers keep the original single-group memory footprint.
///
/// No table is ever written while a reader can pin it. The two in-place
/// writers of active_group() — the synchronous rebuild and the add_units
/// splice — run under the layer's writer role, which excludes readers.
class MaintainedTables {
 public:
  MaintainedTables(std::unique_ptr<HashFamily> family,
                   const HashTable::Config& table_config,
                   std::uint64_t seed = 23);

  int k() const noexcept { return family_->k(); }
  int l() const noexcept { return family_->l(); }
  const HashFamily& family() const noexcept { return *family_; }

  /// Key computation only touches the (immutable, shared) family — no pin
  /// needed, valid across swaps.
  void query_keys_dense(const float* x, std::span<std::uint32_t> keys) const {
    family_->hash_dense(x, keys);
  }
  void query_keys_sparse(const Index* idx, const float* val, std::size_t nnz,
                         std::span<std::uint32_t> keys) const {
    family_->hash_sparse(idx, val, nnz, keys);
  }

  /// RAII reader pin: the referenced group stays valid (never rebuilt in
  /// place) for the pin's lifetime. Bucket spans obtained through the pin
  /// must not outlive it.
  class Pin {
   public:
    const LshTableGroup& group() const noexcept { return *group_; }
    const LshTableGroup* operator->() const noexcept { return group_; }
    ~Pin() {
      if (owner_ != nullptr)
        owner_->readers_[idx_].count.fetch_sub(1, std::memory_order_seq_cst);
    }
    Pin(Pin&& other) noexcept
        : owner_(other.owner_), idx_(other.idx_), group_(other.group_) {
      other.owner_ = nullptr;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    Pin& operator=(Pin&&) = delete;

   private:
    friend class MaintainedTables;
    Pin(const MaintainedTables* owner, int idx) noexcept
        : owner_(owner),
          idx_(idx),
          group_(owner->groups_[static_cast<std::size_t>(idx)].get()) {}

    const MaintainedTables* owner_;
    int idx_;
    const LshTableGroup* group_;
  };

  /// Pins the active group for reading. Lock-free (one atomic increment /
  /// decrement pair per query — noise next to the K*L hash computations).
  Pin pin() const;

  /// Convenience for diagnostics and single-threaded callers (benches,
  /// tests). The returned spans are NOT protected by a pin once this call
  /// returns — concurrent-maintenance callers must hold their own pin()
  /// and read through it instead.
  void buckets(std::span<const std::uint32_t> keys,
               std::vector<std::span<const Index>>& out) const {
    active().buckets(keys, out);
  }

  // ---- Maintenance side (single caller at a time; see class comment) ----

  /// The active group, mutable: in-place rebuilds for the synchronous
  /// policy and add_units splices. The caller guarantees no concurrent
  /// readers.
  LshTableGroup& active_group() noexcept {
    return *groups_[static_cast<std::size_t>(
        active_idx_.load(std::memory_order_seq_cst))];
  }

  /// The shadow group, ready to build into. Allocates it on first use;
  /// waits for readers still pinning the retired buffer.
  LshTableGroup& shadow_group();

  /// Atomically makes the shadow group the active one. The previously
  /// active group becomes the next shadow; in-flight readers finish on it.
  void publish_shadow();

  /// Successful publish_shadow() calls (diagnostics).
  std::uint64_t publish_count() const noexcept {
    return publish_count_.load(std::memory_order_relaxed);
  }

  // ---- Diagnostics (unpinned: only meaningful without concurrent
  //      maintenance, e.g. in benches and tests) ----
  const LshTableGroup& active() const noexcept {
    return *groups_[static_cast<std::size_t>(
        active_idx_.load(std::memory_order_seq_cst))];
  }
  const HashTable& table(int t) const { return active().table(t); }
  std::size_t memory_bytes() const;

 private:
  struct alignas(kCacheLineSize) PaddedCount {
    mutable std::atomic<std::uint32_t> count{0};
  };

  std::shared_ptr<const HashFamily> family_;
  HashTable::Config table_config_;
  std::uint64_t seed_;
  std::unique_ptr<LshTableGroup> groups_[2];  // [shadow] lazily allocated
  std::atomic<int> active_idx_{0};
  PaddedCount readers_[2];
  std::atomic<std::uint64_t> publish_count_{0};
};

}  // namespace slide
