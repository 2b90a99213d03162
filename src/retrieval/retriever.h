// Candidate retrieval for the sampled wide layer.
//
// SLIDE's core trick is that the wide output layer only ever *scores* a
// candidate set. This subsystem puts candidate generation behind one
// interface with two implementations:
//
//   LshRetriever    (K, L) hash tables — the paper's sampler, wrapping one
//                   LshTableGroup. A hashed output layer (each shard of a
//                   sharded one) owns exactly one.
//   ExactRetriever  brute force: every live id is a candidate. The oracle
//                   the LSH sampler is measured against (tests, the
//                   retrieval_backends bench, examples/lsh_topk_search).
//
// A retriever indexes a fixed universe of ids [0, size()) whose vectors
// live in caller-owned row storage (RowView — for a layer, its weight
// rows), and answers dense queries (for a layer, the embedding's
// activation vector). retrieve() is const and safe to call concurrently
// with other retrieve() calls; mutation (rebuild/insert/remove/
// resize_universe) follows the layer's single-writer contract.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lsh/sampling.h"
#include "sys/common.h"
#include "sys/rng.h"

namespace slide {

class ThreadPool;

namespace retrieval {

/// Non-owning view of the indexed vectors: `count` rows of `dim` floats,
/// row id at data + id * dim. The storage must stay valid and its address
/// stable for the retriever's lifetime (layer weights are HugeArray-backed,
/// so theirs is).
struct RowView {
  const float* data = nullptr;
  Index dim = 0;
  Index count = 0;

  const float* row(Index id) const noexcept {
    SLIDE_ASSERT(id < count);
    return data + static_cast<std::size_t>(id) * dim;
  }
};

/// Candidate-generation index over a fixed id universe.
///
/// Lifecycle: construct over a RowView, then rebuild() to (re)index the
/// current rows. remove(id) masks the id from retrieval until a later
/// insert(id) resurrects it (rebuild() does NOT clear the mask). The mask
/// lives here, in the base class, so every backend shares one tombstone
/// semantic; indexes keep a masked id's entries, so unmasking is enough.
class Retriever {
 public:
  virtual ~Retriever() = default;

  /// Size of the id universe (NOT the live count; removed ids still count).
  virtual Index size() const noexcept = 0;

  // --- candidate generation -------------------------------------------

  /// Appends up to ~`budget` candidate ids for the query to `out`.
  ///
  /// The query is dense: `query_act` is the full vector (for a layer, the
  /// embedding's activations). `query_ids` must be empty (slide::Error
  /// otherwise).
  ///
  /// Post-condition (THE candidate dedupe point — call sites never dedupe
  /// again): every id appended is (a) in [0, size()), (b) not removed,
  /// (c) was not stamped in `visited` when retrieve() was entered, and
  /// (d) is stamped in `visited` on return. Hence ids within one call are
  /// unique, and successive calls in the same epoch return disjoint sets.
  ///
  /// With `fresh_epoch` (the inference path) the visited set is
  /// epoch-reset first. Passing false (the training path) lets the caller
  /// pre-stamp exclusions — SLIDE stamps the forced true-label ids so they
  /// are never re-retrieved.
  ///
  /// ExactRetriever ignores `budget` (it IS the oracle scan); LSH treats
  /// it as the sampling target. Thread-safe against concurrent
  /// retrieve() calls, not against any mutation.
  virtual void retrieve(std::span<const Index> query_ids,
                        std::span<const float> query_act, Index budget,
                        Rng& rng, VisitedSet& visited, std::vector<Index>& out,
                        bool fresh_epoch = true) const = 0;

  // --- index mutation (single writer) ----------------------------------

  /// Clears a remove() mask: the id is retrievable again.
  void insert(Index id) { unmask(id); }

  /// Masks id from retrieval until a later insert(id).
  void remove(Index id) { mask(id); }

  // --- tombstone introspection (the dynamic-label lifecycle reads these) -

  /// True if id passed through remove() without a later insert() — the
  /// public face of the tombstone mask, for callers (layer forward paths,
  /// checkpointing) that must agree with retrieval on what is live.
  bool is_removed(Index id) const noexcept { return masked(id); }
  /// True once any remove() happened (cheap any-tombstone fast-path gate).
  bool has_removed() const noexcept { return any_masked(); }
  /// Number of currently masked ids.
  Index removed_count() const noexcept {
    Index n = 0;
    for (std::uint8_t t : tombstone_) n += t != 0;
    return n;
  }
  /// Appends every masked id to `out` in ascending order.
  void append_removed_ids(std::vector<Index>& out) const {
    for (std::size_t id = 0; id < tombstone_.size(); ++id)
      if (tombstone_[id] != 0) out.push_back(static_cast<Index>(id));
  }

  /// Re-targets the index at grown row storage (online add_units: the
  /// layer's weight arrays were reallocated and extended by new rows).
  /// `rows` must have the same dim and count >= size(); existing ids keep
  /// their tombstone state, the appended ids start live but UNINDEXED —
  /// the caller indexes them (SampledLayer::add_units splices them into
  /// the LSH tables).
  void resize_universe(RowView rows) {
    SLIDE_CHECK(rows.dim == 0 || size() == 0 || rows.count >= size(),
                "retriever: resize_universe cannot shrink the universe");
    if (!tombstone_.empty())
      tombstone_.resize(static_cast<std::size_t>(rows.count), 0);
    do_resize(rows);
  }

  // --- maintenance -----------------------------------------------------

  /// Rebuilds the whole index from the current rows, in place (a writer:
  /// no retrieve() may overlap it). Standalone users call this; a
  /// SampledLayer drives its LSH tables' rebuilds itself.
  virtual void rebuild(ThreadPool* pool) = 0;

  virtual std::size_t memory_bytes() const noexcept = 0;

 protected:
  /// True if id passed through remove() without a later insert(). The
  /// backends filter retrieval output through this.
  bool masked(Index id) const noexcept {
    return !tombstone_.empty() && tombstone_[id] != 0;
  }
  /// True once any remove() happened — lets hot paths skip the filter.
  bool any_masked() const noexcept { return !tombstone_.empty(); }

  /// Swaps in the grown RowView (backends store it by value). Structures
  /// built over the old storage stay valid only if they index by id, not by
  /// pointer; backends that cache derived state re-target it here.
  virtual void do_resize(RowView rows) = 0;

 private:
  void mask(Index id) {
    SLIDE_ASSERT(id < size());
    if (tombstone_.empty())
      tombstone_.assign(static_cast<std::size_t>(size()), 0);
    tombstone_[id] = 1;
  }
  void unmask(Index id) {
    if (!tombstone_.empty()) tombstone_[id] = 0;
  }

  /// Lazily allocated: empty until the first remove(), so the untouched
  /// (training) path never pays for the filter.
  std::vector<std::uint8_t> tombstone_;
};

}  // namespace retrieval
}  // namespace slide
