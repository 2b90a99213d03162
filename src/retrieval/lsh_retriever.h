// (K, L) LSH retrieval — the paper's sampler behind the Retriever surface.
//
// Owns the layer's MaintainedTables (the double-buffered active/shadow
// structure of core/layer.h's maintenance machinery) and runs the
// historical key → pin → buckets → sample_neurons sequence VERBATIM
// (pinned by the golden determinism test).
//
// The owning SampledLayer keeps driving its rebuilds (in place or into
// the shadow group) and the add_units splice directly through tables().
// Standalone users (ANN search, benches, tests) get the same index through
// the generic hook: rebuild() hashes every row.
#pragma once

#include "lsh/table_group.h"
#include "retrieval/retriever.h"

namespace slide::retrieval {

class LshRetriever final : public Retriever {
 public:
  /// Takes ownership of the hash family (dim must equal rows.dim). The
  /// `sampling` strategy/threshold knobs drive candidate selection;
  /// retrieve() overrides the target with its per-call budget.
  LshRetriever(std::unique_ptr<HashFamily> family,
               const HashTable::Config& table_config,
               const SamplingConfig& sampling, RowView rows,
               std::uint64_t seed);

  Index size() const noexcept override { return rows_.count; }

  void retrieve(std::span<const Index> query_ids,
                std::span<const float> query_act, Index budget, Rng& rng,
                VisitedSet& visited, std::vector<Index>& out,
                bool fresh_epoch = true) const override;

  void rebuild(ThreadPool* pool) override;

  std::size_t memory_bytes() const noexcept override {
    return tables_.memory_bytes();
  }

  /// The underlying double-buffered tables — the owning SampledLayer's
  /// maintenance code (shadow builds, splices, publishes) operates on
  /// them directly.
  MaintainedTables& tables() noexcept { return tables_; }
  const MaintainedTables& tables() const noexcept { return tables_; }

 private:
  /// Buckets store ids, not row pointers, so the tables survive a grown
  /// (reallocated) weight array as-is; only the view needs re-targeting.
  void do_resize(RowView rows) override { rows_ = rows; }

  MaintainedTables tables_;
  SamplingConfig sampling_;
  RowView rows_;
};

}  // namespace slide::retrieval
