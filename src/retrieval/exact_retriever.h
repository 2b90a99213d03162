// Brute-force retrieval: every live id is a candidate.
//
// This is the `exact = true` scan expressed as a Retriever — the oracle
// the LSH sampler is measured against (metrics::recall_at_k), and the
// degenerate baseline for the standalone ANN-search workloads. There is no
// index: retrieve() appends the whole universe (minus removed ids and
// pre-stamped exclusions), so `budget` is documented-ignored and rebuild()
// is a no-op.
#pragma once

#include "retrieval/retriever.h"

namespace slide::retrieval {

class ExactRetriever final : public Retriever {
 public:
  explicit ExactRetriever(RowView rows) : rows_(rows) {}

  Index size() const noexcept override { return rows_.count; }

  void retrieve(std::span<const Index> query_ids,
                std::span<const float> query_act, Index budget, Rng& rng,
                VisitedSet& visited, std::vector<Index>& out,
                bool fresh_epoch = true) const override;

  void rebuild(ThreadPool* pool) override { (void)pool; }

  std::size_t memory_bytes() const noexcept override { return 0; }

 private:
  void do_resize(RowView rows) override { rows_ = rows; }

  RowView rows_;
};

}  // namespace slide::retrieval
