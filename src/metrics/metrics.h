// Accuracy evaluation. The paper's "accuracy" for these multi-label extreme
// classification tasks is precision@1: the fraction of test samples whose
// top-1 predicted class is among the true labels.
#pragma once

#include <cstdint>

#include "core/network.h"
#include "data/dataset.h"
#include "sys/thread_pool.h"

namespace slide {

struct EvalOptions {
  /// Score every output neuron instead of LSH-sampled inference.
  bool exact = false;
  /// Cap on evaluated samples (0 = all); the paper-scale test sets are large
  /// and a few thousand samples give a stable estimate.
  std::size_t max_samples = 0;
  std::uint64_t seed = 7'001;
};

/// P@1 of the SLIDE network on a dataset, parallelized over samples. Ranks
/// through predict_topk with k = 1 (the first maximum wins); a sample with
/// no candidate left (every output unit retired) counts as a miss.
double evaluate_p_at_1(const Network& network, const Dataset& data,
                       ThreadPool& pool, const EvalOptions& options = {});

/// Precision@k (the standard XC metric family): mean over samples of
/// |top-k predictions ∩ true labels| / k.
double evaluate_p_at_k(const Network& network, const Dataset& data,
                       ThreadPool& pool, int k,
                       const EvalOptions& options = {});

/// Recall@k of one retrieval result against the exact oracle:
/// |retrieved ∩ exact_topk| / |exact_topk| (1.0 for an empty oracle —
/// nothing to recall). Pure set overlap: `retrieved` may be any size (the
/// caller picks its own k by truncating), duplicates in either span count
/// once. The ANN-search example (examples/lsh_topk_search) and the
/// retrieval bench (bench/retrieval_backends) report this number.
double recall_at_k(std::span<const Index> retrieved,
                   std::span<const Index> exact_topk);

}  // namespace slide
